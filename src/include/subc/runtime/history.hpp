// Operation histories of *implemented* (derived) objects.
//
// Base objects are atomic by construction, so only implemented objects (e.g.
// the 1sWRN_k built by Algorithm 5 from strong set election, registers and
// snapshots) need linearizability checking. Algorithm wrappers record each
// high-level operation's invocation and response here; the checker
// (subc/checking/linearizability.hpp) then searches for a legal sequential
// ordering. Timestamps come from the recording order, which equals real-time
// order because the simulation is single-threaded.
//
// An entry's operation and response are inline tuples of at most
// `ValueTuple::kCapacity` values (the widest any object records is 2), so a
// History is one vector of plain entries: recording allocates only when
// that vector grows, and `clear()` keeps its capacity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "subc/runtime/value.hpp"

namespace subc {

class TraceObserver;

/// A value tuple of at most `kCapacity` values, stored inline. Assigning a
/// longer one throws `SimError`.
class ValueTuple {
 public:
  static constexpr std::size_t kCapacity = 4;

  ValueTuple() = default;
  ValueTuple(std::initializer_list<Value> values)
      : ValueTuple(std::span<const Value>(values.begin(), values.size())) {}
  explicit ValueTuple(std::span<const Value> values) { assign(values); }

  void assign(std::span<const Value> values) {
    if (values.size() > kCapacity) {
      throw SimError("history tuple of " + std::to_string(values.size()) +
                     " values; at most " + std::to_string(kCapacity) +
                     " fit");
    }
    std::copy(values.begin(), values.end(), values_);
    size_ = values.size();
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const Value* begin() const noexcept { return values_; }
  [[nodiscard]] const Value* end() const noexcept { return values_ + size_; }
  [[nodiscard]] Value operator[](std::size_t i) const noexcept {
    return values_[i];
  }
  [[nodiscard]] Value front() const noexcept { return values_[0]; }

  /// Implicit, so a tuple passes wherever values are taken as a span.
  operator std::span<const Value>() const noexcept {
    return {values_, size_};
  }

  friend bool operator==(const ValueTuple& a, std::span<const Value> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  Value values_[kCapacity] = {};
  std::size_t size_ = 0;
};

/// One completed (or pending) high-level operation. `op` and `response` are
/// small value tuples; their meaning is fixed by the sequential spec the
/// history is checked against.
struct HistoryEntry {
  int pid = -1;
  ValueTuple op;        ///< operation name/arguments, spec-defined
  ValueTuple response;  ///< empty while pending
  std::int64_t invoked_at = -1;
  std::int64_t responded_at = -1;  ///< -1 while pending

  [[nodiscard]] bool pending() const noexcept { return responded_at < 0; }
};

/// Append-only record of high-level operations.
///
/// Entries hold their tuples inline, so recording allocates only when the
/// entry vector grows; `clear()` keeps that capacity, and a history that is
/// cleared and refilled (an instance block's, runtime/instance.hpp) stops
/// allocating once it has held its largest fill.
class History {
 public:
  /// Opens an operation; returns its handle. The values are copied; more
  /// than `ValueTuple::kCapacity` of them throw `SimError`.
  std::size_t invoke(int pid, std::span<const Value> op);
  std::size_t invoke(int pid, std::initializer_list<Value> op) {
    return invoke(pid, std::span<const Value>(op.begin(), op.size()));
  }

  /// Closes operation `handle` with its response. The values are copied;
  /// more than `ValueTuple::kCapacity` of them throw `SimError`.
  void respond(std::size_t handle, std::span<const Value> response);
  void respond(std::size_t handle, std::initializer_list<Value> response) {
    respond(handle, std::span<const Value>(response.begin(), response.size()));
  }

  /// Forgets all entries (keeping the entry vector's capacity) and rewinds
  /// the clock — the recycling alternative to destroying the History.
  void clear();

  [[nodiscard]] const std::vector<HistoryEntry>& entries() const noexcept {
    return entries_;
  }

  /// Number of completed operations.
  [[nodiscard]] std::size_t completed() const noexcept;

  /// Human-readable dump (one line per entry) for failure diagnostics.
  [[nodiscard]] std::string dump() const;

  /// Streams every subsequent invoke/respond to `sink` (observer.hpp) as
  /// on_invoke/on_respond events; nullptr disconnects. Wiring is explicit —
  /// a History never adopts the thread-default observer, so observer-owned
  /// mirrors (HistoryRecorder) cannot feed back into themselves.
  void set_sink(TraceObserver* sink) noexcept { sink_ = sink; }

  /// Appends a fully-formed entry with its original timestamps, advancing
  /// the clock past them. For reconstructing a history from an exported
  /// trace (checking/trace_jsonl.hpp); not forwarded to the sink. Returns
  /// the entry's handle.
  std::size_t restore(HistoryEntry entry);

  /// Replaces the entry at `handle` (same trace-reconstruction use as
  /// `restore`, for completing a previously restored pending entry). Also
  /// advances the clock past the entry's timestamps; not forwarded to the
  /// sink.
  void amend(std::size_t handle, HistoryEntry entry);

 private:
  std::vector<HistoryEntry> entries_;
  std::int64_t clock_ = 0;
  TraceObserver* sink_ = nullptr;
};

}  // namespace subc
