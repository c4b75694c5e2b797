// Operation histories of *implemented* (derived) objects.
//
// Base objects are atomic by construction, so only implemented objects (e.g.
// the 1sWRN_k built by Algorithm 5 from strong set election, registers and
// snapshots) need linearizability checking. Algorithm wrappers record each
// high-level operation's invocation and response here; the checker
// (subc/checking/linearizability.hpp) then searches for a legal sequential
// ordering. Timestamps come from the recording order, which equals real-time
// order because the simulation is single-threaded.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "subc/runtime/value.hpp"

namespace subc {

class TraceObserver;

/// One completed (or pending) high-level operation. `op` and `response` are
/// small value tuples; their meaning is fixed by the sequential spec the
/// history is checked against.
struct HistoryEntry {
  int pid = -1;
  std::vector<Value> op;        ///< operation name/arguments, spec-defined
  std::vector<Value> response;  ///< empty while pending
  std::int64_t invoked_at = -1;
  std::int64_t responded_at = -1;  ///< -1 while pending

  [[nodiscard]] bool pending() const noexcept { return responded_at < 0; }
};

/// Append-only record of high-level operations.
///
/// Entry op/response buffers are recycled, so a history stops allocating in
/// steady state. `clear()` keeps the buffers of the cleared entries in the
/// history itself, and its next entries reuse them first: a history that is
/// cleared and refilled (an instance block's, runtime/instance.hpp) holds
/// at most the buffers of its largest fill. The destructor returns them to
/// a thread-local pool (bounded, so one giant history cannot pin memory)
/// that histories built and torn down once per execution draw from.
class History {
 public:
  History() = default;
  ~History();

  History(const History&) = default;
  History& operator=(const History&) = default;
  History(History&&) = default;
  History& operator=(History&&) = default;

  /// Opens an operation; returns its handle. The values are copied.
  std::size_t invoke(int pid, std::span<const Value> op);
  std::size_t invoke(int pid, std::initializer_list<Value> op) {
    return invoke(pid, std::span<const Value>(op.begin(), op.size()));
  }

  /// Closes operation `handle` with its response. The values are copied.
  void respond(std::size_t handle, std::span<const Value> response);
  void respond(std::size_t handle, std::initializer_list<Value> response) {
    respond(handle, std::span<const Value>(response.begin(), response.size()));
  }

  /// Forgets all entries (keeping their buffers for the next entries) and
  /// rewinds the clock — the recycling alternative to destroying the
  /// History.
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
  /// Empty buffers of cleared entries, taken before the thread-local pool.
  std::vector<std::vector<Value>> spare_;
  std::int64_t clock_ = 0;
  TraceObserver* sink_ = nullptr;
};

}  // namespace subc
