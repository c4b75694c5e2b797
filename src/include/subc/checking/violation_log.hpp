// Thread-safe violation aggregation for parallel checkers.
//
// Parallel checkers index their work in *serial* order — a seed's position
// in `RandomSweep`'s range, a work unit's position in the explorer's
// serial-DFS event sequence. Violations reported from concurrently running
// workers are aggregated here; the winner is the candidate with the least
// index, i.e. exactly the violation a serial run would have reported first.
// That makes failure reports deterministic across runs, thread counts, and
// scheduling jitter. (The explorer takes its verdict from its own canonical
// fold and uses the log to cancel units that can no longer win.)
//
// `best_index()` is a relaxed atomic read so workers can poll it on their
// hot path as a cooperative-cancellation signal without taking the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "subc/runtime/scheduler.hpp"

namespace subc {

class ViolationLog {
 public:
  /// Sentinel: no violation reported yet.
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  struct Entry {
    /// Canonical (serial DFS emission) index of the reporting work unit.
    std::uint64_t index = kNone;
    std::string message;
    std::vector<ReplayDriver::Decision> trace;
  };

  /// Records a candidate violation. Returns true iff it became the current
  /// best (least canonical index). Safe to call from any thread.
  bool report(std::uint64_t index, std::string message,
              std::vector<ReplayDriver::Decision> trace);

  /// Least canonical index reported so far (`kNone` when empty). Workers use
  /// this to cancel work units that can no longer win.
  [[nodiscard]] std::uint64_t best_index() const noexcept {
    return best_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool empty() const noexcept { return best_index() == kNone; }

  /// Total candidates reported (including losers).
  [[nodiscard]] std::int64_t total_reported() const noexcept {
    return total_.load(std::memory_order_relaxed);
  }

  /// The winning (least-index) entry, or nullopt when nothing was reported.
  [[nodiscard]] std::optional<Entry> winner() const;

 private:
  mutable std::mutex mu_;
  std::atomic<std::uint64_t> best_{kNone};
  std::atomic<std::int64_t> total_{0};
  Entry entry_;
};

}  // namespace subc
