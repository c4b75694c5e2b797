// Source sets for the exhaustive explorer: the race analysis of Abdulla,
// Aronis, Jonsson and Sagonas, "Optimal Dynamic Partial Order Reduction"
// (POPL 2014), Algorithm 1, on top of the sleep sets the ReplayDriver keeps.
//
// After each run the explorer hands the run's step log (pid and footprint of
// every granted step) to `RaceAnalysis`. Happens-before is the transitive
// closure of program order and `independent()`-dependence, tracked with
// vector clocks. Two steps race when they are dependent, by different
// processes, and no third step lies between them in happens-before. For each
// race whose later step ran for the first time in this run, the earlier
// step's decision must be able to start the race's reversal: it gets a
// `Backtrack` demand naming the reversal's initials, and `apply` adds one of
// them to the decision's backtrack list unless the list (or the sleep set)
// already holds one. See docs/explorer.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "subc/runtime/scheduler.hpp"

namespace subc::detail {

/// What one race asks of the decision at trace index `depth`.
struct Backtrack {
  std::uint32_t depth = 0;
  /// Pids that can take the first step of the race's reversal there. 0
  /// asks for full branching: every awake option is listed.
  std::uint64_t initials = 0;
  /// The initial to list when none is listed or asleep yet.
  std::int32_t preferred = -1;
};

/// The pid bit of option `c` at `d`: the c-th set bit of its enabled mask
/// (0 when `d` records no enabled mask).
std::uint64_t option_bit(const ReplayDriver::Decision& d, std::uint32_t c);

/// Applies one demand to a decision; full-branching decisions
/// (`listed == 0`) already hold every awake option and are left alone.
void apply(ReplayDriver::Decision& d, const Backtrack& b);

/// The race analysis of the runs of one depth-first search. Consecutive runs
/// share the prefix the search replays, so the analysis keeps the state it
/// had after each step of the previous run and rolls it back to the first
/// fresh step instead of recomputing it. Buffers are kept across runs: once
/// they have grown to fit, a run is analysed without allocating, in time
/// linear in its fresh steps × processes (plus a binary search per candidate
/// initial of each race).
class RaceAnalysis {
 public:
  /// The step log the driver appends to (`ReplayDriver::set_step_log`).
  std::vector<ReplayDriver::Step>& log() noexcept { return steps_; }

  /// Analyses the logged run: races whose later step is at `fresh_from` or
  /// after. Demands on decisions at index `floor` or deeper are applied to
  /// `trace` at once; demands on decisions above `floor` are appended to
  /// `above`, in the order found. A run in which a crash or restart landed
  /// (`faulted`), or whose pids do not fit the 64-bit masks, cannot be
  /// judged by races: every decision on its path then turns to full
  /// branching. Clears the step log.
  void run(std::size_t fresh_from, bool faulted,
           std::vector<ReplayDriver::Decision>& trace, std::size_t floor,
           std::vector<Backtrack>& above);

 private:
  void reset();
  void step(std::size_t k, bool fresh,
            std::vector<ReplayDriver::Decision>& trace, std::size_t floor,
            std::vector<Backtrack>& above);
  void race(std::size_t k, std::size_t qi, std::int32_t gi,
            std::int32_t other, std::vector<ReplayDriver::Decision>& trace,
            std::size_t floor, std::vector<Backtrack>& above);

  std::vector<ReplayDriver::Step> steps_;  ///< this run's log
  std::vector<ReplayDriver::Step> done_;   ///< the steps the state reflects
  bool done_single_ = false;  ///< `done_` came from a single Runtime
  std::size_t n_ = 0;         ///< processes (max pid + 1)
  // Per step k: its strict clock (n_ entries: 1 + the index of the latest
  // step of each process that happens before k; 0 = none), its latest
  // direct predecessor, and the previous step on its object. `agg_` holds,
  // after step k, the state of k's object (4 × n_ entries): the join of the
  // strict clocks of all its accesses and of its writes, and 1 + the index
  // of each process's latest access and latest write. Object 0 collects the
  // footprint-less steps, which conflict with everything.
  std::vector<std::uint32_t> sclock_;
  std::vector<std::int32_t> maxpred_;
  std::vector<std::int32_t> prev_touch_;
  std::vector<std::uint32_t> agg_;
  std::vector<std::int32_t> obj_last_;  ///< per object id: last step on it
  std::vector<std::vector<std::uint32_t>> events_;  ///< per pid: its steps
  std::vector<std::uint32_t> zeros_, s_, l_;        ///< n_-sized scratch
};

}  // namespace subc::detail
