#include "subc/runtime/scheduler.hpp"

#include <algorithm>
#include <sstream>

namespace subc {
namespace {

/// Bitmask of the enabled pids, or 0 when any pid falls outside the 64-bit
/// mask (reduction degrades to "off" at such decision points — sound, just
/// unreduced).
std::uint64_t enabled_mask(std::span<const int> enabled) {
  std::uint64_t mask = 0;
  for (const int pid : enabled) {
    if (pid < 0 || pid >= 64) {
      return 0;
    }
    mask |= std::uint64_t{1} << pid;
  }
  return mask;
}

}  // namespace

std::size_t RoundRobinDriver::pick(std::span<const int> enabled,
                                   std::span<const Access> /*footprints*/) {
  SUBC_ASSERT(!enabled.empty());
  // First enabled pid strictly greater than the last scheduled one,
  // wrapping around.
  for (std::size_t i = 0; i < enabled.size(); ++i) {
    if (enabled[i] > last_pid_) {
      last_pid_ = enabled[i];
      return i;
    }
  }
  last_pid_ = enabled[0];
  return 0;
}

std::uint32_t RoundRobinDriver::choose(std::uint32_t arity) {
  SUBC_ASSERT(arity >= 1);
  return 0;
}

std::size_t RandomDriver::pick(std::span<const int> enabled,
                               std::span<const Access> /*footprints*/) {
  SUBC_ASSERT(!enabled.empty());
  return std::uniform_int_distribution<std::size_t>(0, enabled.size() - 1)(
      rng_);
}

std::uint32_t RandomDriver::choose(std::uint32_t arity) {
  SUBC_ASSERT(arity >= 1);
  return std::uniform_int_distribution<std::uint32_t>(0, arity - 1)(rng_);
}

std::size_t ScriptedDriver::pick(std::span<const int> enabled,
                                 std::span<const Access> /*footprints*/) {
  SUBC_ASSERT(!enabled.empty());
  if (pos_ < pids_.size()) {
    const int wanted = pids_[pos_++];
    const auto it = std::find(enabled.begin(), enabled.end(), wanted);
    if (it != enabled.end()) {
      return static_cast<std::size_t>(it - enabled.begin());
    }
  }
  return 0;
}

std::uint32_t ScriptedDriver::choose(std::uint32_t arity) {
  SUBC_ASSERT(arity >= 1);
  return 0;
}

std::size_t ReplayDriver::pick(std::span<const int> enabled,
                               std::span<const Access> footprints) {
  if (cut_ != Cut::kNone) {
    return kCut;  // a cut execution is granted no further step
  }
  if (enabled.empty()) {
    throw SimError("ReplayDriver::pick: empty enabled set");
  }
  // Watchdog: a terminating world consumes a bounded number of scheduling
  // decisions; a livelocked one does not. The quota converts the latter
  // into a StuckCut the explorer reports as a StuckExecution diagnostic.
  if (step_quota_ > 0 && ++steps_ > step_quota_) {
    throw StuckCut{};
  }
  // A granted step ends the current crash/recovery decision point: the next
  // crash_requests / recovery_requests may target any pid again.
  crashes_.floor = recoveries_.floor = 0;
  const auto arity = static_cast<std::uint32_t>(enabled.size());

  // Reduction is active at this decision point only when footprints are
  // supplied and every pid fits the sleep bitmask.
  const std::uint64_t mask =
      (reduce_ && footprints.size() == enabled.size()) ? enabled_mask(enabled)
                                                       : 0;
  // Sleeping processes must still be enabled (crash() can retire one).
  sleep_ &= mask;

  std::uint32_t chosen = 0;
  std::int32_t decision = -1;  // trace index of this decision, -1 if forced
  if (arity == 1) {
    // Forced decision: exactly one option, elided from the trace (it can
    // never be backtracked). The sleep set still evolves across it — and a
    // forced step by a sleeping process means every continuation was
    // already covered by the sibling branch that put it to sleep.
    if (mask != 0 && (sleep_ >> enabled[0] & 1) != 0) {
      ++reduced_;
      return raise_cut(Cut::kSleep);
    }
  } else if (pos_ < trace_.size()) {
    decision = static_cast<std::int32_t>(pos_);
    const Decision& d = trace_[pos_++];
    // The world must be deterministic given the decision string: arity,
    // enabled set and inherited sleep set must match the recording.
    SUBC_ASSERT(!d.crash && !d.recover);
    SUBC_ASSERT(d.arity == arity);
    SUBC_ASSERT(d.chosen < arity);
    SUBC_ASSERT(mask == 0 || d.enabled == 0 || d.enabled == mask);
    SUBC_ASSERT(mask == 0 || d.enabled == 0 || d.sleep == sleep_);
    chosen = d.chosen;
    note_prefix_used();
  } else {
    if (trace_.size() >= limit_) {
      return raise_cut(Cut::kFrontier);
    }
    const bool listed =
        source_sets_ && mask != 0 && arity <= kMaxListed;
    if (mask != 0) {
      // Sleep-set skip: the least option whose process is awake. Each
      // skipped option is a subtree an earlier sibling branch already
      // covers; with every process asleep the whole node is redundant.
      while (chosen < arity && (sleep_ >> enabled[chosen] & 1) != 0) {
        ++reduced_;
        ++chosen;
      }
      if (chosen == arity) {
        return raise_cut(Cut::kSleep);
      }
    }
    Decision fresh{chosen, arity, mask, sleep_};
    if (listed) {
      // Every other option is counted as never entered; the explorer takes
      // one back each time it enters a listed option later.
      reduced_ += arity - 1 - chosen;
      fresh.list[0] = static_cast<std::uint8_t>(chosen);
      fresh.listed = 1;
    }
    decision = static_cast<std::int32_t>(trace_.size());
    trace_.push_back(fresh);
    ++pos_;
    if (prune_ != nullptr && *prune_ && (*prune_)(trace_)) {
      return raise_cut(Cut::kPrune);
    }
  }
  if (steps_log_ != nullptr) {
    steps_log_->push_back(Step{enabled[chosen], decision,
                               footprints.size() == enabled.size()
                                   ? footprints[chosen]
                                   : Access{}});
  }

  if (mask != 0) {
    // Classic sleep-set propagation past the granted step: the options
    // entered before this one join the sleep set (their subtrees were
    // explored first), then every sleeper whose pending step *depends* on
    // the granted step wakes up. A replayed listed decision records those
    // options; a full-branching one has entered every option below
    // `chosen` (a fresh decision's are all asleep already).
    std::uint64_t eff = sleep_;
    const Decision* d =
        decision < 0 ? nullptr : &trace_[static_cast<std::size_t>(decision)];
    if (d != nullptr && d->listed > 0) {
      eff |= d->explored;
    } else {
      for (std::uint32_t c = 0; c < chosen; ++c) {
        eff |= std::uint64_t{1} << enabled[c];
      }
    }
    const Access granted = footprints[chosen];
    std::uint64_t next = 0;
    for (std::size_t j = 0; j < enabled.size(); ++j) {
      if (j == chosen) {
        continue;
      }
      const std::uint64_t bit = std::uint64_t{1} << enabled[j];
      if ((eff & bit) != 0 && independent(footprints[j], granted)) {
        next |= bit;
      }
    }
    sleep_ = next;
  } else {
    sleep_ = 0;
  }
  return chosen;
}

std::uint64_t ReplayDriver::fault(FaultBudget& budget, bool Decision::*kind,
                                  std::span<const int> candidates) {
  // Fault branching: while the per-run budget lasts, every kernel decision
  // point forks on "no fault" (option 0) vs "fault the i-th candidate"
  // (option i >= 1). The kernel re-consults the hook after each landed
  // fault, so multi-fault sets build up one decision at a time; the floor
  // canonicalizes that chain to increasing pid order. A replayed decision
  // of this kind is honored whatever the budget: the flag travels with the
  // trace, so replay re-derives the fault without the recording run's
  // budget (a trace that predates fault branching simply has none).
  int victims[64];
  std::uint32_t count = 0;
  for (const int pid : candidates) {
    if (pid >= budget.floor && pid < 64) {
      victims[count++] = pid;
    }
  }
  if (count == 0) {
    // Forced "no fault": arity-1 decisions are elided, as in pick().
    return 0;
  }
  // A fresh branch starts at "no fault"; advance() later bumps through the
  // victims. Enabled/sleep masks stay 0: sleep-set reduction never skips a
  // fault option. A sleeping process can still be crashed (its crash is
  // dependent with its own pending step, which put it to sleep), and a
  // restart is a write on the restarted process (its whole volatile state
  // is reborn), dependent with everything it will do. A cut lands at the
  // next pick (or ends an idle run).
  const std::uint32_t chosen = decide(count + 1, kind);
  if (chosen == 0 || chosen == kCut) {
    return 0;
  }
  const int victim = victims[chosen - 1];
  ++budget.run;
  ++budget.total;
  budget.floor = victim + 1;
  const std::uint64_t bit = std::uint64_t{1} << victim;
  // A crash leaves the sleep set untouched: it behaves as a write on the
  // victim alone, independent of every *other* process's pending step, so
  // sleepers stay asleep across it; the victim itself leaves the enabled
  // set and is masked out of the sleep set at the next pick(). A restart
  // wakes its pid: its rebirth is a write footprint on itself, so any sleep
  // bit it held (from its *previous* incarnation's pending step) no longer
  // proves its new steps redundant.
  if (kind == &Decision::recover) {
    sleep_ &= ~bit;
  }
  return bit;
}

void ReplayDriver::on_state_fp(std::uint64_t fp, bool valid) {
  // Probe only in fresh territory: while the replayed prefix is being
  // consumed the execution walks states an earlier sibling already inserted
  // on its way down, and cutting there would cut the restart-DFS's own
  // backbone. (`pos_` does not advance across forced decisions, so forced
  // points inside the prefix correctly count as replayed.)
  if (visited_ == nullptr || cut_ != Cut::kNone || pos_ < trace_.size()) {
    return;
  }
  if (!valid || !base_fp_valid_) {
    return;  // an unported object stepped somewhere: no cuts this execution
  }
  // Key on the (state, sleep-set) pair: a state revisited with a *different*
  // sleep set constrains its continuations differently, so only the exact
  // pair proves the subtree redundant (Godefroid's composition rule).
  const std::uint64_t key = detail::mix64(
      (base_fp_ ^ fp) ^ detail::mix64(sleep_ ^ detail::kFpSleepSalt));
  if (visited_->check_and_insert(key)) {
    // Lands at this decision point's pick: the recovery and crash hooks the
    // kernel consults in between answer "none" once the driver is cut.
    raise_cut(Cut::kStateful);
  }
}

void ReplayDriver::on_run_fp(std::uint64_t fp, bool valid) {
  if (visited_ == nullptr) {
    return;
  }
  base_fp_ = detail::mix64(base_fp_ ^ detail::mix64(fp ^ detail::kFpRunSalt));
  base_fp_valid_ = base_fp_valid_ && valid;
}

std::uint32_t ReplayDriver::choose(std::uint32_t arity) {
  if (arity == 0) {
    throw SimError("ReplayDriver::choose: arity must be >= 1");
  }
  if (cut_ != Cut::kNone) {
    return 0;
  }
  // Forced decision: elided, as in pick().
  return arity == 1 ? 0 : decide(arity, nullptr);
}

std::uint32_t ReplayDriver::decide(std::uint32_t arity, bool Decision::*kind) {
  if (pos_ < trace_.size()) {
    const Decision& d = trace_[pos_++];
    SUBC_ASSERT(kind != nullptr ? d.*kind : !d.crash && !d.recover);
    SUBC_ASSERT(d.arity == arity);
    SUBC_ASSERT(d.chosen < arity);
    note_prefix_used();
    return d.chosen;
  }
  if (trace_.size() >= limit_) {
    return raise_cut(Cut::kFrontier);
  }
  trace_.push_back(Decision{0, arity, 0, 0, kind == &Decision::crash,
                            kind == &Decision::recover});
  ++pos_;
  if (prune_ != nullptr && *prune_ && (*prune_)(trace_)) {
    return raise_cut(Cut::kPrune);
  }
  return 0;
}

std::string format_trace(std::span<const ReplayDriver::Decision> trace) {
  std::ostringstream os;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) {
      os << ' ';
    }
    if (trace[i].crash) {
      os << 'x';
    }
    if (trace[i].recover) {
      os << 'r';
    }
    os << trace[i].chosen << '/' << trace[i].arity;
  }
  return os.str();
}

}  // namespace subc
