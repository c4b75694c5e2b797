#include "subc/runtime/policy.hpp"

#include <algorithm>
#include <sstream>

namespace subc {

PctPolicy::PctPolicy(std::uint64_t seed, int depth, std::int64_t horizon)
    : seed_(seed), depth_(depth), horizon_(horizon), rng_(seed) {
  if (depth < 1) {
    throw SimError("PctPolicy: depth must be >= 1");
  }
  if (horizon < 1) {
    throw SimError("PctPolicy: horizon must be >= 1");
  }
  begin_run();
}

void PctPolicy::begin_run() {
  rng_.seed(seed_);
  priorities_.clear();
  step_ = 0;
  next_change_ = 0;
  change_points_.clear();
  std::uniform_int_distribution<std::int64_t> dist(0, horizon_ - 1);
  for (int i = 0; i < depth_ - 1; ++i) {
    change_points_.push_back(dist(rng_));
  }
  std::sort(change_points_.begin(), change_points_.end());
}

std::int64_t PctPolicy::priority_of(int pid) {
  const auto idx = static_cast<std::size_t>(pid);
  if (priorities_.size() <= idx) {
    priorities_.resize(idx + 1, -1);
  }
  if (priorities_[idx] < 0) {
    // Lazily drawn on first sight (the policy never learns the process
    // count up front). 62 random bits make collisions negligible; the
    // lowest-pid tiebreak in pick() keeps any collision deterministic.
    std::uniform_int_distribution<std::int64_t> dist(
        depth_, std::int64_t{1} << 62);
    priorities_[idx] = dist(rng_);
  }
  return priorities_[idx];
}

std::size_t PctPolicy::pick(std::span<const int> enabled,
                            std::span<const Access> /*footprints*/) {
  std::size_t best = 0;
  std::int64_t best_prio = -1;
  for (std::size_t i = 0; i < enabled.size(); ++i) {
    const std::int64_t prio = priority_of(enabled[i]);
    if (prio > best_prio) {  // strict: ties resolve to the lowest pid
      best_prio = prio;
      best = i;
    }
  }
  // Priority change points: when the global step counter crosses one, the
  // process granted that step falls below every initial priority.
  while (next_change_ < static_cast<int>(change_points_.size()) &&
         change_points_[static_cast<std::size_t>(next_change_)] <= step_) {
    priorities_[static_cast<std::size_t>(enabled[best])] = next_change_;
    ++next_change_;
  }
  ++step_;
  return best;
}

std::uint32_t PctPolicy::choose(std::uint32_t arity) {
  std::uniform_int_distribution<std::uint32_t> dist(0, arity - 1);
  return dist(rng_);
}

DelayBoundedPolicy::DelayBoundedPolicy(std::uint64_t seed, int delays,
                                       std::int64_t horizon)
    : seed_(seed), delays_(delays), horizon_(horizon), rng_(seed) {
  if (delays < 0) {
    throw SimError("DelayBoundedPolicy: delays must be >= 0");
  }
  if (horizon < 1) {
    throw SimError("DelayBoundedPolicy: horizon must be >= 1");
  }
  begin_run();
}

void DelayBoundedPolicy::begin_run() {
  rng_.seed(seed_);
  delay_points_.clear();
  std::uniform_int_distribution<std::int64_t> dist(0, horizon_ - 1);
  for (int i = 0; i < delays_; ++i) {
    delay_points_.push_back(dist(rng_));
  }
  std::sort(delay_points_.begin(), delay_points_.end());
  next_delay_ = 0;
  step_ = 0;
  last_pid_ = -1;
  delays_used_ = 0;
}

std::size_t DelayBoundedPolicy::pick(std::span<const int> enabled,
                                     std::span<const Access> /*footprints*/) {
  // Round-robin base schedule: the first enabled pid cyclically after the
  // previously granted one (enabled pids arrive in ascending order).
  std::size_t cand = 0;
  for (std::size_t i = 0; i < enabled.size(); ++i) {
    if (enabled[i] > last_pid_) {
      cand = i;
      break;
    }
  }
  // Spend every delay point the step counter has reached: each one skips
  // the current candidate — the adversary's one primitive in the
  // delay-bounded model.
  while (next_delay_ < delay_points_.size() &&
         delay_points_[next_delay_] <= step_) {
    cand = (cand + 1) % enabled.size();
    ++next_delay_;
    ++delays_used_;
  }
  ++step_;
  last_pid_ = enabled[cand];
  return cand;
}

std::uint32_t DelayBoundedPolicy::choose(std::uint32_t arity) {
  std::uniform_int_distribution<std::uint32_t> dist(0, arity - 1);
  return dist(rng_);
}

CrashAdversary::CrashAdversary(SchedulePolicy& inner,
                               std::vector<CrashPoint> plan)
    : inner_(&inner), plan_(std::move(plan)) {
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const CrashPoint& cp = plan_[i];
    if (cp.victim < 0 || cp.victim >= 64) {
      throw SimError("CrashAdversary: plan entry " + std::to_string(i) +
                     " victim " + std::to_string(cp.victim) +
                     " out of [0, 64)");
    }
    if (cp.after_steps < 0) {
      throw SimError("CrashAdversary: plan entry " + std::to_string(i) +
                     " has negative after_steps " +
                     std::to_string(cp.after_steps));
    }
    const std::uint64_t bit = std::uint64_t{1} << cp.victim;
    if ((seen & bit) != 0) {
      // A process crashes at most once; a second entry for the same victim
      // could never fire and would silently misrepresent the fault model.
      throw SimError("CrashAdversary: duplicate victim " +
                     std::to_string(cp.victim) + " in plan entry " +
                     std::to_string(i));
    }
    seen |= bit;
  }
  fired_.assign(plan_.size(), false);
}

CrashAdversary::CrashAdversary(SchedulePolicy& inner,
                               std::vector<CrashPoint> plan, int f)
    : CrashAdversary(inner, std::move(plan)) {
  if (f < 0) {
    throw SimError("CrashAdversary: f must be >= 0");
  }
  if (plan_.size() > static_cast<std::size_t>(f)) {
    throw SimError("CrashAdversary: plan has " + std::to_string(plan_.size()) +
                   " entries, exceeding the crash bound f = " +
                   std::to_string(f));
  }
}

CrashAdversary::CrashAdversary(SchedulePolicy& inner, std::uint64_t seed,
                               int f, double crash_prob)
    : inner_(&inner),
      seed_(seed),
      rng_(seed),
      budget_(f),
      crash_prob_(crash_prob),
      random_mode_(true) {
  if (f < 0) {
    throw SimError("CrashAdversary: f must be >= 0");
  }
  if (crash_prob < 0.0 || crash_prob > 1.0) {
    throw SimError("CrashAdversary: crash_prob must be in [0, 1]");
  }
}

void CrashAdversary::set_recovery_plan(std::vector<RecoveryPoint> plan) {
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const RecoveryPoint& rp = plan[i];
    if (rp.victim < 0 || rp.victim >= 64) {
      throw SimError("CrashAdversary: recovery plan entry " +
                     std::to_string(i) + " victim " +
                     std::to_string(rp.victim) + " out of [0, 64)");
    }
    if (rp.after_steps < 0) {
      throw SimError("CrashAdversary: recovery plan entry " +
                     std::to_string(i) + " has negative after_steps " +
                     std::to_string(rp.after_steps));
    }
    const std::uint64_t bit = std::uint64_t{1} << rp.victim;
    if ((seen & bit) != 0) {
      // A process crashes at most once, so it restarts at most once; a
      // second entry for the same victim could never fire and would
      // silently misrepresent the restart model.
      throw SimError("CrashAdversary: duplicate victim " +
                     std::to_string(rp.victim) + " in recovery plan entry " +
                     std::to_string(i));
    }
    seen |= bit;
  }
  recovery_plan_ = std::move(plan);
  recovery_fired_.assign(recovery_plan_.size(), false);
}

void CrashAdversary::set_random_recovery(std::uint64_t seed,
                                         int max_recoveries,
                                         double recover_prob) {
  if (max_recoveries < 0) {
    throw SimError("CrashAdversary: max_recoveries must be >= 0");
  }
  if (recover_prob < 0.0 || recover_prob > 1.0) {
    throw SimError("CrashAdversary: recover_prob must be in [0, 1]");
  }
  recovery_seed_ = seed;
  recovery_budget_ = max_recoveries;
  recover_prob_ = recover_prob;
  random_recovery_ = true;
  recovery_rng_.seed(seed);
}

void CrashAdversary::begin_run() {
  inner_->begin_run();
  fired_.assign(plan_.size(), false);
  grants_.clear();
  total_grants_ = 0;
  injected_ = 0;
  if (random_mode_) {
    rng_.seed(seed_);
  }
  recovery_fired_.assign(recovery_plan_.size(), false);
  recoveries_injected_ = 0;
  if (random_recovery_) {
    recovery_rng_.seed(recovery_seed_);
  }
}

std::size_t CrashAdversary::pick(std::span<const int> enabled,
                                 std::span<const Access> footprints) {
  const std::size_t idx = inner_->pick(enabled, footprints);
  if (idx == kCut) {
    return idx;  // nothing granted, nothing to count
  }
  const auto pid = static_cast<std::size_t>(enabled[idx]);
  if (grants_.size() <= pid) {
    grants_.resize(pid + 1, 0);
  }
  ++grants_[pid];
  ++total_grants_;
  return idx;
}

std::uint32_t CrashAdversary::choose(std::uint32_t arity) {
  return inner_->choose(arity);
}

std::uint64_t CrashAdversary::crash_requests(std::span<const int> enabled) {
  // Compose with any fault model the inner policy carries.
  std::uint64_t mask = inner_->crash_requests(enabled);
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    if (fired_[i]) {
      continue;
    }
    const CrashPoint& cp = plan_[i];
    const auto victim = static_cast<std::size_t>(cp.victim);
    const std::int64_t taken = victim < grants_.size() ? grants_[victim] : 0;
    if (taken < cp.after_steps) {
      continue;
    }
    if (std::find(enabled.begin(), enabled.end(), cp.victim) ==
        enabled.end()) {
      continue;  // already done/hung/crashed; the plan entry stays armed
    }
    mask |= std::uint64_t{1} << victim;
    fired_[i] = true;
    ++injected_;
  }
  if (random_mode_) {
    for (const int pid : enabled) {
      if (pid >= 64 || injected_ >= budget_) {
        break;
      }
      const std::uint64_t bit = std::uint64_t{1} << pid;
      if ((mask & bit) != 0) {
        continue;
      }
      if (std::bernoulli_distribution(crash_prob_)(rng_)) {
        mask |= bit;
        ++injected_;
      }
    }
  }
  return mask;
}

bool CrashAdversary::wants_recovery() const {
  return !recovery_plan_.empty() || random_recovery_ ||
         inner_->wants_recovery();
}

std::uint64_t CrashAdversary::recovery_requests(std::span<const int> crashed) {
  // Compose with any restart model the inner policy carries.
  std::uint64_t mask = inner_->recovery_requests(crashed);
  for (std::size_t i = 0; i < recovery_plan_.size(); ++i) {
    if (recovery_fired_[i]) {
      continue;
    }
    const RecoveryPoint& rp = recovery_plan_[i];
    if (total_grants_ < rp.after_steps) {
      continue;
    }
    if (std::find(crashed.begin(), crashed.end(), rp.victim) ==
        crashed.end()) {
      continue;  // not crashed (yet); the plan entry stays armed
    }
    mask |= std::uint64_t{1} << static_cast<std::size_t>(rp.victim);
    recovery_fired_[i] = true;
    ++recoveries_injected_;
  }
  if (random_recovery_) {
    for (const int pid : crashed) {
      if (pid >= 64 || recoveries_injected_ >= recovery_budget_) {
        break;
      }
      const std::uint64_t bit = std::uint64_t{1} << pid;
      if ((mask & bit) != 0) {
        continue;
      }
      if (std::bernoulli_distribution(recover_prob_)(recovery_rng_)) {
        mask |= bit;
        ++recoveries_injected_;
      }
    }
  }
  return mask;
}

std::size_t RecordingPolicy::pick(std::span<const int> enabled,
                                  std::span<const Access> footprints) {
  const std::size_t idx = inner_->pick(enabled, footprints);
  if (idx == kCut) {
    return idx;  // a cut is no decision: passed through, not journaled
  }
  journal_.push_back({Event::Kind::kGrant, enabled[idx],
                      static_cast<std::int64_t>(enabled.size())});
  return idx;
}

std::uint32_t RecordingPolicy::choose(std::uint32_t arity) {
  const std::uint32_t c = inner_->choose(arity);
  if (c != kCut) {
    journal_.push_back({Event::Kind::kChoose, c, arity});
  }
  return c;
}

std::uint64_t RecordingPolicy::crash_requests(std::span<const int> enabled) {
  const std::uint64_t mask = inner_->crash_requests(enabled);
  for (int pid = 0; pid < 64; ++pid) {
    if ((mask >> pid) & 1) {
      journal_.push_back({Event::Kind::kCrash, pid, 0});
    }
  }
  return mask;
}

std::uint64_t RecordingPolicy::recovery_requests(std::span<const int> crashed) {
  const std::uint64_t mask = inner_->recovery_requests(crashed);
  for (int pid = 0; pid < 64; ++pid) {
    if ((mask >> pid) & 1) {
      journal_.push_back({Event::Kind::kRecover, pid, 0});
    }
  }
  return mask;
}

void RecordingPolicy::begin_run() { inner_->begin_run(); }

std::string RecordingPolicy::format_journal() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < journal_.size(); ++i) {
    const Event& e = journal_[i];
    if (i) {
      os << ' ';
    }
    switch (e.kind) {
      case Event::Kind::kGrant:
        os << 'g' << e.a << '/' << e.b;
        break;
      case Event::Kind::kChoose:
        os << 'c' << e.a << '/' << e.b;
        break;
      case Event::Kind::kCrash:
        os << 'x' << e.a;
        break;
      case Event::Kind::kRecover:
        os << 'r' << e.a;
        break;
    }
  }
  return os.str();
}

}  // namespace subc
