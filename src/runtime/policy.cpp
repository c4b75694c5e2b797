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

namespace {

/// Validates a crash or restart plan (`what` names it in errors) and returns
/// its entries armed: a victim outside [0, 64), a negative `after_steps` or
/// a duplicate victim throws `SimError` naming the entry.
template <class Entry, class Point>
std::vector<Entry> armed_plan(const std::vector<Point>& plan,
                              const std::string& what) {
  std::vector<Entry> out;
  out.reserve(plan.size());
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Point& p = plan[i];
    const std::string entry = what + " entry " + std::to_string(i);
    if (p.victim < 0 || p.victim >= 64) {
      throw SimError("CrashAdversary: " + entry + " victim " +
                     std::to_string(p.victim) + " out of [0, 64)");
    }
    if (p.after_steps < 0) {
      throw SimError("CrashAdversary: " + entry + " has negative after_steps " +
                     std::to_string(p.after_steps));
    }
    const std::uint64_t bit = std::uint64_t{1} << p.victim;
    if ((seen & bit) != 0) {
      // A process crashes at most once, so it restarts at most once; a
      // second entry for the same victim could never fire and would
      // silently misrepresent the fault model.
      throw SimError("CrashAdversary: duplicate victim " +
                     std::to_string(p.victim) + " in " + entry);
    }
    seen |= bit;
    out.push_back({p.victim, p.after_steps, false});
  }
  return out;
}

}  // namespace

CrashAdversary::CrashAdversary(SchedulePolicy& inner,
                               std::vector<CrashPoint> plan)
    : PolicyDecorator(inner) {
  crash_.plan = armed_plan<FaultModel::Entry>(plan, "plan");
}

CrashAdversary::CrashAdversary(SchedulePolicy& inner,
                               std::vector<CrashPoint> plan, int f)
    : CrashAdversary(inner, std::move(plan)) {
  if (f < 0) {
    throw SimError("CrashAdversary: f must be >= 0");
  }
  if (crash_.plan.size() > static_cast<std::size_t>(f)) {
    throw SimError("CrashAdversary: plan has " +
                   std::to_string(crash_.plan.size()) +
                   " entries, exceeding the crash bound f = " +
                   std::to_string(f));
  }
}

CrashAdversary::CrashAdversary(SchedulePolicy& inner, std::uint64_t seed,
                               int f, double crash_prob)
    : PolicyDecorator(inner) {
  crash_.set_random(seed, f, crash_prob, "f", "crash_prob");
}

void CrashAdversary::set_recovery_plan(std::vector<RecoveryPoint> plan) {
  restart_.plan = armed_plan<FaultModel::Entry>(plan, "recovery plan");
}

void CrashAdversary::set_random_recovery(std::uint64_t seed,
                                         int max_recoveries,
                                         double recover_prob) {
  restart_.set_random(seed, max_recoveries, recover_prob, "max_recoveries",
                      "recover_prob");
}

void CrashAdversary::FaultModel::set_random(std::uint64_t s, int b,
                                            double p, const char* budget_name,
                                            const char* prob_name) {
  if (b < 0) {
    throw SimError(std::string("CrashAdversary: ") + budget_name +
                   " must be >= 0");
  }
  if (p < 0.0 || p > 1.0) {
    throw SimError(std::string("CrashAdversary: ") + prob_name +
                   " must be in [0, 1]");
  }
  seed = s;
  rng.seed(s);
  budget = b;
  prob = p;
  random = true;
}

void CrashAdversary::FaultModel::begin_run() {
  for (Entry& e : plan) {
    e.fired = false;
  }
  injected = 0;
  if (random) {
    rng.seed(seed);
  }
}

void CrashAdversary::begin_run() {
  PolicyDecorator::begin_run();
  grants_.fill(0);
  total_grants_ = 0;
  crash_.begin_run();
  restart_.begin_run();
}

std::size_t CrashAdversary::pick(std::span<const int> enabled,
                                 std::span<const Access> footprints) {
  const std::size_t idx = PolicyDecorator::pick(enabled, footprints);
  if (idx == kCut) {
    return idx;  // nothing granted, nothing to count
  }
  if (const int pid = enabled[idx]; pid < 64) {
    ++grants_[static_cast<std::size_t>(pid)];
  }
  ++total_grants_;
  return idx;
}

template <class Clock>
std::uint64_t CrashAdversary::fire(FaultModel& model, std::uint64_t mask,
                                   std::span<const int> candidates,
                                   Clock clock) {
  for (FaultModel::Entry& e : model.plan) {
    // An entry whose victim is no candidate (yet) stays armed.
    if (!e.fired && clock(e.victim) >= e.after_steps &&
        std::find(candidates.begin(), candidates.end(), e.victim) !=
            candidates.end()) {
      mask |= std::uint64_t{1} << e.victim;
      e.fired = true;
      ++model.injected;
    }
  }
  // Random faults use whatever budget the plan left; without a random
  // model the budget is 0 and nothing is drawn.
  for (const int pid : candidates) {
    if (pid >= 64 || model.injected >= model.budget) {
      break;
    }
    const std::uint64_t bit = std::uint64_t{1} << pid;
    if ((mask & bit) == 0 &&
        std::bernoulli_distribution(model.prob)(model.rng)) {
      mask |= bit;
      ++model.injected;
    }
  }
  return mask;
}

std::uint64_t CrashAdversary::crash_requests(std::span<const int> enabled) {
  // Compose with any fault model the inner policy carries. A crash plan
  // entry's clock is its victim's own grants; a victim already done, hung
  // or crashed is no candidate.
  return fire(crash_, PolicyDecorator::crash_requests(enabled), enabled,
              [this](int victim) {
                return grants_[static_cast<std::size_t>(victim)];
              });
}

bool CrashAdversary::wants_recovery() const {
  return !restart_.plan.empty() || restart_.random ||
         PolicyDecorator::wants_recovery();
}

std::uint64_t CrashAdversary::recovery_requests(std::span<const int> crashed) {
  // Compose with any restart model the inner policy carries. A restart plan
  // entry's clock is everybody's grants (its victim takes no steps while
  // crashed), and only a crashed victim is a candidate.
  return fire(restart_, PolicyDecorator::recovery_requests(crashed), crashed,
              [this](int /*victim*/) { return total_grants_; });
}

std::size_t RecordingPolicy::pick(std::span<const int> enabled,
                                  std::span<const Access> footprints) {
  const std::size_t idx = PolicyDecorator::pick(enabled, footprints);
  if (idx == kCut) {
    return idx;  // a cut is no decision: passed through, not journaled
  }
  journal_.push_back({Event::Kind::kGrant, enabled[idx],
                      static_cast<std::int64_t>(enabled.size())});
  return idx;
}

std::uint32_t RecordingPolicy::choose(std::uint32_t arity) {
  const std::uint32_t c = PolicyDecorator::choose(arity);
  if (c != kCut) {
    journal_.push_back({Event::Kind::kChoose, c, arity});
  }
  return c;
}

std::uint64_t RecordingPolicy::journal_faults(Event::Kind kind,
                                              std::uint64_t mask) {
  for (int pid = 0; pid < 64; ++pid) {
    if ((mask >> pid) & 1) {
      journal_.push_back({kind, pid, 0});
    }
  }
  return mask;
}

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
