// Adversarial schedule policies beyond the basics in scheduler.hpp.
//
//  * `PctPolicy` — the randomized-priority scheduler of Burckhardt et al.
//    ("A Randomized Scheduler with Probabilistic Guarantees of Finding
//    Bugs", ASPLOS 2010). For a run of length at most k with at most n
//    processes and a bug of depth d, one seeded run finds the bug with
//    probability >= 1/(n * k^(d-1)) — far better than uniform random
//    scheduling at flushing rare interleavings, which needs the adversary
//    to win a coin flip at *every* step rather than at d-1 of them.
//  * `DelayBoundedPolicy` — the delay-bounded scheduler of Emmi, Qadeer
//    and Rakamarić ("Delay-Bounded Scheduling", POPL 2011): a deterministic
//    round-robin base schedule perturbed by at most d adversarial delays,
//    each of which skips the process the base schedule would have run.
//    The schedule space grows polynomially in d, so small delay budgets
//    cover "almost-deterministic" bug patterns cheaply.
//  * `PolicyDecorator` — the base of every decorator: it forwards all
//    `SchedulePolicy` hooks to the wrapped policy, so a decorator overrides
//    only what it adds and drops nothing by omission.
//  * `CrashAdversary` — a decorator composing a crash-failure model over
//    any policy: up to f processes die at adversary-chosen points, either
//    from an explicit plan ("kill pid 2 after its 5th step") or at seeded-
//    random decision points, and may restart by the same two models.
//    Replaces the one-off crash harness that tests previously hand-rolled
//    against the kernel.
//  * `RecordingPolicy` — a transparent decorator journaling every decision
//    (grants, object choices, crashes, restarts) so two runs can be
//    compared for bit-identical behaviour; this is how the
//    seed-determinism tests pin RandomDriver and PctPolicy.
//
// docs/adversaries.md catalogues every policy with its guarantees.
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "subc/runtime/scheduler.hpp"

namespace subc {

/// PCT: each process gets a random distinct priority; the highest-priority
/// enabled process always runs. At `depth - 1` step indices drawn uniformly
/// from [0, horizon), the currently running process's priority drops below
/// every initial priority — those are the "priority change points" that give
/// the depth-d probabilistic guarantee. Object choices are uniform from the
/// same seeded PRNG. Fully deterministic given (seed, depth, horizon);
/// `begin_run` re-derives everything from the seed, so one policy object
/// replays the identical schedule across consecutive runs.
class PctPolicy final : public SchedulePolicy {
 public:
  /// `depth >= 1` (d=1 is pure priority scheduling, no change points);
  /// `horizon` is the assumed maximum run length k used to place change
  /// points — runs longer than `horizon` see no further changes.
  PctPolicy(std::uint64_t seed, int depth, std::int64_t horizon);

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;
  void begin_run() override;

 private:
  [[nodiscard]] std::int64_t priority_of(int pid);

  std::uint64_t seed_;
  int depth_;
  std::int64_t horizon_;
  std::mt19937_64 rng_;
  /// pid -> priority; higher runs first. Initial priorities are drawn
  /// lazily (the policy does not know the process count up front) from
  /// [depth, 2^62); change point i lowers the running process to i.
  std::vector<std::int64_t> priorities_;
  std::vector<std::int64_t> change_points_;  ///< sorted step indices
  std::int64_t step_ = 0;
  int next_change_ = 0;
};

/// Delay-bounded scheduling (Emmi et al., POPL 2011): the base schedule is
/// round-robin over pids (the enabled process cyclically after the last
/// granted one), and the adversary holds a budget of `delays` delay
/// operations. Each delay fires at a seeded-random global step index in
/// [0, horizon) and skips the process the base schedule was about to grant,
/// advancing to the next enabled one in cyclic order (several delays can
/// land on the same step, skipping several processes). With `delays == 0`
/// this is exactly round-robin; every extra unit of budget multiplies the
/// schedule space by O(horizon), so coverage grows polynomially rather than
/// exponentially — the sweet spot between `RoundRobinDriver` determinism and
/// PCT. Object choices are uniform from the same seeded PRNG. Fully
/// deterministic given (seed, delays, horizon); `begin_run` re-derives
/// everything from the seed, so one policy object replays the identical
/// schedule across consecutive runs.
class DelayBoundedPolicy final : public SchedulePolicy {
 public:
  /// `delays >= 0`; `horizon >= 1` is the assumed maximum run length used
  /// to place delay points — runs longer than `horizon` see no further
  /// delays.
  DelayBoundedPolicy(std::uint64_t seed, int delays, std::int64_t horizon);

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;
  void begin_run() override;

  /// Delays spent in the current (or last) run; <= the `delays` budget.
  [[nodiscard]] int delays_used() const noexcept { return delays_used_; }

 private:
  std::uint64_t seed_;
  int delays_;
  std::int64_t horizon_;
  std::mt19937_64 rng_;
  std::vector<std::int64_t> delay_points_;  ///< sorted step indices
  std::size_t next_delay_ = 0;
  std::int64_t step_ = 0;
  int last_pid_ = -1;  ///< pid granted the previous step (round-robin state)
  int delays_used_ = 0;
};

/// Forwards every `SchedulePolicy` hook to the policy it wraps. Decorators
/// derive from it and override only what they add (calling the base for the
/// inner answer), so no hook is dropped by omission.
class PolicyDecorator : public SchedulePolicy {
 public:
  explicit PolicyDecorator(SchedulePolicy& inner) : inner_(&inner) {}

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override {
    return inner_->pick(enabled, footprints);
  }
  std::uint32_t choose(std::uint32_t arity) override {
    return inner_->choose(arity);
  }
  std::uint64_t crash_requests(std::span<const int> enabled) override {
    return inner_->crash_requests(enabled);
  }
  std::uint64_t recovery_requests(std::span<const int> crashed) override {
    return inner_->recovery_requests(crashed);
  }
  bool wants_recovery() const override { return inner_->wants_recovery(); }
  void begin_run() override { inner_->begin_run(); }
  bool wants_state_fp() const override { return inner_->wants_state_fp(); }
  void on_state_fp(std::uint64_t fp, bool valid) override {
    inner_->on_state_fp(fp, valid);
  }
  void on_run_fp(std::uint64_t fp, bool valid) override {
    inner_->on_run_fp(fp, valid);
  }
  void on_fault() override { inner_->on_fault(); }
  bool stopped() const override { return inner_->stopped(); }

 private:
  SchedulePolicy* inner_;
};

/// Crash-failure adversary over an arbitrary inner policy. Every hook is
/// forwarded (`PolicyDecorator`; a `kCut` answer passes through); the
/// decorator adds to `crash_requests` (injecting at most `f` crashes per
/// run) and, when a restart model is attached, `recovery_requests`
/// (restarting crashed processes at adversary-chosen later points).
///
/// Two fault models:
///  * a targeted plan — `CrashPoint{victim, after_steps}` kills `victim`
///    once it has been granted `after_steps` steps (the decorator counts
///    grants itself by watching which pid its forwarded `pick` selects);
///  * seeded random — at every decision point each enabled process is
///    killed with probability `crash_prob`, until `f` crashes have landed.
/// The two compose: plan entries fire first, random crashes use whatever
/// budget remains.
///
/// The restart model mirrors the crash model:
///  * a targeted restart plan — `RecoveryPoint{victim, after_steps}`
///    restarts `victim` once the *global* grant count has reached
///    `after_steps` (the victim itself takes no steps while crashed, so the
///    trigger counts everybody's grants) and the victim is actually
///    crashed;
///  * seeded random — each crashed process restarts with probability
///    `recover_prob` at each decision point, until `max_recoveries` have
///    landed (set via `set_random_recovery`).
///
/// Stateful search is off under it (`wants_state_fp` is false): its grant
/// counts, fired plan entries and PRNG streams decide future faults but are
/// not in the world fingerprint, so a visited-set cut would be unsound.
class CrashAdversary final : public PolicyDecorator {
 public:
  struct CrashPoint {
    int victim = -1;
    std::int64_t after_steps = 0;  ///< crash once victim has taken this many
  };

  /// A planned restart: once the global grant count reaches `after_steps`
  /// and `victim` is crashed, request its recovery. An entry whose victim
  /// never crashes simply stays armed and never fires.
  struct RecoveryPoint {
    int victim = -1;
    std::int64_t after_steps = 0;  ///< fire once this many total grants
  };

  /// Plan-only adversary: crashes exactly the planned points (bounded by f =
  /// plan size). The plan is validated up front — a victim outside [0, 64),
  /// a negative `after_steps`, or a duplicate victim raises `SimError`
  /// naming the offending entry.
  CrashAdversary(SchedulePolicy& inner, std::vector<CrashPoint> plan);

  /// Plan-only adversary with an explicit resilience bound: as above, and
  /// additionally rejects plans with more than `f` entries (a t-resilient
  /// claim is only exercised faithfully when the adversary stays within the
  /// model's crash budget).
  CrashAdversary(SchedulePolicy& inner, std::vector<CrashPoint> plan, int f);

  /// Random adversary: up to `f` crashes, each enabled process dying with
  /// probability `crash_prob` at each decision point.
  CrashAdversary(SchedulePolicy& inner, std::uint64_t seed, int f,
                 double crash_prob);

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint64_t crash_requests(std::span<const int> enabled) override;
  std::uint64_t recovery_requests(std::span<const int> crashed) override;
  [[nodiscard]] bool wants_recovery() const override;
  void begin_run() override;
  /// False whatever the inner policy wants: see the class comment.
  [[nodiscard]] bool wants_state_fp() const override { return false; }

  /// Attaches a targeted restart plan. Validated with the same rigor as the
  /// crash plan: a victim outside [0, 64), a negative `after_steps`, or a
  /// duplicate victim raises `SimError` naming the offending entry.
  void set_recovery_plan(std::vector<RecoveryPoint> plan);

  /// Attaches the seeded-random restart model: each crashed process
  /// restarts with probability `recover_prob` at each decision point, until
  /// `max_recoveries` restarts have landed. `max_recoveries >= 0`;
  /// `recover_prob` in [0, 1]. Draws from the adversary's own PRNG stream
  /// (seeded by `seed`), independent of the crash stream.
  void set_random_recovery(std::uint64_t seed, int max_recoveries,
                           double recover_prob);

  /// Crashes injected in the current (or last) run.
  [[nodiscard]] int crashes_injected() const noexcept {
    return crash_.injected;
  }

  /// Recoveries injected in the current (or last) run.
  [[nodiscard]] int recoveries_injected() const noexcept {
    return restart_.injected;
  }

 private:
  /// One fault kind's model, crashes or restarts: the targeted plan and the
  /// seeded random model, with what they injected in the current run.
  struct FaultModel {
    struct Entry {
      int victim;
      std::int64_t after_steps;
      bool fired;
    };
    std::vector<Entry> plan;
    std::uint64_t seed = 0;
    std::mt19937_64 rng;
    int budget = 0;  ///< random faults land while fewer have (f, restarts)
    double prob = 0.0;
    bool random = false;
    int injected = 0;

    /// Attaches the random model; a negative budget or a probability
    /// outside [0, 1] throws `SimError` naming the argument.
    void set_random(std::uint64_t seed, int budget, double prob,
                    const char* budget_name, const char* prob_name);
    void begin_run();  ///< re-arms the plan, reseeds the random model
  };

  /// Adds to `mask` the armed plan entries of `model` whose victim is among
  /// `candidates` and whose `clock(victim)` reached `after_steps`, then the
  /// random model's draws over the candidates not yet in `mask`.
  template <class Clock>
  std::uint64_t fire(FaultModel& model, std::uint64_t mask,
                     std::span<const int> candidates, Clock clock);

  /// pid -> steps granted so far; plan victims are below 64.
  std::array<std::int64_t, 64> grants_{};
  std::int64_t total_grants_ = 0;     ///< all grants (recovery plan clock)
  FaultModel crash_;
  FaultModel restart_;
};

/// Transparent decorator journaling every decision the inner policy makes.
/// Attaching it never changes behaviour, stateful search included (every
/// hook is forwarded, `PolicyDecorator`); `journal()` is the evidence. Used
/// by the seed-determinism tests ("same seed => bit-identical decisions").
/// A `kCut` answer is passed through and not journaled.
class RecordingPolicy final : public PolicyDecorator {
 public:
  struct Event {
    enum class Kind : std::uint8_t { kGrant, kChoose, kCrash, kRecover };
    Kind kind = Kind::kGrant;
    /// kGrant: the granted pid. kChoose: the chosen option. kCrash: the
    /// crashed pid. kRecover: the recovered pid.
    std::int64_t a = 0;
    /// kGrant: number of enabled pids. kChoose: the arity. kCrash/kRecover:
    /// 0.
    std::int64_t b = 0;

    friend bool operator==(const Event&, const Event&) = default;
  };

  using PolicyDecorator::PolicyDecorator;

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;
  std::uint64_t crash_requests(std::span<const int> enabled) override {
    return journal_faults(Event::Kind::kCrash,
                          PolicyDecorator::crash_requests(enabled));
  }
  std::uint64_t recovery_requests(std::span<const int> crashed) override {
    return journal_faults(Event::Kind::kRecover,
                          PolicyDecorator::recovery_requests(crashed));
  }

  [[nodiscard]] const std::vector<Event>& journal() const noexcept {
    return journal_;
  }
  /// Clears the journal (e.g. between the two runs of a determinism test).
  /// Deliberately not done by `begin_run`: one execution body may drive
  /// several consecutive runtimes, and the journal must span them all.
  void reset() { journal_.clear(); }
  /// Renders the journal as one line ("g0/3 c1/2 x2 r2 ...") for
  /// diagnostics and golden comparisons.
  [[nodiscard]] std::string format_journal() const;

 private:
  /// Journals one `kind` event per pid in `mask`; returns `mask`.
  std::uint64_t journal_faults(Event::Kind kind, std::uint64_t mask);

  std::vector<Event> journal_;
};

}  // namespace subc
