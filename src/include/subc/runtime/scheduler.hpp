// Schedule policies: the adversary.
//
// A `SchedulePolicy` makes three kinds of adversarial decisions during a
// simulated execution:
//  * scheduling — which enabled process takes the next atomic step,
//  * object nondeterminism — the choice a nondeterministic base object makes
//    inside a step (e.g. which element of its value set an (n,k)-set-
//    consensus object returns), and
//  * fault injection — which processes crash and restart, and when
//    (`crash_requests`, `recovery_requests`; most policies have no fault
//    model and inherit the no-fault default — the crash-adversary
//    decorator in policy.hpp composes one over any policy, and every
//    decorator there forwards all hooks through `PolicyDecorator`).
// All three are adversarial in the papers' model, so one policy object
// supplies them all. The exhaustive explorer (explorer.hpp) enumerates every
// decision string; this header provides the round-robin, seeded-random,
// scripted and replay policies, and policy.hpp adds the PCT randomized-
// priority and crash adversaries. Policies are pure deciders: what gets
// *recorded* about a run is the separate TraceObserver layer (observer.hpp),
// and `run_one` (explorer.hpp) is the entry point that wires a world, a
// policy and an observer chain together.
//
// Scheduling decisions carry *access footprints*: alongside the enabled pid
// list, the runtime passes the footprint of each enabled process's pending
// step ({object, kind}, announced at its `sched_point`). Footprints are pure
// metadata — they never change what a step does, only let the explorer's
// partial-order reduction recognise commuting steps (docs/explorer.md).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <vector>

#include "subc/runtime/hashing.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// How a pending atomic step accesses its shared object. `kChoose` marks
/// steps that additionally resolve object nondeterminism via
/// `Context::choose` (set-consensus propose, set-election invoke); for
/// independence they behave like `kRmw`.
enum class AccessKind : std::uint8_t { kUnknown = 0, kRead, kWrite, kRmw, kChoose };

/// The access footprint of one pending atomic step: which shared object it
/// touches and how. `object == 0` means "unknown" — a step with no declared
/// footprint, conservatively treated as dependent with everything.
struct Access {
  std::uint32_t object = 0;
  AccessKind kind = AccessKind::kUnknown;
};

/// Mazurkiewicz independence of two steps, judged by footprint: steps on
/// distinct objects commute, and two reads of the same object commute.
/// Unknown footprints are dependent with everything (sound default).
[[nodiscard]] constexpr bool independent(Access a, Access b) noexcept {
  if (a.object == 0 || b.object == 0) {
    return false;
  }
  if (a.object != b.object) {
    return true;
  }
  return a.kind == AccessKind::kRead && b.kind == AccessKind::kRead;
}

/// Supplies adversarial decisions. `pick` selects an index into the enabled
/// set (never empty); `choose` resolves object nondeterminism with an
/// arbitrary arity; `crash_requests` injects failures.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;

  /// The one answer besides a valid option that `pick` and `choose` may
  /// give: stop the run here. The kernel grants no further step (after a
  /// `choose` it first finishes the current step with option 0) and
  /// returns a partial `RunResult` with `cut` set. The explorer's driver
  /// answers it for every subtree it abandons; forwarding policies pass it
  /// through unchanged.
  static constexpr std::uint32_t kCut = 0xFFFF'FFFFu;

  /// Returns an index into `enabled` (the pids currently able to step, in
  /// increasing pid order), or `kCut`. `footprints`, when non-empty, is
  /// index-aligned with `enabled` and holds each pending step's access
  /// footprint; policies that do not inspect footprints simply ignore it.
  virtual std::size_t pick(std::span<const int> enabled,
                           std::span<const Access> footprints = {}) = 0;

  /// Returns a value in [0, arity), or `kCut`. `arity >= 1`.
  virtual std::uint32_t choose(std::uint32_t arity) = 0;

  /// Fault injection: consulted by the kernel once per decision point,
  /// before `pick`, with the currently enabled pids. Returns a bitmask of
  /// pids to crash at this point (bit p = pid p; pids >= 64 cannot be
  /// targeted through this hook). Crashed pids are retired before the pick;
  /// crashing every enabled process simply ends the run. The default
  /// injects nothing — `CrashAdversary` (policy.hpp) composes a fault model
  /// over any policy.
  [[nodiscard]] virtual std::uint64_t crash_requests(
      std::span<const int> /*enabled*/) {
    return 0;
  }

  /// Crash-recovery: consulted by the kernel once per decision point,
  /// before `crash_requests`, with the currently *crashed* pids (increasing
  /// pid order) — but only when the policy declared the capability via
  /// `wants_recovery()` and at least one process is crashed. Returns a
  /// bitmask of pids to restart at this point (bit p = pid p; pids >= 64
  /// cannot be targeted). A restarted process re-enters its body from the
  /// top with fresh volatile state; durable object state persists
  /// (runtime.hpp `Durability`). The default injects nothing.
  [[nodiscard]] virtual std::uint64_t recovery_requests(
      std::span<const int> /*crashed*/) {
    return 0;
  }

  /// Recovery capability: when false (the default) the kernel never tracks
  /// crashed-pid sets or consults `recovery_requests`, so crash-stop worlds
  /// pay nothing and explore bit-identically to the pre-recovery kernel.
  [[nodiscard]] virtual bool wants_recovery() const { return false; }

  /// Called by `Runtime::run` before the first step of a world. Policies
  /// that keep per-world state (e.g. the replay policy's sleep sets) reset
  /// it here so one policy can soundly span several runtimes in one
  /// execution.
  virtual void begin_run() {}

  /// Stateful exploration capability: when true, the kernel accumulates an
  /// incremental world-state fingerprint and reports it through
  /// `on_state_fp` / `on_run_fp`. Off by default so non-stateful runs pay
  /// only one branch per kernel event for the whole machinery.
  [[nodiscard]] virtual bool wants_state_fp() const { return false; }

  /// Reported by the kernel at every scheduling decision point (before the
  /// crash branch point, so a cut covers the crash branching too), with the
  /// current world fingerprint. `valid` is false once any granted step made
  /// no fingerprint report (an unported object stepped): the execution's
  /// fingerprints are then meaningless and must drive no cuts.
  virtual void on_state_fp(std::uint64_t /*fp*/, bool /*valid*/) {}

  /// Reported by the kernel when a `Runtime::run` finishes, with the final
  /// world fingerprint. Lets a policy spanning several runtimes in one
  /// execution chain completed-runtime state into later probes.
  virtual void on_run_fp(std::uint64_t /*fp*/, bool /*valid*/) {}

  /// Reported by the kernel whenever a crash or a restart lands during a
  /// run, whoever asked for it. Decorators forward it to the policy they
  /// wrap; the explorer's driver uses it to stop reducing on that run.
  virtual void on_fault() {}

  /// True once the policy has stopped the run, i.e. it answers `kCut` to
  /// every further `pick`. The kernel asks only at a decision point where
  /// nobody is runnable and only crashed processes wait for a restart: no
  /// pick follows there to carry the cut. Decorators forward it.
  [[nodiscard]] virtual bool stopped() const { return false; }
};

/// Historical name for `SchedulePolicy`, kept so existing worlds and tests
/// read naturally; the two are the same type.
using ScheduleDriver = SchedulePolicy;

/// Cycles through processes in pid order; object choices always take
/// option 0. Deterministic; useful for smoke tests and benchmarks.
class RoundRobinDriver final : public SchedulePolicy {
 public:
  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;

 private:
  int last_pid_ = -1;
};

/// Uniformly random scheduling and object choices from a seeded PRNG.
/// Identical seeds replay identical executions (given a deterministic
/// world), so failures are reproducible from the seed alone.
class RandomDriver final : public SchedulePolicy {
 public:
  explicit RandomDriver(std::uint64_t seed) : rng_(seed) {}

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;

 private:
  std::mt19937_64 rng_;
};

/// Follows a scripted pid sequence; when the scripted pid is not enabled (or
/// the script is exhausted) falls back to the lowest enabled pid. Object
/// choices take option 0. Used to drive the hand-constructed executions in
/// the papers' proofs (e.g. the w1/w2/w3 scenario before Algorithm 5).
class ScriptedDriver final : public SchedulePolicy {
 public:
  explicit ScriptedDriver(std::vector<int> pids) : pids_(std::move(pids)) {}

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;

 private:
  std::vector<int> pids_;
  std::size_t pos_ = 0;
};

/// Thrown by `ReplayDriver` when the per-execution step-quota watchdog
/// (`set_step_quota`) trips: the execution has consumed more scheduling
/// decisions than any terminating schedule of the world should need, i.e.
/// it is livelocked or runaway. The explorer converts it into a structured
/// `StuckExecution` diagnostic instead of hanging. Unlike the driver's other
/// cuts this one is a throw, so that a livelocked run cannot carry on past
/// it; deliberately not derived from `std::exception` (like `FiberKilled`)
/// so that execution bodies catching `std::exception` cannot swallow it.
struct StuckCut {};

/// Replays a recorded decision prefix and extends it with first options;
/// records the arity of every decision point. This is the explorer's
/// workhorse (stateless model checking): see explorer.hpp.
///
/// Forced (arity-1) decisions are elided: they have exactly one outcome, so
/// recording them would only lengthen traces and slow backtracking. Traces
/// therefore contain only decisions with `arity >= 2`, and prefixes passed in
/// must use the same convention (any trace recorded by a ReplayDriver does).
///
/// With `set_reduction(true)` the driver additionally runs sleep-set
/// partial-order reduction over the access footprints the runtime supplies
/// to `pick`: scheduling options whose process is asleep (its pending step
/// provably commutes with an already-explored sibling branch) are skipped,
/// and partial executions with every enabled process asleep are cut
/// (`Cut::kSleep`). The skip metadata (`Decision::enabled`,
/// `Decision::sleep`, `Decision::explored`) is recorded in the trace so the
/// explorer's backtracking applies identical skips. With `set_source_sets`
/// as well, fresh scheduling decisions open a backtrack list holding only
/// the option taken, and the driver logs every granted step
/// (`set_step_log`) so the explorer can add the options that races call
/// for (docs/explorer.md).
///
/// Cuts are answers, not throws: the driver answers `kCut` at the decision
/// point where it abandons the execution and records why in `cut()`. Once
/// cut it stays cut for the rest of the execution, across `begin_run`: it
/// answers `kCut` to every `pick`, 0 to `choose`, `crash_requests` and
/// `recovery_requests`, and ignores `on_state_fp`. A cut raised outside
/// `pick` (stateful probe, crash or recovery decision) therefore takes
/// effect at the next `pick` — or, where nobody is runnable, through
/// `stopped()`.
class ReplayDriver final : public SchedulePolicy {
 public:
  /// Why the driver abandoned its execution.
  enum class Cut : std::uint8_t {
    kNone,      ///< not cut
    kSleep,     ///< every enabled process asleep: a redundant subtree
    kStateful,  ///< (state, sleep-set) pair already visited
    kPrune,     ///< the prune hook rejected a fresh decision
    kFrontier,  ///< a fresh decision would exceed the decision limit
  };

  /// Longest backtrack list a decision can hold. Scheduling decisions with
  /// more options keep full branching.
  static constexpr std::size_t kMaxListed = 16;

  struct Decision {
    std::uint32_t chosen = 0;
    std::uint32_t arity = 1;
    /// Scheduling decisions under reduction: bitmask of the enabled pids
    /// (option i = i-th set bit) and the sleep set inherited from the path
    /// above. Both 0 for object choices, for scheduling decisions recorded
    /// without reduction, and for any pid >= 64 (reduction disabled there).
    std::uint64_t enabled = 0;
    std::uint64_t sleep = 0;
    /// Fault decisions: `crash` marks a `crash_requests` branch point,
    /// `recover` a `recovery_requests` one. Option 0 is "no fault", option
    /// i >= 1 crashes (restarts) the i-th candidate victim, enabled (crashed)
    /// pids in increasing order. The flags travel with the trace, so replay
    /// re-derives the fault without knowing the recording run's budget.
    bool crash = false;
    bool recover = false;
    /// Source sets: the backtrack list, option indices in insertion order
    /// (the search visits them in that order). `listed == 0` means full
    /// branching: every awake option, in index order.
    std::uint8_t listed = 0;
    /// Listed decisions: pids of the options entered before `chosen`; with
    /// `sleep` they form the sleep set the chosen subtree inherits. (A
    /// full-branching decision has entered every option below `chosen`.)
    std::uint64_t explored = 0;
    std::array<std::uint8_t, kMaxListed> list{};
  };

  /// One granted step, as the source-set race analysis reads it.
  struct Step {
    /// The granted pid; -1 marks the start of a later Runtime's steps.
    std::int32_t pid = -1;
    /// Trace index of the decision that granted it; -1 when forced.
    std::int32_t decision = -1;
    Access access;
  };

  /// Prune hook: given the partial decision string ending at a candidate
  /// decision, return true to skip the entire subtree below it. Must be
  /// thread-safe: the parallel explorer invokes it concurrently from worker
  /// threads.
  using PruneFn = std::function<bool(std::span<const Decision>)>;

  ReplayDriver() = default;
  explicit ReplayDriver(std::vector<Decision> prefix)
      : trace_(std::move(prefix)), prefix_(trace_.size()) {}

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints = {}) override;
  std::uint32_t choose(std::uint32_t arity) override;
  std::uint64_t crash_requests(std::span<const int> enabled) override {
    return fault_due(crashes_, &Decision::crash)
               ? fault(crashes_, &Decision::crash, enabled)
               : 0;
  }
  std::uint64_t recovery_requests(std::span<const int> crashed) override {
    return fault_due(recoveries_, &Decision::recover)
               ? fault(recoveries_, &Decision::recover, crashed)
               : 0;
  }
  void begin_run() override {
    if (steps_log_ != nullptr) {
      steps_log_->push_back(Step{});  // later runtimes step after earlier
    }
    sleep_ = 0;
    crashes_.run = crashes_.floor = 0;
    recoveries_.run = recoveries_.floor = 0;
  }
  [[nodiscard]] bool wants_state_fp() const override {
    return visited_ != nullptr;
  }
  /// Recovery is live when fresh restarts may be injected (budget set) *or*
  /// the replayed prefix contains a recorded restart — a trace with
  /// recoveries must replay bit-identically even under a zero budget (the
  /// shrinker's probes rely on this).
  [[nodiscard]] bool wants_recovery() const override {
    return recoveries_.max > 0 ||
           std::any_of(trace_.begin(), trace_.end(),
                       [](const Decision& d) { return d.recover; });
  }
  void on_state_fp(std::uint64_t fp, bool valid) override;
  void on_run_fp(std::uint64_t fp, bool valid) override;
  void on_fault() override { faulted_ = true; }
  [[nodiscard]] bool stopped() const override { return cut_ != Cut::kNone; }

  /// Full decision string of the execution driven so far.
  [[nodiscard]] const std::vector<Decision>& trace() const noexcept {
    return trace_;
  }

  /// Moves the recorded decision string out; the driver is spent afterwards.
  /// Lets the explorer recycle the trace as the next iteration's prefix
  /// without copying (millions of executions, one vector).
  [[nodiscard]] std::vector<Decision> take_trace() noexcept {
    return std::move(trace_);
  }

  /// Fresh decisions that would grow the trace beyond `limit` entries cut
  /// the execution (`Cut::kFrontier`) instead of being recorded (replayed
  /// prefix entries are unaffected). Default: no limit.
  void set_decision_limit(std::size_t limit) noexcept { limit_ = limit; }

  /// Consults `prune` on every freshly recorded decision; a true return
  /// cuts the execution (`Cut::kPrune`). The pointee must outlive the
  /// driver. Pass nullptr (the default) to disable.
  void set_prune(const PruneFn* prune) noexcept { prune_ = prune; }

  /// Enables sleep-set partial-order reduction for fresh scheduling
  /// decisions. Off by default (raw enumeration).
  void set_reduction(bool on) noexcept { reduce_ = on; }

  /// Source sets on top of the sleep sets: a fresh scheduling decision with
  /// at most `kMaxListed` options and reduction metadata opens a backtrack
  /// list holding only its first awake option. Needs `set_reduction(true)`.
  void set_source_sets(bool on) noexcept { source_sets_ = on; }

  /// Logs every granted step into `log` (appended; the caller clears it),
  /// with a `Step{}` marker at each `begin_run`. Pass nullptr (the default)
  /// to disable.
  void set_step_log(std::vector<Step>* log) noexcept { steps_log_ = log; }

  /// Index into the step log of the first step the replayed prefix did not
  /// fix: the steps from here on ran for the first time at this point of
  /// the tree. The log's size when the prefix was never used up.
  [[nodiscard]] std::size_t fresh_from() const noexcept {
    return fresh_from_ != kUnset                   ? fresh_from_
           : prefix_ == 0 || steps_log_ == nullptr ? 0
                                                   : steps_log_->size();
  }

  /// True once a crash or restart landed in the execution (`on_fault`).
  [[nodiscard]] bool faulted() const noexcept { return faulted_; }

  /// Make crash failures (`f`) and crash-recovery (`r`) branch points, by
  /// one rule with a budget per kind: at every kernel decision point where
  /// fewer faults of the kind than its budget have landed in the current
  /// run, the tree forks on "no fault" versus faulting each candidate pid
  /// < 64: every enabled pid for a crash, every crashed pid (when there is
  /// one) for a restart. 0 (the default) disables fresh decisions of the
  /// kind; recorded ones in a replayed prefix are honored either way.
  void set_max_crashes(int f) noexcept { crashes_.max = f; }
  void set_max_recoveries(int r) noexcept { recoveries_.max = r; }

  /// Per-execution watchdog: after `quota` scheduling decisions (`pick`
  /// calls, replayed prefix included) the driver throws `StuckCut` — a
  /// livelocked or runaway schedule becomes a bounded, diagnosable event
  /// instead of a hang. 0 (the default) disables the quota.
  void set_step_quota(std::int64_t quota) noexcept { step_quota_ = quota; }

  /// Enables stateful exploration: at every *fresh* decision point (the
  /// replayed prefix never probes — restart-DFS revisits its own prefix
  /// states once per sibling, and cutting those would cut the search's own
  /// backbone) the kernel-reported world fingerprint is keyed with the
  /// current sleep set and checked against `set`; a hit cuts the execution
  /// (`Cut::kStateful`) at the next `pick`. The pointee must outlive the
  /// driver and may be shared across threads. Pass nullptr (the default)
  /// to disable.
  void set_stateful(detail::VisitedSet* set) noexcept { visited_ = set; }

  /// Scheduling options skipped by the reduction so far (each is a subtree
  /// the search proved redundant and never entered).
  [[nodiscard]] std::int64_t reduced() const noexcept { return reduced_; }

  /// Crashes landed over the driver's lifetime (all runs of the execution).
  [[nodiscard]] std::int64_t crashes() const noexcept { return crashes_.total; }

  /// Restarts landed over the driver's lifetime (all runs of the execution).
  [[nodiscard]] std::int64_t recoveries() const noexcept {
    return recoveries_.total;
  }

  /// Why the execution was abandoned; `Cut::kNone` while it runs on.
  [[nodiscard]] Cut cut() const noexcept { return cut_; }

 private:
  /// One fault kind's branching state: crashes or restarts.
  struct FaultBudget {
    int max = 0;             ///< fresh faults allowed per run
    int run = 0;             ///< faults landed in the current run
    std::int64_t total = 0;  ///< faults landed over the driver's lifetime
    /// Successive fault decisions at one kernel decision point enumerate
    /// victims in increasing pid order (faults at the same point commute,
    /// so unordered subsets would be explored twice). The floor is the pid
    /// after the last victim; any granted step resets it.
    int floor = 0;
  };

  /// The next object choice (`kind` null) or fault decision of `kind`, with
  /// `arity >= 2` options: replayed from the prefix, or else recorded fresh
  /// at option 0. `kCut` when a fresh one is cut.
  std::uint32_t decide(std::uint32_t arity, bool Decision::*kind);
  /// Whether the fault hook of `kind` decides here: not cut, and a replayed
  /// decision of this kind or, past the prefix, room in the run's budget.
  /// Inline, ahead of `fault`: the kernel asks before every grant.
  [[nodiscard]] bool fault_due(const FaultBudget& b,
                               bool Decision::*kind) const noexcept {
    return cut_ == Cut::kNone &&
           (pos_ < trace_.size() ? trace_[pos_].*kind : b.run < b.max);
  }
  /// The fault branch point behind `crash_requests` (`&Decision::crash`,
  /// the enabled pids) and `recovery_requests` (`&Decision::recover`, the
  /// crashed pids): the victim's bit, or 0 for "no fault".
  std::uint64_t fault(FaultBudget& budget, bool Decision::*kind,
                      std::span<const int> candidates);
  /// Marks where fresh steps begin once the last prefix decision is used.
  void note_prefix_used() noexcept {
    if (pos_ == trace_.size() && fresh_from_ == kUnset) {
      fresh_from_ = steps_log_ != nullptr ? steps_log_->size() : 0;
    }
  }
  /// Records `why` and returns the answer that stops the run.
  std::uint32_t raise_cut(Cut why) noexcept {
    cut_ = why;
    return kCut;
  }

  std::vector<Decision> trace_;
  std::size_t prefix_ = 0;  ///< decisions fixed by the constructor's prefix
  std::size_t pos_ = 0;
  Cut cut_ = Cut::kNone;
  std::size_t limit_ = static_cast<std::size_t>(-1);
  const PruneFn* prune_ = nullptr;
  bool reduce_ = false;
  bool source_sets_ = false;
  bool faulted_ = false;
  static constexpr std::size_t kUnset = static_cast<std::size_t>(-1);
  std::vector<Step>* steps_log_ = nullptr;
  std::size_t fresh_from_ = kUnset;
  std::uint64_t sleep_ = 0;
  std::int64_t reduced_ = 0;
  FaultBudget crashes_;
  FaultBudget recoveries_;
  std::int64_t step_quota_ = 0;
  std::int64_t steps_ = 0;
  detail::VisitedSet* visited_ = nullptr;
  /// Chained final fingerprints of completed runtimes in this execution,
  /// so probes in a later runtime are keyed on the whole execution's state.
  std::uint64_t base_fp_ = 0;
  bool base_fp_valid_ = true;
};

/// Renders a decision string for diagnostics ("2/3 0/2 1/4 ...").
std::string format_trace(std::span<const ReplayDriver::Decision> trace);

}  // namespace subc
