// Trace observers: the recording side of the runtime stack.
//
// A `SchedulePolicy` (scheduler.hpp, policy.hpp) decides what a run does;
// a `TraceObserver` records what happened. The kernel streams an event for
// every scheduler grant, object choice, crash and run boundary; histories
// (history.hpp) stream invocation/response events for the high-level
// operations they record; and `run_one` (explorer.hpp) reports violations.
// Observers never influence execution — attaching or removing one cannot
// change a verdict, an execution count, or a decision trace.
//
// Observers compose: `ObserverChain` fans every event out to a list of
// sinks, so a single run can simultaneously feed the access counters, a
// history mirror and the JSONL trace exporter (checking/trace_jsonl.hpp).
//
// Wiring: worlds built by an `ExecutionBody` construct their own `Runtime`
// inside the body, so observers reach them through a thread-local default —
// `run_one` installs its observer with `ScopedObserver`, and every Runtime
// constructed on that thread while it is alive picks the observer up. A
// Runtime built outside `run_one` can be wired explicitly with
// `set_observer`.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "subc/runtime/scheduler.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// One scheduler grant: process `pid` executed the atomic step it announced
/// with footprint `access` (unknown when the step declared none), as grant
/// number `step` (0-based) of its run.
struct StepEvent {
  int pid = -1;
  std::int64_t step = 0;
  Access access;
};

/// Event sink for one or more simulated runs. Every hook has an empty
/// default so observers override only what they record. Observers attached
/// to parallel searches (Explorer::Options::observer) receive events from
/// several worker threads concurrently and must synchronize internally.
class TraceObserver {
 public:
  virtual ~TraceObserver() = default;

  /// A world starts running (`Runtime::run`) with `num_processes` processes.
  virtual void on_run_begin(int /*num_processes*/) {}

  /// One atomic step was granted (emitted just before the step executes).
  virtual void on_step(const StepEvent& /*event*/) {}

  /// Process `pid` resolved object nondeterminism: `chosen` out of `arity`.
  virtual void on_choose(int /*pid*/, std::uint32_t /*arity*/,
                         std::uint32_t /*chosen*/) {}

  /// Process `pid` crashed after `step` scheduler grants had been issued.
  virtual void on_crash(int /*pid*/, std::int64_t /*step*/) {}

  /// Process `pid` restarted (crash-recovery) after `step` scheduler grants
  /// had been issued: a fresh incarnation re-enters the body from the top.
  virtual void on_recover(int /*pid*/, std::int64_t /*step*/) {}

  /// A high-level operation opened in a History wired to this observer.
  /// `handle` is the History handle; `time` its logical invocation time.
  virtual void on_invoke(int /*pid*/, std::size_t /*handle*/,
                         std::int64_t /*time*/,
                         std::span<const Value> /*op*/) {}

  /// A high-level operation completed. `time` is its logical response time.
  virtual void on_respond(int /*pid*/, std::size_t /*handle*/,
                          std::int64_t /*time*/,
                          std::span<const Value> /*response*/) {}

  /// An execution body threw (`run_one` reports the message here before
  /// returning it).
  virtual void on_violation(std::string_view /*message*/) {}

  /// An execution tripped the explorer's step-quota watchdog and was
  /// recorded as stuck (livelocked/runaway schedule; see
  /// `Explorer::Options::step_quota`). Diagnostic only — a stuck execution
  /// is not a violation and does not stop the search.
  virtual void on_stuck(std::string_view /*message*/) {}

  /// The world reached quiescence (or its step bound) and `Runtime::run`
  /// is about to return.
  virtual void on_run_end(std::int64_t /*total_steps*/, bool /*quiescent*/) {}

  /// The search skipped `subtrees` redundant subtrees since the previous
  /// event (partial-order reduction / pruning metadata; emitted by the
  /// explorer, not by individual runs). Negative when source sets enter
  /// options they had counted as never entered; the running sum equals
  /// `Result::reduced_subtrees`. Telemetry only.
  virtual void on_reduced(std::int64_t /*subtrees*/) {}

  /// Stateful exploration (Explorer::Options::stateful) cut `cuts` subtrees
  /// whose (world-state, sleep-set) fingerprint had already been visited.
  /// Emitted by the explorer; telemetry only.
  virtual void on_stateful_cut(std::int64_t /*cuts*/) {}
};

/// Fans every event out to a list of observers, in registration order. The
/// chain does not own its sinks; they must outlive it.
class ObserverChain final : public TraceObserver {
 public:
  ObserverChain() = default;
  explicit ObserverChain(std::vector<TraceObserver*> sinks)
      : sinks_(std::move(sinks)) {}

  void add(TraceObserver& sink) { sinks_.push_back(&sink); }

  void on_run_begin(int num_processes) override;
  void on_step(const StepEvent& event) override;
  void on_choose(int pid, std::uint32_t arity, std::uint32_t chosen) override;
  void on_crash(int pid, std::int64_t step) override;
  void on_recover(int pid, std::int64_t step) override;
  void on_invoke(int pid, std::size_t handle, std::int64_t time,
                 std::span<const Value> op) override;
  void on_respond(int pid, std::size_t handle, std::int64_t time,
                  std::span<const Value> response) override;
  void on_violation(std::string_view message) override;
  void on_stuck(std::string_view message) override;
  void on_run_end(std::int64_t total_steps, bool quiescent) override;
  void on_reduced(std::int64_t subtrees) override;
  void on_stateful_cut(std::int64_t cuts) override;

 private:
  std::vector<TraceObserver*> sinks_;
};

/// Per-object / per-kind access telemetry: how many steps each shared
/// object absorbed and how (read/write/rmw/choose), plus run, choose, crash
/// and violation tallies. Thread-safe — one counter instance can observe a
/// whole parallel exploration and benches export its totals into
/// BENCH_<ID>.json.
class AccessCounters final : public TraceObserver {
 public:
  void on_run_begin(int num_processes) override;
  void on_step(const StepEvent& event) override;
  void on_choose(int pid, std::uint32_t arity, std::uint32_t chosen) override;
  void on_crash(int pid, std::int64_t step) override;
  void on_recover(int pid, std::int64_t step) override;
  void on_invoke(int pid, std::size_t handle, std::int64_t time,
                 std::span<const Value> op) override;
  void on_respond(int pid, std::size_t handle, std::int64_t time,
                  std::span<const Value> response) override;
  void on_violation(std::string_view message) override;
  void on_stuck(std::string_view message) override;

  [[nodiscard]] std::int64_t runs() const;
  [[nodiscard]] std::int64_t steps() const;
  /// Steps whose footprint had the given kind (kUnknown for footprint-less).
  [[nodiscard]] std::int64_t steps_of_kind(AccessKind kind) const;
  [[nodiscard]] std::int64_t chooses() const;
  [[nodiscard]] std::int64_t crashes() const;
  [[nodiscard]] std::int64_t recoveries() const;
  [[nodiscard]] std::int64_t invocations() const;
  [[nodiscard]] std::int64_t responses() const;
  [[nodiscard]] std::int64_t violations() const;
  /// Executions reported stuck by the step-quota watchdog (on_stuck events).
  [[nodiscard]] std::int64_t stuck() const;
  /// Distinct object ids seen in footprints (object 0 = unknown excluded).
  [[nodiscard]] std::int64_t objects_touched() const;
  /// Steps charged to object id `object` across all observed runs.
  [[nodiscard]] std::int64_t steps_on_object(std::uint32_t object) const;

 private:
  mutable std::mutex mu_;
  std::int64_t runs_ = 0;
  std::int64_t steps_ = 0;
  std::int64_t by_kind_[5] = {0, 0, 0, 0, 0};
  std::int64_t chooses_ = 0;
  std::int64_t crashes_ = 0;
  std::int64_t recoveries_ = 0;
  std::int64_t invocations_ = 0;
  std::int64_t responses_ = 0;
  std::int64_t violations_ = 0;
  std::int64_t stuck_ = 0;
  std::vector<std::int64_t> per_object_;  // index = object id
};

class History;

/// Mirrors invoke/respond events into an owned History — the observer-side
/// history recorder. A source History wired to it (History::set_sink)
/// produces a mirror whose dump() is identical to the source's, so checkers
/// can consume recorded operations without touching the world's own
/// plumbing. Not thread-safe; use one recorder per worker.
class HistoryRecorder final : public TraceObserver {
 public:
  HistoryRecorder();
  ~HistoryRecorder() override;

  void on_invoke(int pid, std::size_t handle, std::int64_t time,
                 std::span<const Value> op) override;
  void on_respond(int pid, std::size_t handle, std::int64_t time,
                  std::span<const Value> response) override;

  [[nodiscard]] const History& history() const noexcept { return *history_; }
  /// Clears the mirror (e.g. between runs of a sweep).
  void reset();

 private:
  std::unique_ptr<History> history_;
  /// Source handle -> mirror handle (sources interleave handles freely).
  std::vector<std::size_t> handle_map_;
};

/// Periodic progress telemetry for long-running searches: counts completed
/// executions (runs reaching on_run_end plus violating runs, which throw
/// before run end but still count as executions), reduction skips and
/// violations, and once `period_seconds` of
/// wall clock have passed since the previous line prints one
/// `[progress] execs=... exec/s=... reduced=... stateful=... violations=...`
/// line to `out` (stderr by default). Verdict-neutral by construction — a pure
/// sink, never consulted by the search — and off by default: nothing
/// attaches one unless a bench or caller wires it in explicitly
/// (Explorer::Options::observer or an ObserverChain). Thread-safe; benches
/// stamp `snapshot()` into BENCH_<ID>.json.
class ProgressTicker final : public TraceObserver {
 public:
  struct Snapshot {
    std::int64_t executions = 0;
    /// Runs that began (on_run_begin events): every world built, whether
    /// it finished as an execution or was cut. runs / executions is the
    /// worlds built per execution.
    std::int64_t runs = 0;
    std::int64_t reduced = 0;
    std::int64_t violations = 0;
    /// Subtrees skipped by stateful exploration (on_stateful_cut events).
    std::int64_t stateful_cuts = 0;
    double elapsed_seconds = 0.0;
    double executions_per_sec = 0.0;
    /// (executions + reduced) / executions; 1.0 when nothing was reduced
    /// (or nothing ran). `reduced` counts the options never entered at the
    /// decisions the search visited, each of which leads to at least one
    /// raw execution, so this bounds raw over reduced executions from
    /// below. It is not the work saved: it falls as source sets visit
    /// fewer decisions. `runs` / `executions` follows the work.
    double reduction_factor = 1.0;
  };

  explicit ProgressTicker(double period_seconds = 2.0,
                          std::ostream* out = nullptr);

  void on_run_begin(int num_processes) override;
  void on_run_end(std::int64_t total_steps, bool quiescent) override;
  /// Counts the violating execution too, unless its runtime already ended
  /// (and was counted) on this thread: the body's post-run check threw.
  void on_violation(std::string_view message) override;
  void on_reduced(std::int64_t subtrees) override;
  void on_stateful_cut(std::int64_t cuts) override;

  [[nodiscard]] Snapshot snapshot() const;

 private:
  /// Emits a progress line when the period has elapsed. Caller holds mu_.
  void maybe_tick_locked();

  mutable std::mutex mu_;
  double period_seconds_;
  std::ostream* out_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_tick_;
  std::int64_t executions_ = 0;
  std::int64_t runs_ = 0;
  std::int64_t reduced_ = 0;
  std::int64_t violations_ = 0;
  std::int64_t stateful_cuts_ = 0;
};

/// Collects violation messages (on_violation events) in arrival order.
/// Thread-safe.
class ViolationCollector final : public TraceObserver {
 public:
  void on_violation(std::string_view message) override;

  [[nodiscard]] std::vector<std::string> messages() const;
  [[nodiscard]] std::int64_t count() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

/// The observer newly constructed Runtimes (and anything else consulting
/// this default) pick up on the current thread; nullptr when none is
/// installed. `run_one` installs its observer through `ScopedObserver`.
[[nodiscard]] TraceObserver* thread_default_observer() noexcept;

/// RAII installer for the thread-default observer: pushes `obs` (may be
/// nullptr to mask an outer scope) on construction, restores the previous
/// default on destruction. Scopes nest.
class ScopedObserver {
 public:
  explicit ScopedObserver(TraceObserver* obs);
  ~ScopedObserver();

  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;

 private:
  TraceObserver* previous_;
};

}  // namespace subc
