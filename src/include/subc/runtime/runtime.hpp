// The asynchronous shared-memory simulation kernel.
//
// A `Runtime` owns a set of simulated processes and drives them one atomic
// step at a time under the control of a `SchedulePolicy`. Shared objects
// (src/objects/) mark the boundary of each atomic operation by calling
// `Context::sched_point()` immediately before the operation body; since
// exactly one process runs at a time, the body executes atomically and the
// interleaving granularity is exactly one shared-memory step, as in the
// papers' model (DESIGN.md §3).
//
// Two execution engines host processes, freely mixed within one world
// (docs/explorer.md "Execution engines"):
//  * fibers (Engine::kFiber, the general form) — the body is an ordinary
//    function running on a private stack; `sched_point` suspends it with a
//    userspace context switch;
//  * stepped (Engine::kStepped) — the body is an explicit resumable state
//    machine (runtime/stepper.hpp) whose suspension points return control to
//    the kernel by plain function return, paying no stack switch and no
//    fiber-stack allocation. State blocks are tiny and arena-carved.
// Both engines announce footprints, honor crash/hang semantics, and drive
// the schedule policy identically, so a world produces bit-identical traces
// and explorer verdicts whichever engine hosts its processes
// (tests/equivalence_pin_test.cpp).
//
// The kernel sits between two orthogonal layers: the policy (scheduler.hpp,
// policy.hpp) *decides* — which process steps, what nondeterministic objects
// return, who crashes — and the observer (observer.hpp) *records* — one
// event per grant, choice, crash and run boundary. Neither layer can see or
// influence the other except through the kernel.
//
// Progress/termination semantics:
//  * `done`    — the process function returned.
//  * `crashed` — the adversary stopped scheduling the process (models a
//                non-participating or failed process).
//  * `hung`    — the process invoked an operation that "hangs the system in
//                a manner that cannot be detected" (set-consensus objects
//                past their n-th propose, illegal 1sWRN reuse).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "subc/runtime/arena.hpp"
#include "subc/runtime/scheduler.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

class Runtime;
class Fiber;
class StepContext;
class TraceObserver;

/// Kernel-assigned identity of one shared object, used only for access
/// footprints (scheduler.hpp). Ids are assigned lazily — per runtime, in
/// first-`sched_point` order — so they are deterministic given the decision
/// prefix and recorded traces replay with identical footprints.
///
/// Copying an object creates a *distinct* object (the copy starts with no
/// id; e.g. RegisterArray stamps elements from a prototype register), while
/// moving preserves identity (containers may relocate an object mid-run).
/// Id collisions across runtimes sharing one driver only ever merge two
/// objects' footprints, i.e. add dependence — sound for the reduction.
class ObjectId {
 public:
  ObjectId() = default;
  ObjectId(const ObjectId& /*other*/) noexcept {}
  ObjectId& operator=(const ObjectId& /*other*/) noexcept { return *this; }
  ObjectId(ObjectId&& other) noexcept : id_(other.id_) { other.id_ = 0; }
  ObjectId& operator=(ObjectId&& other) noexcept {
    id_ = other.id_;
    other.id_ = 0;
    return *this;
  }

 private:
  friend class Context;
  friend class StepContext;
  friend class Runtime;
  mutable std::uint32_t id_ = 0;  // 0 = not yet assigned
};

/// Whether a shared object's state survives a crash event (crash-recovery
/// exploration, docs/adversaries.md). `kDurable` (the default everywhere)
/// models persistent memory: state is untouched by crashes, which is also
/// exactly the crash-*stop* behavior every pre-recovery world had.
/// `kVolatile` models state lost in the crash: the object registers a reset
/// hook with the runtime on first use, and every crash event reverts it to
/// its initial value (re-publishing the reset state hash into the world
/// fingerprint so stateful cuts stay sound). A volatile object must not be
/// relocated after its first operation — the hook captures its address.
enum class Durability : std::uint8_t { kDurable, kVolatile };

/// Per-process handle passed to process functions; the only way process code
/// interacts with the kernel.
class Context {
 public:
  /// This process's identifier (0-based, dense).
  [[nodiscard]] int pid() const noexcept { return pid_; }

  /// Marks the boundary of the next atomic operation: suspends the process
  /// until the scheduler grants it a step. Called by shared objects, not by
  /// algorithm code. This overload declares no footprint — the pending step
  /// is treated as dependent with everything (always sound).
  void sched_point();

  /// As above, additionally declaring the pending step's access footprint:
  /// it touches `obj` (assigning its id on first use) as a `kind` access.
  /// Footprints are pure metadata consumed by the explorer's partial-order
  /// reduction; they never alter execution semantics (docs/MODEL.md).
  void sched_point(const ObjectId& obj, AccessKind kind);

  /// Resolves object nondeterminism adversarially: returns a driver-chosen
  /// value in [0, arity). Must be called inside an atomic step.
  std::uint32_t choose(std::uint32_t arity);

  /// Records this process's task output. At most one decision per process.
  void decide(Value v);

  /// Hangs the process undetectably: it takes no further steps and is not
  /// reported as done. Never returns (unwinds when the world is torn down).
  [[noreturn]] void hang();

  /// True when the driver asked for world-state fingerprints (stateful
  /// exploration). Objects use it to skip state-hash computation — and the
  /// report calls below — on the non-stateful hot path.
  [[nodiscard]] bool fingerprinting() const noexcept;

  /// Fingerprint reports, called by ported objects inside the granted step
  /// (no-ops unless `fingerprinting()`). `observe_fp` folds a value this
  /// process observed (a read result, an rmw return) into its running
  /// hash; `commit_fp` publishes `obj`'s post-commit state hash into the
  /// world fingerprint. A granted step that makes *neither* report poisons
  /// the fingerprint for the rest of the execution — the explorer then
  /// takes no stateful cuts on it (sound degradation for unported objects).
  void observe_fp(std::uint64_t v);
  void commit_fp(const ObjectId& obj, std::uint64_t state_hash);

  /// The owning runtime (for algorithm helpers that need global info).
  [[nodiscard]] Runtime& runtime() const noexcept { return *runtime_; }

 private:
  friend class Runtime;
  Context(Runtime* rt, int pid) : runtime_(rt), pid_(pid) {}

  Runtime* runtime_;
  int pid_;
};

/// Lifecycle state of a simulated process.
enum class ProcState : std::uint8_t { kRunning, kDone, kHung, kCrashed };

/// Returns a short name ("running", "done", ...).
std::string to_string(ProcState s);

/// A process body. Runs on its own fiber; communicates only through shared
/// objects constructed against the same runtime.
using ProcessFn = std::function<void(Context&)>;

/// Execution engine hosting a simulated process (see the header comment).
enum class Engine : std::uint8_t { kFiber, kStepped };

/// Per-process handle passed to stepped process bodies: the stepped-engine
/// counterpart of `Context`. The `SUBC_STEP_*` macro layer
/// (runtime/stepper.hpp) calls `resume_point`/`suspend`/`finish`; body code
/// between step points uses `pid`/`choose`/`decide` exactly like fiber code
/// uses `Context`. `hang`/`hung` implement the undetectable-hang convention
/// without fibers: a hangable stepped operation marks the process hung and
/// its caller must return from `step` immediately (`SUBC_STEP_CALL`).
class StepContext {
 public:
  /// This process's identifier (0-based, dense).
  [[nodiscard]] int pid() const noexcept { return pid_; }

  /// The resume point recorded by the last `suspend` (0 before the first:
  /// `SUBC_STEP_BEGIN` dispatches on it).
  [[nodiscard]] std::uint32_t resume_point() const noexcept;

  /// Suspends the process until its next grant, recording where to resume
  /// (`point` != 0; the macro layer passes `__LINE__`). This overload
  /// declares no footprint for the pending step (dependent with
  /// everything); the second announces `{obj, kind}`, assigning the
  /// object's id on first use exactly like `Context::sched_point`.
  void suspend(std::uint32_t point);
  void suspend(std::uint32_t point, const ObjectId& obj, AccessKind kind);

  /// Marks the body complete (the stepped analogue of the process function
  /// returning). The process takes no further steps.
  void finish();

  /// Hangs the process undetectably (stepped analogue of `Context::hang`).
  /// Unlike the fiber form this *returns*; the caller must immediately
  /// return from `step` without touching shared state (`SUBC_STEP_CALL`).
  void hang();

  /// True once this process is hung; lets `SUBC_STEP_CALL` cut the body
  /// short after a hangable operation.
  [[nodiscard]] bool hung() const noexcept;

  /// Resolves object nondeterminism adversarially, as `Context::choose`.
  std::uint32_t choose(std::uint32_t arity);

  /// Records this process's task output, as `Context::decide`.
  void decide(Value v);

  /// Fingerprint capability + reports, exactly as on `Context` — the two
  /// context types expose identical signatures so object cores templated on
  /// the context fold identical fingerprint sequences on both engines.
  [[nodiscard]] bool fingerprinting() const noexcept;
  void observe_fp(std::uint64_t v);
  void commit_fp(const ObjectId& obj, std::uint64_t state_hash);

  /// The owning runtime.
  [[nodiscard]] Runtime& runtime() const noexcept { return *runtime_; }

 private:
  friend class Runtime;
  StepContext(Runtime* rt, int pid) : runtime_(rt), pid_(pid) {}

  Runtime* runtime_;
  int pid_;
};

/// A stepped process body: invoked once per kernel grant with its state
/// block; must advance the machine by exactly one announced step and return
/// (runtime/stepper.hpp). Plain function pointer — state lives in `state`.
using SteppedFn = void (*)(void* state, StepContext& ctx);

/// One simulated world: processes plus the schedule that drives them.
/// Single-use — construct, add processes, `run` once.
class Runtime {
 public:
  Runtime();
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Registers a fiber-engine process; returns its pid. Must precede `run`.
  int add_process(ProcessFn fn);

  /// Registers a stepped-engine process; returns a reference to its state
  /// block, copied into the world's arena (so the block dies with the world
  /// and steady-state construction is allocation-free). `T` must provide
  /// `void step(StepContext&)` written against the `SUBC_STEP_*` macro
  /// layer (runtime/stepper.hpp). Pids are assigned in registration order
  /// regardless of engine; stepped and fiber processes mix freely.
  template <class T>
  T& add_stepped(T state) {
    T* block = static_cast<T*>(carve_stepped_block(sizeof(T), alignof(T)));
    ::new (block) T(std::move(state));
    const int pid =
        add_stepped_raw(&step_invoke<T>, block,
                        std::is_trivially_destructible_v<T> ? nullptr
                                                            : &step_destroy<T>);
    // Restartability (crash-recovery exploration): a copyable state block
    // can be snapshotted pristine at run() start and copy-restored on
    // recovery, so stepped bodies re-enter from the top like a fresh fiber.
    // Non-copyable blocks simply cannot be recovered (recover() diagnoses).
    if constexpr (std::is_copy_constructible_v<T> &&
                  std::is_copy_assignable_v<T>) {
      set_stepped_recovery(pid, &step_clone<T>, &step_restore<T>);
    }
    return *block;
  }

  /// Low-level stepped registration for callers that manage their own state
  /// block (it must outlive the runtime unless `destroy` is given, in which
  /// case the runtime invokes it at teardown). Returns the pid.
  int add_stepped_raw(SteppedFn fn, void* state,
                      void (*destroy)(void*) = nullptr);

  [[nodiscard]] int num_processes() const noexcept {
    return static_cast<int>(num_procs_);
  }

  /// Result of driving a world to quiescence.
  struct RunResult {
    /// Per-process decision (kBottom where the process decided nothing).
    std::vector<Value> decisions;
    /// Per-process final state.
    std::vector<ProcState> states;
    /// Total scheduler grants issued.
    std::int64_t total_steps = 0;
    /// True when every non-crashed process finished (none hung, none still
    /// runnable at the step bound). False on a cut run.
    bool quiescent = false;
    /// True when the policy cut the run (`SchedulePolicy::kCut`): the world
    /// is partial — processes may still be running, mid-operation — and is
    /// abandoned by whoever cut it. A body must not act on it (a check that
    /// throws here reports nothing: the explorer drops it).
    bool cut = false;
  };

  /// Drives the world until no process is runnable, `max_steps` grants
  /// have been issued, or the policy answers `SchedulePolicy::kCut`. Throws
  /// `SimError` if the step bound is exceeded with processes still runnable
  /// — for wait-free algorithms that indicates a bug (or a genuinely
  /// blocking construction). A cut run returns a partial result with `cut`
  /// set and emits no `on_run_end`; its suspended fibers are kill-unwound
  /// when the runtime is destroyed, as after any run.
  RunResult run(ScheduleDriver& driver, std::int64_t max_steps = 1'000'000);

  /// Crashes a process: it is never scheduled again (unless recovered). May
  /// be called before or during `run` (e.g. from a validator probing fault
  /// tolerance). Every crash event additionally reverts volatile objects
  /// (`Durability::kVolatile`) to their initial state.
  void crash(int pid);

  /// Restarts a crashed process: it re-enters its body from the top as a
  /// fresh incarnation with fresh volatile process state (new fiber stack /
  /// pristine stepped state block), while shared-object state persists per
  /// its durability. Throws `SimError` unless `pid` is crashed, or when a
  /// stepped process's state block is not copyable (no pristine snapshot
  /// exists to restore). Driven by the scheduler's `recovery_requests`
  /// branch point during `run`; callable directly outside it too.
  void recover(int pid);

  /// Crashed (and not yet recovered) processes right now.
  [[nodiscard]] int num_crashed() const noexcept { return num_crashed_; }

  /// Incarnation of `pid`: 0 until its first recovery, then the number of
  /// restarts it has undergone.
  [[nodiscard]] std::uint32_t incarnation_of(int pid) const;

  /// Registers a crash-event hook (volatile objects, `Durability`): every
  /// `crash()` invokes all hooks after retiring the victim, so volatile
  /// state reverts to initial values. Objects register lazily on first use.
  void add_volatile_reset(std::function<void(Runtime&)> hook);

  /// Re-publishes `obj`'s state hash into the world fingerprint outside a
  /// granted step (no-op unless fingerprinting, or before the object's
  /// first footprint announcement). Volatile-reset hooks call this so the
  /// wiped state is what stateful cuts key on.
  void refresh_commit_fp(const ObjectId& obj, std::uint64_t state_hash);

  /// Steps taken so far by `pid` (scheduler grants).
  [[nodiscard]] std::int64_t steps_of(int pid) const;

  /// Monotone per-run logical clock: total scheduler grants so far.
  [[nodiscard]] std::int64_t now() const noexcept { return total_steps_; }

  /// Decisions recorded so far (kBottom = none).
  [[nodiscard]] const std::vector<Value>& decisions() const noexcept {
    return decisions_;
  }

  /// Final state of `pid` (valid during and after `run`).
  [[nodiscard]] ProcState state_of(int pid) const;

  /// Wires an event sink for this world's run (observer.hpp); nullptr
  /// disconnects. The constructor already adopts the thread-default
  /// observer installed by `run_one`/`ScopedObserver`, so explicit wiring
  /// is only needed for runtimes driven outside that funnel. Observers are
  /// pure sinks — attaching one never changes execution.
  void set_observer(TraceObserver* obs) noexcept { observer_ = obs; }
  [[nodiscard]] TraceObserver* observer() const noexcept { return observer_; }

 private:
  friend class Context;
  friend class StepContext;

  struct Proc;

  template <class T>
  static void step_invoke(void* state, StepContext& ctx) {
    static_cast<T*>(state)->step(ctx);
  }
  template <class T>
  static void step_destroy(void* state) {
    static_cast<T*>(state)->~T();
  }
  template <class T>
  static void* step_clone(const void* src, Runtime& rt) {
    void* block = rt.carve_stepped_block(sizeof(T), alignof(T));
    ::new (block) T(*static_cast<const T*>(src));
    return block;
  }
  template <class T>
  static void step_restore(void* dst, const void* src) {
    *static_cast<T*>(dst) = *static_cast<const T*>(src);
  }

  /// Arms restartability for stepped pid (see add_stepped).
  void set_stepped_recovery(int pid, void* (*clone)(const void*, Runtime&),
                            void (*restore)(void*, const void*));

  /// Arena storage for a stepped state block, with the carve counted in the
  /// process-wide stepped-block telemetry (arena.hpp).
  void* carve_stepped_block(std::size_t bytes, std::size_t align);

  /// Runs `proc` until its next suspension point: resumes the fiber, or
  /// invokes the stepped body once (engine dispatch for priming + grants).
  void advance(Proc& proc);

  /// `Context::choose`/`StepContext::choose` for `pid`: consults the
  /// policy, folds and reports the choice. A `kCut` answer marks the run
  /// cut, and the step it lands in finishes on option 0.
  std::uint32_t choose(int pid, std::uint32_t arity);

  /// `decide` and `hang` of both process handles for `pid`: `decide`
  /// records the task output (a recovered incarnation may re-decide only the
  /// same value); `hang` folds the hang into the fingerprint and marks the
  /// process hung (`Context::hang` then parks its fiber).
  void decide(int pid, Value v);
  void hang(int pid);

  void check_pid(int pid) const;
  std::size_t collect_enabled(int* enabled, Access* footprints) const;
  int attach_proc(Proc* proc);

  // --- World-state fingerprinting (stateful exploration) ------------------
  // Maintained incrementally only when the driver wants it (`fp_on_`):
  // `fp_world_` is the XOR of every process's running observation-chain
  // hash and every reported object's post-commit state hash. Each fold
  // XORs the old term out, mixes, and XORs the new term in — O(1) per
  // event. docs/explorer.md "Stateful exploration" gives the soundness
  // argument for what is (and isn't) folded.
  void fp_fold(int pid, std::uint64_t v);
  void fp_observe(int pid, std::uint64_t v);
  void fp_commit(std::uint32_t object_id, std::uint64_t state_hash);

  ScheduleDriver* driver_ = nullptr;
  TraceObserver* observer_ = nullptr;

  /// World construction is arena-backed: every Proc (and the proc table
  /// itself) lives in a leased monotonic arena that is reset and recycled
  /// when the world dies, so building the next execution's world reuses the
  /// same memory instead of round-tripping the global allocator.
  ArenaLease arena_;
  Proc** procs_ = nullptr;
  std::size_t num_procs_ = 0;
  std::size_t procs_cap_ = 0;
  std::vector<Value> decisions_;
  std::int64_t total_steps_ = 0;
  std::uint32_t next_object_id_ = 1;
  bool started_ = false;
  bool cut_ = false;  ///< the policy answered kCut; no further grant
  int num_crashed_ = 0;
  /// Crash-event hooks (volatile objects). Empty in every crash-stop world,
  /// so pre-recovery crashes pay one empty-vector check.
  std::vector<std::function<void(Runtime&)>> volatile_resets_;

  bool fp_on_ = false;          ///< driver wants fingerprints (set in run())
  bool fp_valid_ = true;        ///< poisoned by a silent granted step
  bool fp_step_reported_ = false;  ///< did the current grant report?
  std::uint64_t fp_world_ = 0;
  /// Per-object post-commit state-hash terms, indexed by object id. Only
  /// ever touched in stateful runs, so the allocation stays off the
  /// non-stateful hot path.
  std::vector<std::uint64_t> fp_objects_;
};

// Inline so the objects' per-step capability guard compiles to one load and
// branch on the non-stateful hot path (no out-of-line call).
inline bool Context::fingerprinting() const noexcept {
  return runtime_->fp_on_;
}
inline bool StepContext::fingerprinting() const noexcept {
  return runtime_->fp_on_;
}

}  // namespace subc
