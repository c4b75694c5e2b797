// The explorer workloads: explore-mixed (the stepped mixed grid world, one
// default-options search per operation) and explore-claims (one pass over a
// fixed table of paper claims on the fiber engine per operation).
//
// Untraced operations run the bodies exactly as a user writes them: locals
// in the ExecutionBody, the explorer's own driver passed straight to
// Runtime::run. Traced operations run the same worlds through an
// instrumented body: spans around build, run, check and teardown, a
// forwarding SchedulePolicy around the explorer's ReplayDriver that times
// every pick and choose, and a counting TraceObserver for kernel grants.
// The pinned execution counts double as the proof that the forwarding
// policy passes every hook on: a dropped wants_state_fp or crash_requests
// changes them.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "subc/algorithms/stepped_bodies.hpp"
#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/algorithms/wrn_set_consensus.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/core/tasks.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/arena.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/runtime.hpp"

namespace perfbench {
namespace {

using namespace subc;

// Pinned execution counts of the default-options searches (docs/explorer.md
// promises them bit-identical across engines and thread counts).
constexpr std::int64_t kMixedExecutions = 2520;    // 4 procs x 4 steps
constexpr std::int64_t kAlg5Executions = 2448;     // Algorithm 5, k = 3
constexpr std::int64_t kDoorwayExecutions = 862;   // section 5 doorway, f = 1
constexpr std::int64_t kAlg2Executions = 40;       // Algorithm 2, k = 5

constexpr std::size_t kSpanCapacity = std::size_t{1} << 19;
constexpr std::size_t kSampleCapacity = std::size_t{1} << 16;
constexpr std::int64_t kRateIntervalNs = 250'000'000;

/// Counts kernel grants (one on_step per granted atomic step).
class GrantCounter final : public TraceObserver {
 public:
  void on_step(const StepEvent& /*event*/) override { ++grants; }
  std::int64_t grants = 0;
};

/// Everything a traced operation records besides spans.
struct ExploreTrace {
  Tracer tracer{kSpanCapacity};
  GrantCounter grants;
  std::int64_t worlds = 0;
  std::int64_t picks = 0;
  std::int64_t chooses = 0;
  std::int64_t checks = 0;
  std::int64_t executions = 0;
};

/// Charges the enclosing call's duration to a counted layer on scope exit,
/// also when the call throws one of the explorer's cut types.
class LeafTimer {
 public:
  LeafTimer(Tracer& tracer, Layer layer)
      : tracer_(tracer), layer_(layer), start_(now_ns()) {}
  ~LeafTimer() { tracer_.leaf(layer_, now_ns() - start_); }
  LeafTimer(const LeafTimer&) = delete;
  LeafTimer& operator=(const LeafTimer&) = delete;

 private:
  Tracer& tracer_;
  Layer layer_;
  std::int64_t start_;
};

/// Wraps the explorer's ReplayDriver: times pick and choose and forwards
/// every other hook unchanged.
class ForwardingPolicy final : public SchedulePolicy {
 public:
  ForwardingPolicy(SchedulePolicy& inner, ExploreTrace& trace)
      : inner_(inner), trace_(trace) {}

  std::size_t pick(std::span<const int> enabled,
                   std::span<const Access> footprints) override {
    ++trace_.picks;
    const LeafTimer timer(trace_.tracer, Layer::kPick);
    return inner_.pick(enabled, footprints);
  }
  std::uint32_t choose(std::uint32_t arity) override {
    ++trace_.chooses;
    const LeafTimer timer(trace_.tracer, Layer::kChoose);
    return inner_.choose(arity);
  }
  std::uint64_t crash_requests(std::span<const int> enabled) override {
    return inner_.crash_requests(enabled);
  }
  std::uint64_t recovery_requests(std::span<const int> crashed) override {
    return inner_.recovery_requests(crashed);
  }
  bool wants_recovery() const override { return inner_.wants_recovery(); }
  void begin_run() override { inner_.begin_run(); }
  bool wants_state_fp() const override { return inner_.wants_state_fp(); }
  void on_state_fp(std::uint64_t fp, bool valid) override {
    inner_.on_state_fp(fp, valid);
  }
  void on_run_fp(std::uint64_t fp, bool valid) override {
    inner_.on_run_fp(fp, valid);
  }

 private:
  SchedulePolicy& inner_;
  ExploreTrace& trace_;
};

// --- Worlds ---------------------------------------------------------------
// Members are declared in the order the repository's own bodies declare
// their locals (Runtime first), so teardown order matches user code.

/// The bench-grid mixed world on the stepped engine: each process
/// alternates a write to its own register with a write to one shared one.
struct MixedWorld {
  struct Params {
    int procs = 4;
    int steps = 4;
  };
  static constexpr bool kChecked = false;

  explicit MixedWorld(const Params& p) : own(p.procs, 0) {
    for (int pid = 0; pid < p.procs; ++pid) {
      rt.add_stepped(SteppedMixedWriter{&own[pid], &shared, pid, p.steps});
    }
  }
  void check(const Runtime::RunResult& /*run*/) {}

  Runtime rt;
  Register<> shared{0};
  RegisterArray<> own;
};

/// Algorithm 5 (WRN_k from strong set election), every process invoking
/// its own index once; the history must linearize.
struct Alg5World {
  struct Params {
    int k = 3;
  };
  static constexpr bool kChecked = true;

  explicit Alg5World(const Params& p) : object(p.k), k(p.k) {
    for (int pid = 0; pid < p.k; ++pid) {
      rt.add_process([this, pid](Context& ctx) {
        object.one_shot_wrn(ctx, pid, 100 + pid, &history);
      });
    }
  }
  void check(const Runtime::RunResult& /*run*/) {
    require_linearizable(OneShotWrnSpec{k}, history);
  }

  Runtime rt;
  WrnFromSse object;
  History history;
  int k;
};

/// The section 5 doorway scenario: p0 runs w1 then w0 against a concurrent
/// w2 on p1, k = 3. With the doorway it linearizes under every crash
/// placement; without it the explorer convicts it.
struct DoorwayWorld {
  using Params = WrnFromSse::Options;
  static constexpr bool kChecked = true;

  explicit DoorwayWorld(const Params& p) : object(3, p) {
    rt.add_process([this](Context& ctx) {
      object.one_shot_wrn(ctx, 1, 101, &history);
      object.one_shot_wrn(ctx, 0, 100, &history);
    });
    rt.add_process(
        [this](Context& ctx) { object.one_shot_wrn(ctx, 2, 102, &history); });
  }
  void check(const Runtime::RunResult& /*run*/) {
    require_linearizable(OneShotWrnSpec{3}, history);
  }

  Runtime rt;
  WrnFromSse object;
  History history;
};

/// Algorithm 2: (k, k-1)-set consensus from one 1sWRN_k object.
struct Alg2World {
  struct Params {
    int k = 5;
  };
  static constexpr bool kChecked = true;

  explicit Alg2World(const Params& p) : task(p.k), k(p.k) {
    for (int pid = 0; pid < p.k; ++pid) {
      inputs.push_back(10 * (pid + 1));
    }
    for (int pid = 0; pid < p.k; ++pid) {
      rt.add_process([this, pid](Context& ctx) {
        ctx.decide(
            task.propose(ctx, pid, inputs[static_cast<std::size_t>(pid)]));
      });
    }
  }
  void check(const Runtime::RunResult& run) {
    check_all_done_and_decided(run);
    check_set_consensus(run, inputs, k - 1);
  }

  Runtime rt;
  WrnSetConsensus task;
  std::vector<Value> inputs;
  int k;
};

/// The body a user writes: build, run under the explorer's driver, check.
template <class W>
ExecutionBody plain_body(typename W::Params params) {
  return [params](ScheduleDriver& driver) {
    W world(params);
    if constexpr (W::kChecked) {
      world.check(world.rt.run(driver));
    } else {
      world.rt.run(driver);
    }
  };
}

/// Tears the world down inside a teardown span on scope exit, so a world
/// abandoned by a cut (an exception through Runtime::run) is timed too.
template <class W>
class TeardownScope {
 public:
  TeardownScope(Tracer& tracer, std::optional<W>& world)
      : tracer_(tracer), world_(world) {}
  ~TeardownScope() {
    if (world_.has_value()) {
      tracer_.begin(Layer::kTeardown);
      world_.reset();
      tracer_.end();
    }
  }
  TeardownScope(const TeardownScope&) = delete;
  TeardownScope& operator=(const TeardownScope&) = delete;

 private:
  Tracer& tracer_;
  std::optional<W>& world_;
};

/// The same world with a span per layer and the forwarding policy.
template <class W>
ExecutionBody traced_body(ExploreTrace& trace, typename W::Params params) {
  return [&trace, params](ScheduleDriver& driver) {
    Tracer& tr = trace.tracer;
    ++trace.worlds;
    const Span world_span(&tr, Layer::kWorld);
    ForwardingPolicy policy(driver, trace);
    std::optional<W> world;
    const TeardownScope<W> teardown(tr, world);
    {
      const Span span(&tr, Layer::kBuild);
      world.emplace(params);
      // Wired explicitly because Explorer::shrink and Explorer::replay run
      // bodies unobserved; searches also attach it through Options.
      world->rt.set_observer(&trace.grants);
    }
    std::optional<Runtime::RunResult> run;
    {
      const Span span(&tr, Layer::kRun);
      run.emplace(world->rt.run(policy));
    }
    if constexpr (W::kChecked) {
      ++trace.checks;
      const Span span(&tr, Layer::kCheck);
      world->check(*run);
    }
  };
}

std::string mismatch(const char* what, std::int64_t got, std::int64_t want) {
  return std::string(what) + ": " + std::to_string(got) + " executions, " +
         "pinned " + std::to_string(want);
}

/// Checks a search that must prove its claim: verdict, completeness and
/// the pinned execution count. Returns "" when all hold.
std::string check_proof(const char* what, const Explorer::Result& r,
                        std::int64_t pinned) {
  if (!r.ok()) {
    return std::string(what) + ": violation " + *r.violation;
  }
  if (!r.complete) {
    return std::string(what) + ": search incomplete";
  }
  if (r.executions != pinned) {
    return mismatch(what, r.executions, pinned);
  }
  return {};
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double per(double total, std::int64_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

/// The closed loop both explorer workloads share. `op(traced)` runs one
/// operation and returns "" or the failed check.
class ExplorerWorkload : public Workload {
 public:
  /// The cold first operation, checked like every other (on explore-claims
  /// it also fixes the ablated witness later passes must reproduce).
  void setup() override {
    const std::string error = op(false);
    if (!error.empty()) {
      throw std::runtime_error("cold operation failed: " + error);
    }
  }

  void measure(const RunConfig& config, Report& report) override {
    const AllocCounters alloc_before = alloc_counters();
    Reservoir plain_ms(kSampleCapacity, config.seed);
    Reservoir traced_ms(kSampleCapacity, config.seed + 1);
    IntervalRates rates(kRateIntervalNs);
    const std::int64_t start = now_ns();
    const auto deadline =
        start + static_cast<std::int64_t>(config.seconds * 1e9);
    rates.start(0, start);
    std::int64_t done = 0;
    for (std::int64_t now = start; now < deadline;) {
      // A traced run alternates traced and untraced operations, so the
      // overhead estimate is not skewed by the host drifting over the run.
      const bool traced = config.trace && done % 2 == 1;
      trace_.tracer.set_op(done);
      const std::int64_t t0 = now_ns();
      std::string error;
      try {
        error = op(traced);
      } catch (const std::exception& e) {
        error = std::string("exception: ") + e.what();
      }
      now = now_ns();
      (traced ? traced_ms : plain_ms).add(ms(now - t0));
      ++report.attempted;
      if (!error.empty()) {
        report.fail(error);
      }
      rates.tick(++done, now);
    }
    const AllocCounters alloc = alloc_counters_delta(alloc_before);

    if (!config.trace) {
      // Gated: p90 and the p10 interval rate. This host alternates
      // between a fast and a slow speed for seconds at a time; the
      // median follows the mix and moves by a fifth between runs, while
      // these sit in the slow mode every run has (BENCHMARK.md, Noise).
      report.e2e("op_ms_p90", plain_ms.percentile(0.9), "ms",
                 plain_ms.count());
      report.e2e("ops_per_s_p10", rates.percentile(0.1), "1/s",
                 static_cast<std::int64_t>(rates.intervals()));
      report.info("op_ms_p50", plain_ms.percentile(0.5), "ms",
                  plain_ms.count());
      report.info("ops_per_s_p50", rates.percentile(0.5), "1/s",
                  static_cast<std::int64_t>(rates.intervals()));
      if (plain_ms.count() < 100) {
        report.notes.push_back(
            "warning: fewer than 100 operations, so fewer than ten lie "
            "beyond p90");
      }
      return;
    }
    const std::int64_t ops = traced_ms.count();
    const Tracer& tr = trace_.tracer;
    const auto total = [&](Layer l) { return tr.total(l); };
    const double op_us = per(ms(total(Layer::kOp).total_ns) * 1e3, ops);
    const auto self_us = [&](Layer l) {
      return per(ms(total(l).self_ns) * 1e3, ops);
    };
    report.layer("explorer.worlds_built",
                 per(static_cast<double>(trace_.worlds), ops), "count", ops);
    report.layer("explorer.executions",
                 per(static_cast<double>(trace_.executions), ops), "count",
                 ops);
    report.layer("explorer.useful_share",
                 per(static_cast<double>(trace_.executions), trace_.worlds),
                 "ratio", ops);
    report.layer("explorer.self_ms", per(ms(total(Layer::kExplore).self_ns), ops),
                 "ms", ops);
    report.layer("explorer.shrink_ms",
                 per(ms(total(Layer::kShrink).total_ns), ops), "ms", ops);
    report.layer("scheduler.picks", per(static_cast<double>(trace_.picks), ops),
                 "count", ops);
    report.layer("scheduler.pick_ns",
                 per(static_cast<double>(total(Layer::kPick).total_ns),
                     total(Layer::kPick).count),
                 "ns", total(Layer::kPick).count);
    report.layer("scheduler.choose_ns",
                 per(static_cast<double>(total(Layer::kChoose).total_ns),
                     total(Layer::kChoose).count),
                 "ns", total(Layer::kChoose).count);
    report.layer("runtime.build_us",
                 per(ms(total(Layer::kBuild).total_ns) * 1e3,
                     total(Layer::kBuild).count),
                 "us", total(Layer::kBuild).count);
    report.layer("runtime.grants",
                 per(static_cast<double>(trace_.grants.grants), ops), "count", ops);
    report.layer("runtime.run_ns_per_grant",
                 per(static_cast<double>(total(Layer::kRun).total_ns),
                     trace_.grants.grants),
                 "ns", trace_.grants.grants);
    report.layer("runtime.teardown_us",
                 per(ms(total(Layer::kTeardown).total_ns) * 1e3,
                     total(Layer::kTeardown).count),
                 "us", total(Layer::kTeardown).count);
    report.layer("checking.checks",
                 per(static_cast<double>(trace_.checks), ops), "count", ops);
    report.layer("checking.check_us",
                 per(ms(total(Layer::kCheck).total_ns) * 1e3,
                     total(Layer::kCheck).count),
                 "us", total(Layer::kCheck).count);
    report.layer("arena.chunks", static_cast<double>(alloc.arena_chunks),
                 "count");
    report.layer("fiber.stack_allocs",
                 static_cast<double>(alloc.fiber_stack_allocs), "count");
    report_claims(report);

    // Self times per traced operation. The library layers plus the harness
    // remainder (operation, claim and world glue) add up to trace.op_us.
    const double scheduler_us = self_us(Layer::kPick) + self_us(Layer::kChoose);
    const double uncovered_us = self_us(Layer::kOp) + self_us(Layer::kClaim) +
                                self_us(Layer::kWorld);
    report.layer("trace.op_us", op_us, "us", ops);
    report.layer("self.explorer_us", self_us(Layer::kExplore), "us", ops);
    report.layer("self.shrink_us", self_us(Layer::kShrink), "us", ops);
    report.layer("self.scheduler_us", scheduler_us, "us", ops);
    report.layer("self.build_us", self_us(Layer::kBuild), "us", ops);
    report.layer("self.run_us", self_us(Layer::kRun), "us", ops);
    report.layer("self.check_us", self_us(Layer::kCheck), "us", ops);
    report.layer("self.teardown_us", self_us(Layer::kTeardown), "us", ops);
    report.layer("self.uncovered_us", uncovered_us, "us", ops);
    const double plain_p50 = plain_ms.percentile(0.5);
    report.layer("tracing.overhead_pct",
                 plain_p50 > 0
                     ? (traced_ms.percentile(0.5) / plain_p50 - 1.0) * 100.0
                     : 0.0,
                 "%", ops);
    char line[256];
    std::snprintf(line, sizeof line,
                  "traced op %.1f us = explorer %.1f + shrink %.1f + "
                  "scheduler %.1f + build %.1f + run %.1f + check %.1f + "
                  "teardown %.1f + uncovered %.1f",
                  op_us, self_us(Layer::kExplore), self_us(Layer::kShrink),
                  scheduler_us, self_us(Layer::kBuild), self_us(Layer::kRun),
                  self_us(Layer::kCheck), self_us(Layer::kTeardown),
                  uncovered_us);
    report.notes.emplace_back(line);
    std::snprintf(line, sizeof line, "spans kept %zu, dropped %lld",
                  tr.spans().size(), static_cast<long long>(tr.dropped()));
    report.notes.emplace_back(line);
  }

  void write_trace(std::ostream& out) const override {
    const auto& spans = trace_.tracer.spans();
    write_spans(out, "main", spans, spans.empty() ? 0 : spans[0].start_ns, 0);
  }

 protected:
  virtual std::string op(bool traced) = 0;
  virtual void report_claims(Report& /*report*/) {}

  /// Runs one search under a span, with the grant counter attached when
  /// traced.
  Explorer::Result explore(const ExecutionBody& body, Explorer::Options opts,
                           bool traced) {
    if (!traced) {
      return Explorer::explore(body, opts);
    }
    opts.observer = &trace_.grants;
    const Span span(&trace_.tracer, Layer::kExplore);
    Explorer::Result r = Explorer::explore(body, opts);
    trace_.executions += r.executions;
    return r;
  }

  ExploreTrace trace_;
};

class ExploreMixed final : public ExplorerWorkload {
 public:
  ExploreMixed()
      : plain_(plain_body<MixedWorld>({})),
        traced_(traced_body<MixedWorld>(trace_, {})) {}

 private:
  std::string op(bool traced) override {
    Tracer* tr = traced ? &trace_.tracer : nullptr;
    const Span span(tr, Layer::kOp);
    const Explorer::Result r =
        explore(traced ? traced_ : plain_, Explorer::Options{}, traced);
    return check_proof("mixed 4x4", r, kMixedExecutions);
  }

  ExecutionBody plain_;
  ExecutionBody traced_;
};

/// One pass = four checks of the claims table, each timed.
class ExploreClaims final : public ExplorerWorkload {
 public:
  ExploreClaims()
      : plain_{plain_body<Alg5World>({}), plain_body<DoorwayWorld>({}),
               plain_body<DoorwayWorld>({.use_doorway = false}),
               plain_body<Alg2World>({})},
        traced_{traced_body<Alg5World>(trace_, {}),
                traced_body<DoorwayWorld>(trace_, {}),
                traced_body<DoorwayWorld>(trace_, {.use_doorway = false}),
                traced_body<Alg2World>(trace_, {})} {}

 private:
  struct Bodies {
    ExecutionBody alg5;
    ExecutionBody doorway;
    ExecutionBody ablated;
    ExecutionBody alg2;
  };
  enum Claim { kAlg5, kDoorway, kAblated, kAlg2, kClaims };

  std::string op(bool traced) override {
    Tracer* tr = traced ? &trace_.tracer : nullptr;
    const Bodies& b = traced ? traced_ : plain_;
    const Span span(tr, Layer::kOp);
    std::int64_t times[kClaims] = {};
    std::string error;
    const auto claim = [&](Claim which, auto&& check) {
      const std::int64_t t0 = now_ns();
      std::string e;
      {
        const Span claim_span(tr, Layer::kClaim);
        e = check();
      }
      times[which] = now_ns() - t0;
      if (error.empty()) {
        error = e;
      }
    };
    claim(kAlg5, [&] {
      return check_proof("alg5 k=3", explore(b.alg5, {}, traced),
                         kAlg5Executions);
    });
    Explorer::Options crash1;
    crash1.max_crashes = 1;
    claim(kDoorway, [&] {
      return check_proof("doorway f=1", explore(b.doorway, crash1, traced),
                         kDoorwayExecutions);
    });
    claim(kAblated, [&] { return convict_ablated(b.ablated, crash1, tr); });
    Explorer::Options stateful;
    stateful.stateful = true;
    claim(kAlg2, [&] {
      return check_proof("alg2 k=5 stateful", explore(b.alg2, stateful, traced),
                         kAlg2Executions);
    });
    if (!traced) {
      for (int c = 0; c < kClaims; ++c) {
        claim_ms_[c].add(ms(times[c]));
      }
    }
    return error;
  }

  /// The ablated variant must be convicted; its witness is shrunk and must
  /// throw again under replay, identically on every pass.
  std::string convict_ablated(const ExecutionBody& body,
                              const Explorer::Options& opts, Tracer* tr) {
    const Explorer::Result r = explore(body, opts, tr != nullptr);
    if (r.ok()) {
      return "ablated f=1: not convicted";
    }
    std::vector<ReplayDriver::Decision> witness;
    {
      const Span span(tr, Layer::kShrink);
      witness = Explorer::shrink(body, r.violating_trace);
    }
    bool threw = false;
    {
      const Span span(tr, Layer::kExplore);
      try {
        Explorer::replay(body, witness);
      } catch (const std::exception&) {
        threw = true;
      }
    }
    if (!threw) {
      return "ablated f=1: shrunk witness does not replay";
    }
    const std::string shrunk = format_trace(witness);
    if (ablated_executions_ < 0) {
      ablated_executions_ = r.executions;
      ablated_witness_ = shrunk;
    }
    if (r.executions != ablated_executions_) {
      return mismatch("ablated f=1", r.executions, ablated_executions_);
    }
    if (shrunk != ablated_witness_) {
      return "ablated f=1: witness " + shrunk + " differs from " +
             ablated_witness_;
    }
    return {};
  }

  void report_claims(Report& report) override {
    static const char* const kNames[kClaims] = {
        "claims.alg5_k3_ms", "claims.doorway_f1_ms", "claims.ablated_f1_ms",
        "claims.alg2_stateful_ms"};
    for (int c = 0; c < kClaims; ++c) {
      report.layer(kNames[c], claim_ms_[c].percentile(0.5), "ms",
                   claim_ms_[c].count());
    }
    report.notes.push_back("ablated witness " + ablated_witness_ + " after " +
                           std::to_string(ablated_executions_) +
                           " executions");
  }

  Bodies plain_;
  Bodies traced_;
  std::int64_t ablated_executions_ = -1;
  std::string ablated_witness_;
  /// Per-claim times of the untraced passes.
  Reservoir claim_ms_[kClaims] = {
      Reservoir(kSampleCapacity, 3), Reservoir(kSampleCapacity, 4),
      Reservoir(kSampleCapacity, 5), Reservoir(kSampleCapacity, 6)};
};

}  // namespace

std::unique_ptr<Workload> make_explore_mixed(std::uint64_t /*seed*/) {
  return std::make_unique<ExploreMixed>();
}

std::unique_ptr<Workload> make_explore_claims(std::uint64_t /*seed*/) {
  return std::make_unique<ExploreClaims>();
}

}  // namespace perfbench
