// Experiment F5 — state-space growth, partial-order reduction, parallel
// explorer speedup, and checker scaling.
//
// Series 1: exhaustive-explorer execution counts versus processes × steps,
// with the sleep-set reduction off and on — calibrates what "exhaustive"
// can mean for T1/T5/T6 and measures how much of the multinomial schedule
// tree the footprint-based reduction proves redundant. Two world families:
//   reads — every step reads one shared register (fully commuting: the
//           degenerate best case, the tree collapses to ~1 execution);
//   mixed — each process alternates a write to its own register (commutes
//           with everything) and a write to one shared register (conflicts
//           with every other process): the realistic partial-conflict case.
// Each cell is explored three ways: unreduced serial, reduced serial, and
// reduced parallel; the two reduced runs must agree bit-for-bit (executions
// and reduced_subtrees), all three must reach the same verdict, and the
// console reports each cell's reduction factor (unreduced/reduced
// executions) and speedups.
// Series 2: Wing–Gong checker time versus history length for maximally
// concurrent 1sWRN histories (everything overlaps everything).
// Series 3: stateful exploration — the same grid machinery at
// {none, sleep, sleep+stateful} × threads {1, 4}; on convergent (mixed)
// worlds the visited set must beat sleep-sets-alone by >= 5x executions on
// at least one cell, and the serial stateful counts must be engine-identical
// (fiber vs stepped).
//
// Results are also written to BENCH_F5.json: per-cell execution counts for
// every reduction setting and the agreement checks between them. Times and
// speedups are printed only.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>

#include "bench_util.hpp"
#include "subc/algorithms/stepped_bodies.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/runtime.hpp"

namespace {

using namespace subc;

enum class World { kReads, kMixed };

const char* world_name(World w) {
  return w == World::kReads ? "reads" : "mixed";
}

ExecutionBody grid_body(World world, int procs, int steps) {
  if (world == World::kReads) {
    return [procs, steps](ScheduleDriver& driver) {
      Runtime rt;
      Register<> reg(0);
      for (int p = 0; p < procs; ++p) {
        rt.add_process([&](Context& ctx) {
          for (int s = 0; s < steps; ++s) {
            reg.read(ctx);
          }
        });
      }
      rt.run(driver);
    };
  }
  return [procs, steps](ScheduleDriver& driver) {
    Runtime rt;
    Register<> shared(0);
    RegisterArray<> own(procs, 0);
    for (int p = 0; p < procs; ++p) {
      rt.add_process([&, p](Context& ctx) {
        for (int s = 0; s < steps; ++s) {
          if (s % 2 == 0) {
            own[p].write(ctx, s);
          } else {
            shared.write(ctx, p);
          }
        }
      });
    }
    rt.run(driver);
  };
}

// `grid_body` with every process hosted on the stepped engine
// (runtime/stepper.hpp): identical footprints in identical order, so the
// explorer must enumerate exactly the same tree — only the per-step
// suspension mechanism (switch-resume vs stack switch) differs.
ExecutionBody stepped_grid_body(World world, int procs, int steps) {
  if (world == World::kReads) {
    return [procs, steps](ScheduleDriver& driver) {
      Runtime rt;
      Register<> reg(0);
      for (int p = 0; p < procs; ++p) {
        rt.add_stepped(SteppedRegisterReader{&reg, steps});
      }
      rt.run(driver);
    };
  }
  return [procs, steps](ScheduleDriver& driver) {
    Runtime rt;
    Register<> shared(0);
    RegisterArray<> own(procs, 0);
    for (int p = 0; p < procs; ++p) {
      rt.add_stepped(SteppedMixedWriter{&own[p], &shared, p, steps});
    }
    rt.run(driver);
  };
}

struct CellResult {
  long long executions_unreduced = 0;
  long long executions_reduced = 0;
  long long reduced_subtrees = 0;
  bool complete = false;
  bool counts_match = false;   // reduced serial == reduced parallel
  bool verdict_match = false;  // all three runs: same ok() and complete
  double unreduced_ms = 0;
  double reduced_ms = 0;
  double parallel_ms = 0;
  Explorer::Tally searched;  // summed over the cell's three searches
};

CellResult run_cell(World world, int procs, int steps, int threads) {
  const ExecutionBody body = grid_body(world, procs, steps);
  Explorer::Options opts;
  opts.max_executions = 5'000'000;
  CellResult cell;
  bool ok_unreduced = false;
  bool ok_reduced = false;
  bool ok_parallel = false;
  bool complete_reduced = false;
  bool complete_parallel = false;
  {
    Explorer::Options raw = opts;
    raw.reduction = Reduction::kNone;
    const subc_bench::Stopwatch sw;
    const auto unreduced = Explorer::explore(body, raw);
    cell.unreduced_ms = sw.ms();
    cell.executions_unreduced = unreduced.executions;
    cell.complete = unreduced.complete;
    ok_unreduced = unreduced.ok();
    cell.searched += unreduced;
  }
  {
    const subc_bench::Stopwatch sw;
    const auto reduced = Explorer::explore(body, opts);
    cell.reduced_ms = sw.ms();
    cell.executions_reduced = reduced.executions;
    cell.reduced_subtrees = reduced.reduced_subtrees;
    ok_reduced = reduced.ok();
    complete_reduced = reduced.complete;
    cell.searched += reduced;
  }
  {
    Explorer::Options popts = opts;
    popts.threads = threads;
    const subc_bench::Stopwatch sw;
    const auto parallel = Explorer::explore(body, popts);
    cell.parallel_ms = sw.ms();
    cell.counts_match = parallel.executions == cell.executions_reduced &&
                        parallel.reduced_subtrees == cell.reduced_subtrees;
    ok_parallel = parallel.ok();
    complete_parallel = parallel.complete;
    cell.searched += parallel;
  }
  cell.verdict_match = ok_unreduced == ok_reduced &&
                       ok_reduced == ok_parallel &&
                       cell.complete == complete_reduced &&
                       complete_reduced == complete_parallel;
  return cell;
}

// One grid point explored at {none, sleep, sleep+stateful} × threads {1, 4}.
// The stateless modes must agree bit-for-bit across thread counts; the
// stateful mode is deterministic serially (and engine-identical — checked
// against the stepped twin below) while its parallel run must only agree on
// the verdict: the cut/execution split may vary with worker timing.
struct StatefulCell {
  long long execs_none = 0;
  long long execs_sleep = 0;
  long long execs_stateful = 0;
  long long stateful_cuts = 0;
  long long stateful_states = 0;
  bool ok = false;  // verdicts + completeness agree across all six runs
  Explorer::Tally searched;  // summed over the six searches
};

StatefulCell run_stateful_cell(World world, int procs, int steps,
                               std::int64_t capacity) {
  const ExecutionBody body = grid_body(world, procs, steps);
  StatefulCell cell;
  Explorer::Options base;
  base.max_executions = 5'000'000;
  bool agree = true;
  bool have_first = false;
  bool ok0 = false;
  bool complete0 = false;
  const auto fold = [&](const Explorer::Result& r) {
    cell.searched += r;
    if (!have_first) {
      ok0 = r.ok();
      complete0 = r.complete;
      have_first = true;
    }
    agree = agree && r.ok() == ok0 && r.complete == complete0;
  };
  {
    Explorer::Options o = base;
    o.reduction = Reduction::kNone;
    const auto serial = Explorer::explore(body, o);
    cell.execs_none = serial.executions;
    fold(serial);
    o.threads = 4;
    const auto par = Explorer::explore(body, o);
    fold(par);
    agree = agree && par.executions == serial.executions;
  }
  {
    Explorer::Options o = base;
    const auto serial = Explorer::explore(body, o);
    cell.execs_sleep = serial.executions;
    fold(serial);
    o.threads = 4;
    const auto par = Explorer::explore(body, o);
    fold(par);
    agree = agree && par.executions == serial.executions;
  }
  {
    Explorer::Options o = base;
    o.stateful = true;
    o.stateful_capacity = capacity;
    const auto serial = Explorer::explore(body, o);
    cell.execs_stateful = serial.executions;
    cell.stateful_cuts = serial.stateful_cuts;
    cell.stateful_states = serial.stateful_states;
    fold(serial);
    o.threads = 4;
    const auto par = Explorer::explore(body, o);
    fold(par);  // counts may differ under parallel stateful; verdict must not
  }
  cell.ok = agree;
  return cell;
}

double time_checker(int k) {
  // Build a maximally-overlapping completed history: all invocations open,
  // then all responses, values consistent with some linearization.
  History history;
  std::vector<std::size_t> handles;
  for (int i = 0; i < k; ++i) {
    handles.push_back(
        history.invoke(i, {static_cast<Value>(i), static_cast<Value>(100 + i)}));
  }
  // Responses as if linearized in index order: op i returns ⊥ except the
  // last, which sees slot 0.
  for (int i = 0; i < k; ++i) {
    const Value response = (i == k - 1) ? 100 : kBottom;
    history.respond(handles[static_cast<std::size_t>(i)], {response});
  }
  const auto start = std::chrono::steady_clock::now();
  const auto result = check_linearizable(OneShotWrnSpec{k}, history.entries());
  const auto stop = std::chrono::steady_clock::now();
  if (!result.linearizable) {
    return -1;
  }
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main() {
  const int threads = subc_bench::bench_threads();
  std::printf("F5: explorer state-space growth, reduction, checker scaling\n\n");
  std::printf("series 1: exhaustive executions vs (world, processes, "
              "steps/proc), reduction off vs on, %d-thread parallel\n",
              threads);
  std::printf("%6s %6s %6s %12s %12s %8s %9s %9s %9s %6s\n", "world", "procs",
              "steps", "raw execs", "red execs", "factor", "raw(ms)",
              "red(ms)", "par(ms)", "ok");
  struct Cell {
    World world;
    int procs;
    int steps;
  };
  const Cell cells[] = {
      {World::kReads, 2, 2}, {World::kReads, 2, 4}, {World::kReads, 2, 6},
      {World::kReads, 3, 2}, {World::kReads, 3, 3}, {World::kReads, 3, 4},
      {World::kReads, 4, 2}, {World::kReads, 4, 3}, {World::kReads, 5, 2},
      {World::kMixed, 2, 4}, {World::kMixed, 2, 6}, {World::kMixed, 3, 2},
      {World::kMixed, 3, 3}, {World::kMixed, 3, 4}, {World::kMixed, 4, 2},
      {World::kMixed, 4, 3}};
  // Warm-up: the first exploration in a process is several times slower than
  // steady state (fiber-stack page faults, allocator growth); run one
  // untimed pass through all paths so the timed cells compare fairly.
  run_cell(World::kMixed, 3, 3, threads);
  bool ok = true;
  std::vector<subc_bench::Json> series1;
  double unreduced_total_ms = 0;
  double reduced_total_ms = 0;
  double parallel_total_ms = 0;
  long long total_executions_unreduced = 0;
  long long total_executions_reduced = 0;
  Explorer::Tally searched;  // every timed search below
  int cells_at_2x = 0;
  for (const auto& [world, procs, steps] : cells) {
    const CellResult cell = run_cell(world, procs, steps, threads);
    ok = ok && cell.counts_match && cell.verdict_match;
    const double factor =
        cell.executions_reduced > 0
            ? static_cast<double>(cell.executions_unreduced) /
                  static_cast<double>(cell.executions_reduced)
            : 0;
    if (factor >= 2.0) {
      ++cells_at_2x;
    }
    unreduced_total_ms += cell.unreduced_ms;
    reduced_total_ms += cell.reduced_ms;
    parallel_total_ms += cell.parallel_ms;
    total_executions_unreduced += cell.executions_unreduced;
    total_executions_reduced += cell.executions_reduced;
    searched += cell.searched;
    std::printf("%6s %6d %6d %12lld %12lld %7.1fx %9.1f %9.1f %9.1f %6s\n",
                world_name(world), procs, steps, cell.executions_unreduced,
                cell.executions_reduced, factor, cell.unreduced_ms,
                cell.reduced_ms, cell.parallel_ms,
                cell.counts_match && cell.verdict_match ? "yes" : "NO");
    subc_bench::Json row;
    row.set("world", world_name(world))
        .set("procs", procs)
        .set("steps", steps)
        .set("executions_unreduced", cell.executions_unreduced)
        .set("executions_reduced", cell.executions_reduced)
        .set("reduced_subtrees", cell.reduced_subtrees)
        .set("complete", cell.complete)
        .set("counts_match", cell.counts_match)
        .set("verdict_match", cell.verdict_match);
    series1.push_back(row);
  }
  // The reduction must pay for itself on register-heavy worlds: at least
  // half the cells shrink the explored tree by 2x or more.
  const int total_cells = static_cast<int>(std::size(cells));
  const bool reduction_effective = 2 * cells_at_2x >= total_cells;
  ok = ok && reduction_effective;
  const double overall_factor =
      total_executions_reduced > 0
          ? static_cast<double>(total_executions_unreduced) /
                static_cast<double>(total_executions_reduced)
          : 0;
  const double overall_reduction_speedup =
      reduced_total_ms > 0 ? unreduced_total_ms / reduced_total_ms : 0;
  const double overall_parallel_speedup =
      parallel_total_ms > 0 ? reduced_total_ms / parallel_total_ms : 0;
  std::printf("\nseries 1 overall: %lld raw vs %lld reduced executions "
              "(%.1fx, >=2x on %d/%d cells), %.1f ms raw, %.1f ms reduced "
              "(%.2fx), %.1f ms parallel (%.2fx at %d threads)\n",
              total_executions_unreduced, total_executions_reduced,
              overall_factor, cells_at_2x, total_cells, unreduced_total_ms,
              reduced_total_ms, overall_reduction_speedup, parallel_total_ms,
              overall_parallel_speedup, threads);

  std::printf("\nseries 2: Wing–Gong checker on maximally concurrent "
              "1sWRN_k histories\n");
  std::printf("%6s %14s\n", "k", "time (ms)");
  std::vector<subc_bench::Json> series2;
  for (const int k : {4, 8, 12, 16, 20}) {
    const double ms = time_checker(k);
    if (ms < 0) {
      ok = false;
      std::printf("%6d %14s\n", k, "NOT LINEARIZABLE?!");
    } else {
      std::printf("%6d %14.3f\n", k, ms);
    }
    subc_bench::Json row;
    row.set("k", k).set("linearizable", ms >= 0);
    series2.push_back(row);
  }
  std::printf(
      "\nreading: raw schedule counts follow the multinomial "
      "(Σsteps)!/Π(steps!);\nsleep sets keep one representative per "
      "Mazurkiewicz trace, so fully\ncommuting worlds collapse to ~1 "
      "execution and mixed worlds shrink by the\nshare of commuting "
      "adjacent steps. The checker's memoized DFS stays\npolynomial-ish on "
      "WRN histories because state keys collapse equivalent\nlinearization "
      "prefixes.\n");

  // Headline cell: the unreduced serial "reads, 4 procs × 3 steps" grid
  // point re-run in isolation with a ProgressTicker attached (huge period:
  // snapshot telemetry only, no stderr lines), whose count must equal the
  // search's. Its rate is printed.
  const ExecutionBody headline_body = grid_body(World::kReads, 4, 3);
  Explorer::Options hopts;
  hopts.max_executions = 5'000'000;
  hopts.reduction = Reduction::kNone;
  ProgressTicker ticker(/*period_seconds=*/1e9);
  hopts.observer = &ticker;
  const subc_bench::Stopwatch headline_sw;
  const auto headline = Explorer::explore(headline_body, hopts);
  const double headline_ms = headline_sw.ms();
  const auto ticker_snap = ticker.snapshot();
  searched += headline;
  subc_bench::Json headline_cell;
  headline_cell.set("world", "reads")
      .set("procs", 4)
      .set("steps", 3)
      .set("executions", headline.executions)
      .set("ticker_violations", ticker_snap.violations);
  const double headline_rate =
      headline_ms > 0
          ? 1000.0 * static_cast<double>(headline.executions) / headline_ms
          : 0.0;
  ok = ok && headline.complete && ticker_snap.executions == headline.executions;
  std::printf("\nheadline cell (reads, 4 procs x 3 steps, unreduced serial): "
              "%lld executions in %.1f ms = %.0f exec/s\n",
              static_cast<long long>(headline.executions), headline_ms,
              headline_rate);

  // The same headline grid point on the stepped execution engine: no stack
  // switches, state blocks arena-carved. The execution count must match the
  // fiber cell exactly (same tree, different suspension mechanism); the
  // rate is printed.
  const ExecutionBody stepped_headline_body =
      stepped_grid_body(World::kReads, 4, 3);
  Explorer::explore(stepped_headline_body, hopts);  // untimed warm-up
  const subc_bench::Stopwatch stepped_headline_sw;
  const auto stepped_headline = Explorer::explore(stepped_headline_body, hopts);
  const double stepped_headline_ms = stepped_headline_sw.ms();
  searched += stepped_headline;
  const double stepped_headline_rate =
      stepped_headline_ms > 0
          ? 1000.0 * static_cast<double>(stepped_headline.executions) /
                stepped_headline_ms
          : 0.0;
  subc_bench::Json stepped_cell;
  stepped_cell.set("world", "reads")
      .set("procs", 4)
      .set("steps", 3)
      .set("engine", "stepped")
      .set("executions", stepped_headline.executions)
      .set("executions_match_fiber",
           stepped_headline.executions == headline.executions);
  ok = ok && stepped_headline.complete &&
       stepped_headline.executions == headline.executions;
  std::printf("stepped headline cell (same grid point, stepped engine): "
              "%lld executions in %.1f ms = %.0f exec/s (%.2fx vs fiber, "
              "executions match: %s)\n",
              static_cast<long long>(stepped_headline.executions),
              stepped_headline_ms, stepped_headline_rate,
              headline_rate > 0 ? stepped_headline_rate / headline_rate : 0.0,
              stepped_headline.executions == headline.executions ? "yes"
                                                                 : "NO");

  // Crash-exploration cell: the mixed 3x2 grid point re-explored with crash
  // branching (f = 1) and a generous step-quota watchdog, serial vs
  // parallel. The crashed-branch tally must be bit-identical across thread
  // counts — same canonical-aggregation guarantee the plain counts carry.
  Explorer::Options crash_opts;
  crash_opts.max_executions = 5'000'000;
  crash_opts.max_crashes = 1;
  crash_opts.step_quota = 100'000;
  const ExecutionBody crash_body = grid_body(World::kMixed, 3, 2);
  const subc_bench::Stopwatch crash_sw;
  const auto crash_serial = Explorer::explore(crash_body, crash_opts);
  const double crash_ms = crash_sw.ms();
  Explorer::Options crash_popts = crash_opts;
  crash_popts.threads = threads;
  const auto crash_parallel = Explorer::explore(crash_body, crash_popts);
  searched += crash_serial;
  searched += crash_parallel;
  const bool crash_match =
      crash_serial.executions == crash_parallel.executions &&
      crash_serial.crashed_executions == crash_parallel.crashed_executions &&
      crash_serial.stuck_executions == crash_parallel.stuck_executions;
  ok = ok && crash_serial.ok() && crash_serial.complete && crash_match &&
       crash_serial.crashed_executions > 0 &&
       crash_serial.stuck_executions == 0;
  std::printf("\ncrash exploration cell (mixed, 3 procs x 2 steps, f=1): "
              "%lld executions (%lld with a crash landed, %lld stuck) in "
              "%.1f ms, serial==parallel: %s\n",
              static_cast<long long>(crash_serial.executions),
              static_cast<long long>(crash_serial.crashed_executions),
              static_cast<long long>(crash_serial.stuck_executions), crash_ms,
              crash_match ? "yes" : "NO");
  subc_bench::Json crash_cell;
  crash_cell.set("world", "mixed")
      .set("procs", 3)
      .set("steps", 2)
      .set("max_crashes", crash_opts.max_crashes)
      .set("counts_match", crash_match);
  subc_bench::set_search_tally(crash_cell, crash_serial);

  // Series 3 — stateful exploration (Explorer::Options::stateful): every
  // cell explored at {none, sleep, sleep+stateful} × threads {1, 4}. On
  // convergent worlds (mixed: last-writer-wins registers funnel many
  // interleavings into few states) the visited set collapses the tree well
  // beyond what sleep sets alone manage; the acceptance gate below requires
  // >= 5x fewer executions than sleep-alone on at least one mixed cell.
  std::printf("\nseries 3: stateful exploration, executions at "
              "{none, sleep, sleep+stateful}\n");
  std::printf("%6s %6s %6s %12s %12s %12s %8s %8s\n", "world", "procs",
              "steps", "none", "sleep", "stateful", "cuts", "factor");
  constexpr std::int64_t kStatefulCapacity = std::int64_t{1} << 20;
  const Cell stateful_cells[] = {{World::kMixed, 2, 6},
                                 {World::kMixed, 3, 3},
                                 {World::kMixed, 3, 4},
                                 {World::kReads, 3, 3}};
  std::vector<subc_bench::Json> series3;
  double best_stateful_factor = 0.0;
  StatefulCell headline_stateful_cell;  // mixed 3x4: the headline grid point
  for (const auto& [world, procs, steps] : stateful_cells) {
    const StatefulCell cell =
        run_stateful_cell(world, procs, steps, kStatefulCapacity);
    ok = ok && cell.ok;
    const double factor =
        cell.execs_stateful > 0
            ? static_cast<double>(cell.execs_sleep) /
                  static_cast<double>(cell.execs_stateful)
            : 0.0;
    if (world == World::kMixed) {
      best_stateful_factor = std::max(best_stateful_factor, factor);
    }
    if (world == World::kMixed && procs == 3 && steps == 4) {
      headline_stateful_cell = cell;
    }
    searched += cell.searched;
    std::printf("%6s %6d %6d %12lld %12lld %12lld %8lld %7.1fx\n",
                world_name(world), procs, steps, cell.execs_none,
                cell.execs_sleep, cell.execs_stateful, cell.stateful_cuts,
                factor);
    subc_bench::Json row;
    row.set("world", world_name(world))
        .set("procs", procs)
        .set("steps", steps)
        .set("executions_none", cell.execs_none)
        .set("executions_sleep", cell.execs_sleep)
        .set("executions_stateful", cell.execs_stateful)
        .set("stateful_cuts", cell.stateful_cuts)
        .set("stateful_states", cell.stateful_states)
        .set("stateful_vs_sleep_factor", factor)
        .set("verdicts_agree", cell.ok);
    series3.push_back(row);
  }
  const bool stateful_effective = best_stateful_factor >= 5.0;
  ok = ok && stateful_effective;

  // Stateful headline cell (mixed, 3 procs x 4 steps, serial
  // sleep+stateful): the stepped-engine twin must land on the identical
  // (executions, stateful_cuts) pair — serial stateful search is
  // deterministic and the two engines fingerprint identically.
  Explorer::Options st_opts;
  st_opts.max_executions = 5'000'000;
  st_opts.stateful = true;
  st_opts.stateful_capacity = kStatefulCapacity;
  const subc_bench::Stopwatch st_sw;
  const auto st_fiber = Explorer::explore(grid_body(World::kMixed, 3, 4),
                                          st_opts);
  const double st_ms = st_sw.ms();
  const auto st_stepped =
      Explorer::explore(stepped_grid_body(World::kMixed, 3, 4), st_opts);
  searched += st_fiber;
  searched += st_stepped;
  const bool st_engines_match =
      st_stepped.executions == st_fiber.executions &&
      st_stepped.stateful_cuts == st_fiber.stateful_cuts;
  ok = ok && st_fiber.ok() && st_fiber.complete && st_engines_match;
  std::printf("\nstateful headline cell (mixed, 3 procs x 4 steps, serial "
              "sleep+stateful): %lld executions (%lld cuts, %lld states) in "
              "%.1f ms; best mixed-cell factor vs sleep-alone %.1fx "
              "(gate >= 5x: %s); stepped twin identical: %s\n",
              static_cast<long long>(st_fiber.executions),
              static_cast<long long>(st_fiber.stateful_cuts),
              static_cast<long long>(st_fiber.stateful_states), st_ms,
              best_stateful_factor, stateful_effective ? "yes" : "NO",
              st_engines_match ? "yes" : "NO");
  subc_bench::Json stateful_headline;
  stateful_headline.set("world", "mixed").set("procs", 3).set("steps", 4);
  subc_bench::set_search_tally(stateful_headline, st_fiber);
  stateful_headline
      .set("executions_sleep_only", headline_stateful_cell.execs_sleep)
      .set("stateful_vs_sleep_factor",
           st_fiber.executions > 0
               ? static_cast<double>(headline_stateful_cell.execs_sleep) /
                     static_cast<double>(st_fiber.executions)
               : 0.0)
      .set("stateful_states", st_fiber.stateful_states)
      .set("best_mixed_factor", best_stateful_factor)
      .set("stepped_executions_match", st_engines_match);

  subc_bench::Json out;
  out.set("bench", "F5")
      .set("headline", headline_cell)
      .set("headline_stepped", stepped_cell)
      .set("headline_stateful", stateful_headline)
      .set("crash_exploration", crash_cell)
      .set("executions_unreduced", total_executions_unreduced)
      .set("executions_reduced", total_executions_reduced)
      .set("cells_at_2x", cells_at_2x)
      .set("cells_total", total_cells)
      .set("series1", series1)
      .set("series2", series2)
      .set("series3_stateful", series3)
      .set("pass", ok);
  subc_bench::set_search_tally(out, searched);
  subc_bench::write_json("BENCH_F5.json", out);

  std::printf("\nF5 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
