// TraceObserver layer: event streams from the kernel, observer composition,
// access counters, history mirroring, JSONL export/import, and the run_one
// funnel's thread-default installation.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>

#include "subc/checking/trace_jsonl.hpp"
#include "subc/checking/trace_viz.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/set_consensus_object.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/history.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/policy.hpp"

namespace subc {
namespace {

// Collects raw events for structural assertions.
struct EventLog final : TraceObserver {
  std::vector<std::string> lines;

  void on_run_begin(int num_processes) override {
    lines.push_back("begin " + std::to_string(num_processes));
  }
  void on_step(const StepEvent& e) override {
    lines.push_back("step p" + std::to_string(e.pid) + " @" +
                    std::to_string(e.step));
  }
  void on_choose(int pid, std::uint32_t arity, std::uint32_t chosen) override {
    lines.push_back("choose p" + std::to_string(pid) + " " +
                    std::to_string(chosen) + "/" + std::to_string(arity));
  }
  void on_crash(int pid, std::int64_t step) override {
    lines.push_back("crash p" + std::to_string(pid) + " @" +
                    std::to_string(step));
  }
  void on_violation(std::string_view message) override {
    lines.push_back("violation " + std::string(message));
  }
  void on_run_end(std::int64_t total_steps, bool quiescent) override {
    lines.push_back("end " + std::to_string(total_steps) +
                    (quiescent ? " quiescent" : " stuck"));
  }
};

TEST(Observer, KernelEmitsBeginStepsEnd) {
  EventLog log;
  Runtime rt;
  rt.set_observer(&log);
  RegisterArray<> regs(2, kBottom);
  for (int p = 0; p < 2; ++p) {
    rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
  }
  RoundRobinDriver rr;
  const auto result = rt.run(rr);
  ASSERT_FALSE(log.lines.empty());
  EXPECT_EQ(log.lines.front(), "begin 2");
  EXPECT_EQ(log.lines.back(),
            "end " + std::to_string(result.total_steps) + " quiescent");
  std::int64_t steps = 0;
  for (const auto& l : log.lines) {
    if (l.rfind("step ", 0) == 0) {
      ++steps;
    }
  }
  EXPECT_EQ(steps, result.total_steps);
}

TEST(Observer, ChooseAndCrashEventsArrive) {
  EventLog log;
  Runtime rt;
  rt.set_observer(&log);
  SetConsensusObject onk(3, 2);  // nondeterministic: propose() calls choose()
  rt.add_process([&](Context& ctx) { onk.propose(ctx, 5); });
  rt.add_process([&](Context& ctx) { onk.propose(ctx, 6); });
  RoundRobinDriver rr;
  rt.crash(1);  // before run: pid 1 never steps
  rt.run(rr);
  bool saw_choose = false;
  bool saw_crash = false;
  for (const auto& l : log.lines) {
    saw_choose = saw_choose || l.rfind("choose ", 0) == 0;
    saw_crash = saw_crash || l == "crash p1 @0";
  }
  EXPECT_TRUE(saw_choose);
  EXPECT_TRUE(saw_crash);
}

TEST(Observer, ChainFansOutInOrder) {
  EventLog a;
  EventLog b;
  ObserverChain chain;
  chain.add(a);
  chain.add(b);
  Runtime rt;
  rt.set_observer(&chain);
  RegisterArray<> regs(2, kBottom);
  for (int p = 0; p < 2; ++p) {
    rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
  }
  RoundRobinDriver rr;
  rt.run(rr);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_FALSE(a.lines.empty());
}

TEST(Observer, AccessCountersTally) {
  AccessCounters counters;
  Runtime rt;
  rt.set_observer(&counters);
  RegisterArray<> regs(2, kBottom);
  std::array<Value, 2> seen{};
  for (int p = 0; p < 2; ++p) {
    rt.add_process([&, p](Context& ctx) {
      regs[p].write(ctx, 10 + p);
      seen[static_cast<std::size_t>(p)] = regs[(p + 1) % 2].read(ctx);
    });
  }
  RoundRobinDriver rr;
  const auto result = rt.run(rr);
  EXPECT_EQ(counters.runs(), 1);
  EXPECT_EQ(counters.steps(), result.total_steps);
  EXPECT_EQ(counters.steps_of_kind(AccessKind::kWrite), 2);
  EXPECT_EQ(counters.steps_of_kind(AccessKind::kRead), 2);
  EXPECT_EQ(counters.objects_touched(), 2);
  EXPECT_EQ(counters.steps_on_object(1) + counters.steps_on_object(2),
            counters.steps());
  EXPECT_EQ(counters.crashes(), 0);
  EXPECT_EQ(counters.violations(), 0);
}

TEST(Observer, HistorySinkStreamsAndRecorderMirrors) {
  HistoryRecorder recorder;
  History source;
  source.set_sink(&recorder);
  const auto h0 = source.invoke(0, {1, 100});
  const auto h1 = source.invoke(1, {2, 200});
  source.respond(h1, {7});
  source.respond(h0, {});
  EXPECT_EQ(recorder.history().dump(), source.dump());
  EXPECT_EQ(recorder.history().completed(), 2u);
  recorder.reset();
  EXPECT_TRUE(recorder.history().entries().empty());
}

TEST(Observer, RunOneInstallsThreadDefaultForBodyConstructedRuntimes) {
  // The body builds its own Runtime; the observer still sees its events
  // because run_one installs it as the thread default.
  AccessCounters counters;
  RoundRobinDriver rr;
  const auto violation = run_one(
      [](ScheduleDriver& driver) {
        Runtime rt;
        RegisterArray<> regs(2, kBottom);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
        }
        rt.run(driver);
      },
      rr, &counters);
  EXPECT_FALSE(violation.has_value());
  EXPECT_EQ(counters.runs(), 1);
  EXPECT_GT(counters.steps(), 0);
}

TEST(Observer, RunOneReportsViolationsToObserverAndCaller) {
  ViolationCollector collector;
  RoundRobinDriver rr;
  const auto violation = run_one(
      [](ScheduleDriver&) { throw SpecViolation("seeded failure"); }, rr,
      &collector);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(*violation, "seeded failure");
  EXPECT_EQ(collector.count(), 1);
  EXPECT_EQ(collector.messages().front(), "seeded failure");
}

TEST(Observer, ScopedObserverNestsAndRestores) {
  EventLog outer;
  EventLog inner;
  EXPECT_EQ(thread_default_observer(), nullptr);
  {
    ScopedObserver a(&outer);
    EXPECT_EQ(thread_default_observer(), &outer);
    {
      ScopedObserver b(&inner);
      EXPECT_EQ(thread_default_observer(), &inner);
      ScopedObserver mask(nullptr);
      EXPECT_EQ(thread_default_observer(), nullptr);
    }
    EXPECT_EQ(thread_default_observer(), &outer);
  }
  EXPECT_EQ(thread_default_observer(), nullptr);
}

// The observer must be a pure sink: attaching one to an exhaustive search
// changes none of the result fields.
TEST(Observer, ExplorerResultsIdenticalWithAndWithoutObserver) {
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  for (const auto reduction : {Reduction::kNone, Reduction::kSleepSets}) {
    for (const int threads : {1, 4}) {
      Explorer::Options plain;
      plain.reduction = reduction;
      plain.threads = threads;
      const auto base = Explorer::explore(body, plain);

      AccessCounters counters;
      Explorer::Options observed = plain;
      observed.observer = &counters;
      const auto with = Explorer::explore(body, observed);

      EXPECT_EQ(base.executions, with.executions);
      EXPECT_EQ(base.reduced_subtrees, with.reduced_subtrees);
      EXPECT_EQ(base.complete, with.complete);
      EXPECT_EQ(base.ok(), with.ok());
      // Every completed execution begins a run; cut attempts (sleep-set
      // skips, frontier cuts) begin runs too, so >= in general and == only
      // for the serial unreduced search.
      EXPECT_GE(counters.runs(), with.executions);
      if (reduction == Reduction::kNone && threads == 1) {
        EXPECT_EQ(counters.runs(), with.executions);
      }
      EXPECT_EQ(counters.violations(), 0);
    }
  }
}

TEST(ProgressTicker, CountsExecutionsAndEmitsLines) {
  std::ostringstream sink;
  // Period 0: every completed run crosses the tick threshold.
  ProgressTicker ticker(/*period_seconds=*/0.0, &sink);
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  opts.observer = &ticker;
  const auto result = Explorer::explore(body, opts);
  ASSERT_TRUE(result.ok());

  const auto snap = ticker.snapshot();
  EXPECT_EQ(snap.executions, result.executions);
  EXPECT_EQ(snap.violations, 0);
  EXPECT_EQ(snap.reduced, 0);  // reduction disabled
  EXPECT_DOUBLE_EQ(snap.reduction_factor, 1.0);
  EXPECT_GT(snap.executions_per_sec, 0.0);

  // One line per completed execution at period 0, each carrying the tallies.
  const std::string out = sink.str();
  EXPECT_NE(out.find("[progress] execs="), std::string::npos);
  EXPECT_NE(out.find(" worlds="), std::string::npos);
  EXPECT_NE(out.find("violations=0"), std::string::npos);
}

TEST(ProgressTicker, RunsCountWorldsBuilt) {
  // The mixed world: each process alternates a write to its own register
  // with a write to a shared one. A default search builds one world per
  // execution (source sets cut none), so runs equal executions.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    Register<> shared(0);
    RegisterArray<> own(3, 0);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        for (int s = 0; s < 4; ++s) {
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
  ProgressTicker ticker(/*period_seconds=*/1e9, nullptr);
  AccessCounters counters;
  ObserverChain chain({&ticker, &counters});
  Explorer::Options opts;
  opts.observer = &chain;
  const auto result = Explorer::explore(body, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.executions, 1);
  const auto snap = ticker.snapshot();
  EXPECT_EQ(snap.executions, result.executions);
  EXPECT_EQ(snap.runs, result.executions);
  EXPECT_EQ(snap.runs, counters.runs());
}

TEST(ProgressTicker, TracksReductionSkips) {
  ProgressTicker ticker(/*period_seconds=*/1e9, nullptr);  // never prints
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  Explorer::Options opts;
  opts.reduction = Reduction::kSleepSets;
  opts.observer = &ticker;
  const auto result = Explorer::explore(body, opts);
  ASSERT_TRUE(result.ok());

  const auto snap = ticker.snapshot();
  EXPECT_EQ(snap.executions, result.executions);
  EXPECT_EQ(snap.reduced, result.reduced_subtrees);
  EXPECT_GT(snap.reduced, 0);
  EXPECT_GT(snap.reduction_factor, 1.0);
}

TEST(ProgressTicker, CountsViolationsAndStaysVerdictNeutral) {
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    rt.add_process([&](Context& ctx) { regs[0].write(ctx, 1); });
    rt.add_process([&](Context& ctx) {
      if (regs[0].read(ctx) == Value(1)) {
        throw SpecViolation("saw the write");
      }
    });
    rt.run(driver);
  };
  for (const int threads : {1, 4}) {
    Explorer::Options plain;
    plain.threads = threads;
    const auto base = Explorer::explore(body, plain);

    ProgressTicker ticker(/*period_seconds=*/1e9, nullptr);
    Explorer::Options observed = plain;
    observed.observer = &ticker;
    const auto with = Explorer::explore(body, observed);

    // Verdict-neutral: attaching the ticker changes nothing.
    EXPECT_EQ(base.executions, with.executions);
    EXPECT_EQ(base.ok(), with.ok());
    EXPECT_EQ(base.violation.has_value(), with.violation.has_value());

    ASSERT_FALSE(with.ok());
    EXPECT_GE(ticker.snapshot().violations, 1);
    if (threads == 1) {
      EXPECT_EQ(ticker.snapshot().executions, with.executions);
    } else {
      // Parallel workers may complete runs past the canonical winner before
      // cancellation lands; the result truncates, the raw event stream
      // doesn't.
      EXPECT_GE(ticker.snapshot().executions, with.executions);
    }
  }
}

TEST(ProgressTicker, ParallelSearchAggregatesAcrossWorkers) {
  ProgressTicker ticker(/*period_seconds=*/1e9, nullptr);
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(4, kBottom);
    for (int p = 0; p < 4; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  Explorer::Options opts;
  opts.threads = 4;
  opts.reduction = Reduction::kSleepSets;
  opts.observer = &ticker;
  const auto result = Explorer::explore(body, opts);
  ASSERT_TRUE(result.ok());

  const auto snap = ticker.snapshot();
  EXPECT_EQ(snap.executions, result.executions);
  EXPECT_EQ(snap.reduced, result.reduced_subtrees);
}

TEST(ProgressTicker, CutRunsAreNeitherExecutionsNorViolations) {
  // A correct world whose check demands a finished world, so it throws on
  // every partial world a cut leaves behind. Cut runs emit no run end, and
  // what their check throws is dropped before it reaches an observer. The
  // reader makes the default search cut too: its branch on own[0] is the
  // POPL 2014 example of a run that source sets leave sleep-blocked.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    Register<> shared(0);
    RegisterArray<> own(3, 0);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        own[p].write(ctx, 1);
        shared.write(ctx, p);
        own[p].write(ctx, 2);
      });
    }
    rt.add_process([&](Context& ctx) {
      if (own[0].read(ctx) == 0) {
        own[2].read(ctx);
      } else {
        own[1].read(ctx);
      }
    });
    rt.run(driver);
    for (int p = 0; p < 4; ++p) {
      if (rt.state_of(p) != ProcState::kDone) {
        throw SpecViolation("process " + std::to_string(p) + " unfinished");
      }
    }
  };
  for (const bool stateful : {false, true}) {
    ProgressTicker ticker(/*period_seconds=*/1e9, nullptr);
    ViolationCollector collector;
    AccessCounters counters;
    ObserverChain chain({&ticker, &collector, &counters});
    Explorer::Options opts;
    opts.stateful = stateful;
    opts.observer = &chain;
    const auto result = Explorer::explore(body, opts);
    ASSERT_TRUE(result.ok()) << *result.violation;
    EXPECT_TRUE(result.complete);
    // The search did cut runs: more worlds began than executions counted.
    EXPECT_GT(counters.runs(), result.executions);
    if (stateful) {
      EXPECT_GT(result.stateful_cuts, 0);
    }
    EXPECT_EQ(ticker.snapshot().executions, result.executions);
    // The ticker counts every world that began, cut or not.
    EXPECT_EQ(ticker.snapshot().runs, counters.runs());
    EXPECT_GT(ticker.snapshot().runs, result.executions);
    EXPECT_EQ(ticker.snapshot().stateful_cuts, result.stateful_cuts);
    EXPECT_EQ(collector.count(), 0);
    EXPECT_EQ(counters.violations(), 0);
  }
}

TEST(ProgressTicker, PostRunCheckViolationIsOneExecution) {
  // The body's check throws after its runtime ended: on_run_end already
  // counted the execution, so the violation must not count it again.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    Register<> reg(0);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) { reg.write(ctx, 10 + p); });
    }
    if (rt.run(driver).cut) {
      return;
    }
    if (reg.peek() == 11) {
      throw SpecViolation("p1 wrote last");
    }
  };
  ProgressTicker ticker(/*period_seconds=*/1e9, nullptr);
  Explorer::Options opts;
  opts.observer = &ticker;
  const auto result = Explorer::explore(body, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.executions, 1);
  EXPECT_EQ(ticker.snapshot().executions, result.executions);
  EXPECT_EQ(ticker.snapshot().violations, 1);
}

TEST(ProgressTicker, CutWithOnlyCrashedProcessesLeftIsNoExecution) {
  // A visited-set cut (stateful search) or a frontier cut of a fresh
  // restart decision (parallel search) can land at a decision point where
  // nobody is runnable and only crashed processes wait for a restart: no
  // pick follows to answer kCut, so the kernel asks the policy (`stopped`)
  // and ends the run as cut, with no run end.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(2, 0);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, 1);
        regs[1 - p].write(ctx, 2);
      });
    }
    rt.run(driver);
  };
  for (const bool stateful : {true, false}) {
    SCOPED_TRACE(stateful ? "stateful" : "parallel");
    ProgressTicker ticker(/*period_seconds=*/1e9, nullptr);
    Explorer::Options opts;
    opts.observer = &ticker;
    opts.stateful = stateful;
    opts.threads = stateful ? 1 : 2;
    opts.frontier_depth = 6;
    opts.max_crashes = 2;
    opts.max_recoveries = 1;
    const auto result = Explorer::explore(body, opts);
    ASSERT_TRUE(result.ok()) << *result.violation;
    EXPECT_TRUE(result.complete);
    EXPECT_GT(result.recovered_executions, 0);
    EXPECT_EQ(ticker.snapshot().executions, result.executions);
  }
}

TEST(Observer, RandomSweepFeedsObserver) {
  AccessCounters counters;
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    rt.run(driver);
  };
  const auto sweep = RandomSweep::run(body, 25, 1, /*threads=*/1, &counters);
  EXPECT_TRUE(sweep.ok());
  EXPECT_EQ(counters.runs(), 25);
}

TEST(TraceJsonl, RoundTripsHistoryIntoTraceViz) {
  std::ostringstream sink;
  JsonlTraceWriter writer(sink);
  RoundRobinDriver rr;
  std::string original_dump;
  const auto violation = run_one(
      [&original_dump](ScheduleDriver& driver) {
        Runtime rt;
        RegisterArray<> regs(2, kBottom);
        History history;
        history.set_sink(thread_default_observer());
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            const auto h = history.invoke(p, {p, 100 + p});
            regs[p].write(ctx, 100 + p);
            const Value seen = regs[(p + 1) % 2].read(ctx);
            history.respond(h, {seen});
          });
        }
        rt.run(driver);
        original_dump = history.dump();
      },
      rr, &writer);
  EXPECT_FALSE(violation.has_value());

  const ParsedTrace parsed = parse_trace_jsonl(sink.str());
  EXPECT_EQ(parsed.runs, 1);
  EXPECT_GT(parsed.steps, 0);
  EXPECT_EQ(parsed.total_steps, parsed.steps);
  EXPECT_TRUE(parsed.quiescent);
  EXPECT_TRUE(parsed.violations.empty());
  // The reconstructed history is entry-for-entry identical...
  EXPECT_EQ(parsed.history.dump(), original_dump);
  // ...and renders into the space-time diagram without further plumbing.
  const std::string diagram = render_history(parsed.history);
  EXPECT_NE(diagram.find("p0"), std::string::npos);
  EXPECT_NE(diagram.find("p1"), std::string::npos);
}

TEST(TraceJsonl, ViolationMessagesSurviveEscaping) {
  std::ostringstream sink;
  JsonlTraceWriter writer(sink);
  RoundRobinDriver rr;
  const std::string nasty = "line1\nline2\t\"quoted\" back\\slash";
  const auto violation = run_one(
      [&](ScheduleDriver&) { throw SpecViolation(nasty); }, rr, &writer);
  ASSERT_TRUE(violation.has_value());
  const ParsedTrace parsed = parse_trace_jsonl(sink.str());
  ASSERT_EQ(parsed.violations.size(), 1u);
  EXPECT_EQ(parsed.violations.front(), nasty);
}

TEST(TraceJsonl, BottomValuesRoundTrip) {
  std::ostringstream sink;
  JsonlTraceWriter writer(sink);
  History history;
  history.set_sink(&writer);
  const auto h = history.invoke(0, {0, 7});
  history.respond(h, {kBottom});
  const ParsedTrace parsed = parse_trace_jsonl(sink.str());
  ASSERT_EQ(parsed.history.entries().size(), 1u);
  EXPECT_EQ(parsed.history.entries()[0].response.front(), kBottom);
  EXPECT_EQ(parsed.history.dump(), history.dump());
}

TEST(TraceJsonl, ParserRejectsGarbage) {
  EXPECT_THROW(parse_trace_jsonl("{\"ev\":\"mystery\"}"), SimError);
  EXPECT_THROW(parse_trace_jsonl("{\"ev\":\"respond\",\"pid\":0,\"handle\":3,"
                                 "\"t\":1,\"resp\":[]}"),
               SimError);
}

std::string invoke_line(const std::string& handle, const std::string& op,
                        const std::string& t = "0") {
  return "{\"ev\":\"invoke\",\"pid\":0,\"handle\":" + handle +
         ",\"t\":" + t + ",\"op\":" + op + "}\n";
}

std::string respond_line(const std::string& handle, const std::string& t) {
  return "{\"ev\":\"respond\",\"pid\":0,\"handle\":" + handle +
         ",\"t\":" + t + ",\"resp\":[7]}\n";
}

TEST(TraceJsonl, ParserRejectsHandlesOutOfRange) {
  // A handle indexes its source History, so it is never negative and never
  // reaches the number of invoke events read so far.
  EXPECT_THROW(parse_trace_jsonl(invoke_line("-1", "[0,1]")), SimError);
  EXPECT_THROW(parse_trace_jsonl(invoke_line("1", "[0,1]")), SimError);
  EXPECT_THROW(parse_trace_jsonl(invoke_line("100000000", "[0,1]")), SimError);
  EXPECT_THROW(parse_trace_jsonl(invoke_line("1000000000000", "[0,1]")),
               SimError);
  EXPECT_THROW(parse_trace_jsonl(invoke_line("0", "[0,1]") +
                                 "{\"ev\":\"respond\",\"pid\":0,"
                                 "\"handle\":-1,\"t\":1,\"resp\":[]}"),
               SimError);
  // Handles of two interleaved source histories stay in range.
  const ParsedTrace parsed = parse_trace_jsonl(
      invoke_line("0", "[0,1]") + invoke_line("0", "[1,2]") +
      invoke_line("1", "[2,3]"));
  EXPECT_EQ(parsed.history.entries().size(), 3u);
}

TEST(TraceJsonl, ParserRejectsTimesOutOfRange) {
  // A History's clock ticks once per invoke and respond, so a time is never
  // negative, never reaches the number of those events read so far, and a
  // response comes after its invocation. render_history lays a lane out by
  // these times, so one out of range would index outside it.
  EXPECT_THROW(parse_trace_jsonl(invoke_line("0", "[0,1]", "-40")), SimError);
  EXPECT_THROW(parse_trace_jsonl(invoke_line("0", "[0,1]", "1")), SimError);
  EXPECT_THROW(
      parse_trace_jsonl(invoke_line("0", "[0,1]") + respond_line("0", "-30")),
      SimError);
  EXPECT_THROW(parse_trace_jsonl(invoke_line("0", "[0,1]") +
                                 respond_line("0", "100000000000")),
               SimError);
  EXPECT_THROW(parse_trace_jsonl(invoke_line("0", "[0,1]") +
                                 invoke_line("1", "[1,1]", "1") +
                                 respond_line("1", "1")),
               SimError);
  const ParsedTrace parsed =
      parse_trace_jsonl(invoke_line("0", "[0,1]") + respond_line("0", "1"));
  ASSERT_EQ(parsed.history.entries().size(), 1u);
  EXPECT_EQ(parsed.history.entries()[0].responded_at, 1);
}

TEST(TraceJsonl, ParserReadsNumbersStrictly) {
  // The message parse_trace_jsonl throws for `text`.
  const auto error = [](const std::string& text) {
    try {
      parse_trace_jsonl(text);
    } catch (const SimError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const ParsedTrace ok = parse_trace_jsonl(
      "{\"ev\":\"crash\",\"pid\":2147483647,\"step\":7}\n"
      "{\"ev\":\"run_end\",\"steps\":9223372036854775807,"
      "\"quiescent\":true}\n" +
      invoke_line("0", "[-9223372036854775808,9223372036854775807]"));
  EXPECT_EQ(ok.crash_events.at(0).pid, 2147483647);
  EXPECT_EQ(ok.total_steps, INT64_MAX);
  EXPECT_EQ(ok.history.entries().at(0).op.front(), kBottom);
  // Pids, steps and step counts are unsigned decimals in range: neither a
  // string nor a sign nor an overflow reads as some number.
  for (const std::string text : {
           "{\"ev\":\"crash\",\"pid\":\"oops\",\"step\":7}",
           "{\"ev\":\"crash\",\"pid\":99999999999999999999,\"step\":7}",
           "{\"ev\":\"crash\",\"pid\":2147483648,\"step\":7}",
           "{\"ev\":\"crash\",\"pid\":2,\"step\":-3}",
           "{\"ev\":\"recover\",\"pid\":2,\"step\":-3}",
           "{\"ev\":\"recover\",\"pid\":2,\"step\":3x}",
           "{\"ev\":\"run_end\",\"steps\":-5,\"quiescent\":true}",
           "{\"ev\":\"run_end\",\"steps\":5,\"quiescent\":yes}",
       }) {
    EXPECT_EQ(error(text).rfind("parse_trace_jsonl: ", 0), 0u) << text;
  }
  // Values may be negative, but must be int64 decimals.
  for (const std::string op :
       {"[99999999999999999999]", "[-9223372036854775809]", "[1x]", "[1,]",
        "[--1]", "[+1]", "[1] "}) {
    EXPECT_EQ(error(invoke_line("0", op)).rfind("parse_trace_jsonl: ", 0), 0u)
        << op;
  }
}

TEST(TraceJsonl, ParserRejectsTuplesAboveCapacity) {
  EXPECT_EQ(parse_trace_jsonl(invoke_line("0", "[1,2,3,4]"))
                .history.entries()[0]
                .op.size(),
            ValueTuple::kCapacity);
  EXPECT_THROW(parse_trace_jsonl(invoke_line("0", "[1,2,3,4,5]")), SimError);
  EXPECT_THROW(parse_trace_jsonl(invoke_line("0", "[0,1]") +
                                 "{\"ev\":\"respond\",\"pid\":0,"
                                 "\"handle\":0,\"t\":1,"
                                 "\"resp\":[1,2,3,4,5]}"),
               SimError);
  History history;
  EXPECT_THROW(history.invoke(0, {1, 2, 3, 4, 5}), SimError);
  EXPECT_TRUE(history.entries().empty());
}

}  // namespace
}  // namespace subc
