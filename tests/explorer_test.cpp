// Tests for the exhaustive explorer and the randomized sweep: completeness
// of the schedule enumeration, violation reporting, replay, and enumeration
// of object nondeterminism.
#include "subc/runtime/explorer.hpp"

#include <gtest/gtest.h>

#include <set>

#include "subc/algorithms/stepped_bodies.hpp"
#include "subc/objects/register.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

// Raw-enumeration count tests pin `reduction = kNone`: they assert the exact
// interleaving counts of the unreduced tree, which is precisely what the
// partial-order reduction exists to shrink (reduction_test.cpp covers the
// reduced counts and the none-vs-sleep-sets verdict equivalence).
Explorer::Options unreduced() {
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  return opts;
}

// Two processes with 1 step each: exactly C(2,1) = 2 interleavings.
TEST(Explorer, EnumeratesAllInterleavingsTwoProcessesOneStep) {
  std::set<std::vector<Value>> outcomes;
  const auto result = Explorer::explore(
      [&](ScheduleDriver& driver) {
        Runtime rt;
        Register<> reg(kBottom);
        std::vector<Value> reads(2, kBottom);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            reads[static_cast<std::size_t>(p)] = reg.read(ctx);
            reg.write(ctx, p);
          });
        }
        rt.run(driver);
        outcomes.insert(reads);
      },
      unreduced());
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.complete);
  // Interleavings of (r0 w0) with (r1 w1): 4!/(2!2!) = 6 schedules.
  EXPECT_EQ(result.executions, 6);
  EXPECT_EQ(result.reduced_subtrees, 0);
  // Observable outcomes: each process reads ⊥ or the other's write.
  EXPECT_TRUE(outcomes.contains(std::vector<Value>{kBottom, kBottom}));
  EXPECT_TRUE(outcomes.contains(std::vector<Value>{kBottom, 0}));
  EXPECT_TRUE(outcomes.contains(std::vector<Value>{1, kBottom}));
}

TEST(Explorer, CountsMultinomialSchedules) {
  // 3 processes x 2 steps: 6!/(2!2!2!) = 90 schedules.
  const auto result = Explorer::explore(
      [&](ScheduleDriver& driver) {
        Runtime rt;
        Register<> reg(0);
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&](Context& ctx) {
            reg.read(ctx);
            reg.read(ctx);
          });
        }
        rt.run(driver);
      },
      unreduced());
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.executions, 90);
}

TEST(Explorer, SleepSetsCollapseCommutingReadsToOneExecution) {
  // The same all-reads world under the default reduction: every pair of
  // pending steps commutes (read∥read on one register), so sleep sets leave
  // exactly one representative of the single Mazurkiewicz class.
  const auto result = Explorer::explore([&](ScheduleDriver& driver) {
    Runtime rt;
    Register<> reg(0);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&](Context& ctx) {
        reg.read(ctx);
        reg.read(ctx);
      });
    }
    rt.run(driver);
  });
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.executions, 1);
  EXPECT_GT(result.reduced_subtrees, 0);
}

TEST(Explorer, EnumeratesObjectNondeterminism) {
  // One process making a 3-way choice then a 2-way choice: 6 executions.
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  const auto result = Explorer::explore([&](ScheduleDriver& driver) {
    Runtime rt;
    Register<> reg(0);
    rt.add_process([&](Context& ctx) {
      reg.read(ctx);
      const auto a = ctx.choose(3);
      const auto b = ctx.choose(2);
      seen.insert({a, b});
    });
    rt.run(driver);
  });
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.executions, 6);
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Explorer, ReportsViolationWithReplayableTrace) {
  // Fails iff process 1 runs first; the explorer must find it and the trace
  // must replay to the same failure.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    Register<> reg(kBottom);
    rt.add_process([&](Context& ctx) { reg.write(ctx, 1); });
    rt.add_process([&](Context& ctx) {
      if (reg.read(ctx) == kBottom) {
        throw SpecViolation("process 1 ran before process 0");
      }
    });
    rt.run(driver);
  };
  const auto result = Explorer::explore(body);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.violation->find("process 1 ran"), std::string::npos);
  EXPECT_THROW(Explorer::replay(body, result.violating_trace), SpecViolation);
}

TEST(Explorer, RespectsExecutionBudget) {
  Explorer::Options opts = unreduced();
  opts.max_executions = 10;
  const auto result = Explorer::explore(
      [&](ScheduleDriver& driver) {
        Runtime rt;
        Register<> reg(0);
        for (int p = 0; p < 4; ++p) {
          rt.add_process([&](Context& ctx) {
            for (int s = 0; s < 4; ++s) {
              reg.read(ctx);
            }
          });
        }
        rt.run(driver);
      },
      opts);
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.executions, 10);
}

TEST(RandomSweep, PassesCleanBodyAndReportsSeeds) {
  const auto result = RandomSweep::run(
      [](ScheduleDriver& driver) {
        Runtime rt;
        Register<> reg(0);
        rt.add_process([&](Context& ctx) { reg.write(ctx, 1); });
        rt.run(driver);
      },
      50);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.runs, 50);
}

TEST(RandomSweep, FindsSeedDependentViolation) {
  // Violates when the random driver schedules process 1 first.
  const auto result = RandomSweep::run(
      [](ScheduleDriver& driver) {
        Runtime rt;
        Register<> reg(kBottom);
        rt.add_process([&](Context& ctx) { reg.write(ctx, 1); });
        rt.add_process([&](Context& ctx) {
          if (reg.read(ctx) == kBottom) {
            throw SpecViolation("bad order");
          }
        });
        rt.run(driver);
      },
      200);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.failing_seed.has_value());
  // Replaying the same seed reproduces the failure.
  RandomDriver driver(*result.failing_seed);
  Runtime rt;
  Register<> reg(kBottom);
  rt.add_process([&](Context& ctx) { reg.write(ctx, 1); });
  rt.add_process([&](Context& ctx) {
    if (reg.read(ctx) == kBottom) {
      throw SpecViolation("bad order");
    }
  });
  EXPECT_THROW(rt.run(driver), SpecViolation);
}

TEST(Explorer, BudgetExhaustionOnViolationFreeBodyReportsIncomplete) {
  // A violation-free tree strictly larger than the budget: the result must
  // carry no violation, exactly `max_executions` executions, and
  // complete == false so callers cannot mistake the truncation for a proof.
  Explorer::Options opts = unreduced();
  opts.max_executions = 37;
  const auto result = Explorer::explore(
      [&](ScheduleDriver& driver) {
        Runtime rt;
        Register<> reg(0);
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&](Context& ctx) {
            for (int s = 0; s < 3; ++s) {
              reg.read(ctx);
            }
          });
        }
        rt.run(driver);
      },
      opts);
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.executions, 37);  // tree has 1680 executions
}

TEST(Explorer, ReplayRoundTripsRecordedViolatingTrace) {
  // The recorded violating trace must reproduce the identical execution: the
  // replayed decision string equals the recorded one bit-for-bit, and the
  // same violation fires.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    Register<> reg(kBottom);
    rt.add_process([&](Context& ctx) {
      reg.read(ctx);
      reg.write(ctx, 7);
    });
    rt.add_process([&](Context& ctx) {
      if (reg.read(ctx) == 7) {
        throw SpecViolation("saw the write");
      }
      reg.read(ctx);
    });
    rt.run(driver);
  };
  const auto result = Explorer::explore(body);
  ASSERT_FALSE(result.ok());
  ASSERT_FALSE(result.violating_trace.empty());

  ReplayDriver driver(result.violating_trace);
  EXPECT_THROW(body(driver), SpecViolation);
  EXPECT_EQ(format_trace(driver.trace()), format_trace(result.violating_trace));
}

TEST(Explorer, Arity1DecisionsAreElidedFromTraces) {
  // A single process makes every decision forced (one enabled pid, no
  // object nondeterminism): one execution, empty trace.
  std::vector<ReplayDriver::Decision> trace{{9, 9}};  // must be overwritten
  const auto result = Explorer::explore([&](ScheduleDriver& driver) {
    Runtime rt;
    Register<> reg(0);
    rt.add_process([&](Context& ctx) {
      for (int s = 0; s < 5; ++s) {
        reg.read(ctx);
      }
    });
    const auto run = rt.run(driver);
    ReplayDriver* replay = dynamic_cast<ReplayDriver*>(&driver);
    ASSERT_NE(replay, nullptr);
    trace = replay->trace();
    EXPECT_EQ(run.total_steps, 5);
  });
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.executions, 1);
  EXPECT_TRUE(trace.empty());
}

TEST(Explorer, PruneHookCutsSubtreesAndCountsThem) {
  // Prune everything after the first recorded decision takes option != 0:
  // only the schedules where process 0 moves first survive.
  Explorer::Options opts = unreduced();
  opts.prune = [](std::span<const ReplayDriver::Decision> prefix) {
    return prefix.size() == 1 && prefix[0].chosen != 0;
  };
  const auto pruned = Explorer::explore(
      [&](ScheduleDriver& driver) {
        Runtime rt;
        Register<> reg(0);
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&](Context& ctx) {
            reg.read(ctx);
            reg.read(ctx);
          });
        }
        rt.run(driver);
      },
      opts);
  EXPECT_TRUE(pruned.complete);
  EXPECT_TRUE(pruned.ok());
  // Full tree: 90 executions. First decision has arity 3; two of the three
  // root subtrees (30 executions each) are cut.
  EXPECT_EQ(pruned.executions, 30);
  EXPECT_EQ(pruned.pruned_subtrees, 2);
}

TEST(Explorer, HungProcessesDoNotStallExploration) {
  // A process that hangs leaves the others enumerable.
  const auto result = Explorer::explore(
      [&](ScheduleDriver& driver) {
        Runtime rt;
        Register<> reg(0);
        rt.add_process([&](Context& ctx) {
          reg.read(ctx);
          ctx.hang();
        });
        rt.add_process([&](Context& ctx) { reg.read(ctx); });
        rt.run(driver);
      },
      unreduced());
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.executions, 1);
}

TEST(Explorer, RejectsInvalidOptions) {
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    rt.add_process([](Context&) {});
    rt.run(driver);
  };
  Explorer::Options opts;
  opts.max_executions = 0;
  EXPECT_THROW(Explorer::explore(body, opts), SimError);
  opts.max_executions = -5;
  EXPECT_THROW(Explorer::explore(body, opts), SimError);
  opts = Explorer::Options{};
  opts.frontier_depth = -1;
  EXPECT_THROW(Explorer::explore(body, opts), SimError);
  opts.threads = 4;  // validation applies regardless of the mode picked
  EXPECT_THROW(Explorer::explore(body, opts), SimError);
}

TEST(Explorer, BudgetExactlyEqualToTreeSizeReportsComplete) {
  // Boundary: the tree has exactly 6 executions. A budget of 6 exhausts the
  // tree with the last reservation, so the search is complete; 5 is not.
  // Serial and parallel must agree on both sides of the boundary.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    Register<> a(0);
    Register<> b(0);
    rt.add_process([&](Context& ctx) {
      a.write(ctx, 1);
      b.write(ctx, 1);
    });
    rt.add_process([&](Context& ctx) {
      b.write(ctx, 2);
      a.write(ctx, 2);
    });
    rt.run(driver);
  };
  for (const int threads : {1, 4}) {
    Explorer::Options opts = unreduced();
    opts.threads = threads;
    opts.max_executions = 6;
    const auto exact = Explorer::explore(body, opts);
    EXPECT_TRUE(exact.ok());
    EXPECT_TRUE(exact.complete) << "threads=" << threads;
    EXPECT_EQ(exact.executions, 6);
    opts.max_executions = 5;
    const auto short_one = Explorer::explore(body, opts);
    EXPECT_TRUE(short_one.ok());
    EXPECT_FALSE(short_one.complete) << "threads=" << threads;
    EXPECT_EQ(short_one.executions, 5);
  }
}

// --- Cut worlds: bodies that catch everything ------------------------------

// The bench-grid mixed world (each process alternates a write to its own
// register with a write to a shared one), 3 processes x 4 steps, with a
// check that throws on any unfinished world. `catch_all` wraps the run in
// `catch (...)` before checking, the way a body guarding its own cleanup
// might: a cut must still not reach the check as a finished world.
ExecutionBody mixed_world(Engine engine, bool catch_all) {
  return [engine, catch_all](ScheduleDriver& driver) {
    Runtime rt;
    Register<> shared(0);
    RegisterArray<> own(3, 0);
    for (int p = 0; p < 3; ++p) {
      if (engine == Engine::kStepped) {
        rt.add_stepped(SteppedMixedWriter{&own[p], &shared, p, 4});
      } else {
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
    }
    if (catch_all) {
      try {
        rt.run(driver);
      } catch (...) {
      }
    } else {
      rt.run(driver);
    }
    for (int p = 0; p < 3; ++p) {
      if (rt.state_of(p) != ProcState::kDone) {
        throw SpecViolation("process " + std::to_string(p) + " unfinished");
      }
    }
  };
}

TEST(ExplorerCuts, CatchAllBodyExploresLikeThePlainBody) {
  for (const Engine engine : {Engine::kFiber, Engine::kStepped}) {
    for (const bool stateful : {false, true}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << (engine == Engine::kFiber ? "fiber" : "stepped")
                     << (stateful ? " stateful" : " sleep sets") << " threads "
                     << threads);
        Explorer::Options opts;
        opts.stateful = stateful;
        opts.threads = threads;
        const auto plain = Explorer::explore(mixed_world(engine, false), opts);
        const auto guarded =
            Explorer::explore(mixed_world(engine, true), opts);
        ASSERT_TRUE(plain.ok()) << *plain.violation;
        EXPECT_TRUE(plain.complete);
        EXPECT_GT(plain.reduced_subtrees, 0);
        ASSERT_TRUE(guarded.ok()) << *guarded.violation;
        EXPECT_EQ(guarded.complete, plain.complete);
        if (stateful && threads > 1) {
          // Shared visited set: only the verdict is timing-independent.
          continue;
        }
        EXPECT_EQ(guarded.executions, plain.executions);
        EXPECT_EQ(guarded.reduced_subtrees, plain.reduced_subtrees);
        EXPECT_EQ(guarded.stateful_cuts, plain.stateful_cuts);
      }
    }
  }
}

}  // namespace
}  // namespace subc
