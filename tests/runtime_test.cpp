// Unit tests for the simulation kernel: stepping, scheduling, decisions,
// crashes, hangs and the schedule drivers.
#include "subc/runtime/runtime.hpp"

#include <gtest/gtest.h>

#include "subc/algorithms/stepped_bodies.hpp"
#include "subc/objects/register.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/scheduler.hpp"

namespace subc {
namespace {

TEST(Runtime, RunsSingleProcessToCompletion) {
  Runtime rt;
  Register<> reg(kBottom);
  rt.add_process([&](Context& ctx) {
    reg.write(ctx, 42);
    ctx.decide(reg.read(ctx));
  });
  RoundRobinDriver driver;
  const auto result = rt.run(driver);
  EXPECT_EQ(result.decisions, (std::vector<Value>{42}));
  EXPECT_EQ(result.states[0], ProcState::kDone);
  EXPECT_TRUE(result.quiescent);
  EXPECT_FALSE(result.cut);
  EXPECT_EQ(result.total_steps, 2);  // one write + one read
}

TEST(Runtime, EachGrantIsOneSharedStep) {
  // Local computation costs no steps; only register operations do.
  Runtime rt;
  Register<> reg(0);
  rt.add_process([&](Context& ctx) {
    long local = 0;
    for (int i = 0; i < 1000; ++i) {
      ++local;  // free local work
    }
    reg.write(ctx, local);
    reg.read(ctx);
  });
  RoundRobinDriver driver;
  const auto result = rt.run(driver);
  EXPECT_EQ(result.total_steps, 2);
}

TEST(Runtime, RoundRobinInterleavesWrites) {
  Runtime rt;
  Register<> reg(kBottom);
  std::vector<Value> observed;
  for (int p = 0; p < 3; ++p) {
    rt.add_process([&, p](Context& ctx) {
      reg.write(ctx, p);
      observed.push_back(reg.read(ctx));
    });
  }
  RoundRobinDriver driver;
  rt.run(driver);
  // Round robin: writes 0,1,2 then reads 2,2,2 (pid order each round).
  EXPECT_EQ(observed, (std::vector<Value>{2, 2, 2}));
}

TEST(Runtime, ScriptedDriverFollowsSchedule) {
  Runtime rt;
  Register<> reg(kBottom);
  std::vector<Value> reads(2, kBottom);
  for (int p = 0; p < 2; ++p) {
    rt.add_process([&, p](Context& ctx) {
      reg.write(ctx, p);
      reads[static_cast<std::size_t>(p)] = reg.read(ctx);
    });
  }
  // p1 does both its steps first, then p0.
  ScriptedDriver driver({1, 1, 0, 0});
  rt.run(driver);
  EXPECT_EQ(reads[1], 1);  // p1 read before p0 wrote
  EXPECT_EQ(reads[0], 0);  // p0 overwrote and read its own value
}

TEST(Runtime, CrashedProcessTakesNoSteps) {
  Runtime rt;
  Register<> reg(0);
  rt.add_process([&](Context& ctx) { reg.write(ctx, 1); });
  rt.add_process([&](Context& ctx) { reg.write(ctx, 2); });
  rt.crash(0);
  RoundRobinDriver driver;
  const auto result = rt.run(driver);
  EXPECT_EQ(result.states[0], ProcState::kCrashed);
  EXPECT_EQ(result.states[1], ProcState::kDone);
  EXPECT_EQ(reg.peek(), 2);
  EXPECT_EQ(rt.steps_of(0), 0);
}

TEST(Runtime, HangIsUndetectableButRecorded) {
  Runtime rt;
  rt.add_process([&](Context& ctx) { ctx.hang(); });
  rt.add_process([&](Context& ctx) { ctx.decide(7); });
  RoundRobinDriver driver;
  const auto result = rt.run(driver);
  EXPECT_EQ(result.states[0], ProcState::kHung);
  EXPECT_EQ(result.states[1], ProcState::kDone);
  EXPECT_FALSE(result.quiescent);
  EXPECT_EQ(result.decisions[1], 7);
}

/// Runs `rt` round-robin and returns the message of the SimError it throws.
std::string sim_error_of(Runtime& rt) {
  RoundRobinDriver driver;
  try {
    rt.run(driver);
  } catch (const SimError& e) {
    return e.what();
  }
  ADD_FAILURE() << "run threw no SimError";
  return "";
}

TEST(Runtime, DecideTwiceThrows) {
  Runtime rt;
  Register<> reg(0);
  rt.add_process([&](Context& ctx) {
    reg.read(ctx);
    ctx.decide(1);
    ctx.decide(2);
  });
  EXPECT_EQ(sim_error_of(rt), "process 0 decided twice");
}

TEST(Runtime, DecideBottomThrows) {
  Runtime rt;
  Register<> reg(0);
  rt.add_process([&](Context& ctx) {
    reg.read(ctx);
    ctx.decide(kBottom);
  });
  EXPECT_EQ(sim_error_of(rt), "decide(⊥) is not a valid task output");
}

/// Reads `reg` once, then decides each of `values` in turn: the stepped
/// twin of the two fiber bodies above.
struct SteppedDecider {
  Register<>* reg;
  std::vector<Value> values;

  void step(StepContext& ctx) {
    SUBC_STEP_BEGIN(ctx);
    SUBC_STEP_POINT(ctx, reg->oid(), AccessKind::kRead);
    static_cast<void>(reg->step_read(ctx));
    for (const Value v : values) {
      ctx.decide(v);
    }
    SUBC_STEP_END(ctx);
  }
};

TEST(Runtime, SteppedDecideTwiceThrows) {
  Runtime rt;
  Register<> reg(0);
  rt.add_stepped(SteppedDecider{&reg, {1, 2}});
  EXPECT_EQ(sim_error_of(rt), "process 0 decided twice");
}

TEST(Runtime, SteppedDecideBottomThrows) {
  Runtime rt;
  Register<> reg(0);
  rt.add_stepped(SteppedDecider{&reg, {kBottom}});
  EXPECT_EQ(sim_error_of(rt), "decide(⊥) is not a valid task output");
}

TEST(Runtime, StepBoundDetectsNonTermination) {
  Runtime rt;
  Register<> reg(0);
  rt.add_process([&](Context& ctx) {
    for (;;) {
      reg.read(ctx);  // spins forever
    }
  });
  RoundRobinDriver driver;
  EXPECT_THROW(rt.run(driver, /*max_steps=*/1000), SimError);
}

TEST(Runtime, RunIsSingleUse) {
  Runtime rt;
  rt.add_process([](Context&) {});
  RoundRobinDriver driver;
  rt.run(driver);
  EXPECT_THROW(rt.run(driver), SimError);
  EXPECT_THROW(rt.add_process([](Context&) {}), SimError);
}

TEST(Runtime, ProcessExceptionsPropagate) {
  Runtime rt;
  Register<> reg(0);
  rt.add_process([&](Context& ctx) {
    reg.read(ctx);
    throw SpecViolation("deliberate");
  });
  RoundRobinDriver driver;
  EXPECT_THROW(rt.run(driver), SpecViolation);
}

TEST(Runtime, RandomDriverIsReproducible) {
  const auto run_once = [](std::uint64_t seed) {
    Runtime rt;
    Register<> reg(kBottom);
    std::vector<Value> reads;
    for (int p = 0; p < 4; ++p) {
      rt.add_process([&, p](Context& ctx) {
        reg.write(ctx, p);
        reads.push_back(reg.read(ctx));
      });
    }
    RandomDriver driver(seed);
    rt.run(driver);
    return reads;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  // Different seeds eventually differ (not guaranteed per pair; check a few).
  bool any_different = false;
  const auto base = run_once(1);
  for (std::uint64_t seed = 2; seed < 20 && !any_different; ++seed) {
    any_different = (run_once(seed) != base);
  }
  EXPECT_TRUE(any_different);
}

TEST(Runtime, ChooseOutsideRunThrows) {
  Runtime rt;
  rt.add_process([](Context&) {});
  // choose() needs an active driver; call through a hand-built Context is
  // not possible from outside, so we check the in-run path instead: a
  // process using choose gets driver-supplied values.
  Runtime rt2;
  std::vector<std::uint32_t> picks;
  Register<> reg(0);
  rt2.add_process([&](Context& ctx) {
    reg.read(ctx);
    picks.push_back(ctx.choose(3));
    picks.push_back(ctx.choose(1));
  });
  RoundRobinDriver driver;  // always picks option 0
  rt2.run(driver);
  EXPECT_EQ(picks, (std::vector<std::uint32_t>{0, 0}));
}

TEST(Runtime, ManyProcessesAllFinish) {
  Runtime rt;
  Register<> reg(0);
  constexpr int kProcs = 32;
  for (int p = 0; p < kProcs; ++p) {
    rt.add_process([&](Context& ctx) {
      for (int i = 0; i < 10; ++i) {
        reg.write(ctx, reg.read(ctx) + 1);
      }
    });
  }
  RandomDriver driver(3);
  const auto result = rt.run(driver);
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_EQ(result.states[static_cast<std::size_t>(p)], ProcState::kDone);
  }
  EXPECT_EQ(result.total_steps, kProcs * 20);
}

// --- Cuts: a policy answering SchedulePolicy::kCut ------------------------

// Grants pid-order option 0 for `grants` picks, then answers kCut; object
// choices answer `choice` (kCut to cut from inside a step).
struct CuttingPolicy final : SchedulePolicy {
  int grants = 0;
  std::uint32_t choice = 0;
  int picks = 0;

  std::size_t pick(std::span<const int> /*enabled*/,
                   std::span<const Access> /*footprints*/ = {}) override {
    return picks++ < grants ? 0 : kCut;
  }
  std::uint32_t choose(std::uint32_t /*arity*/) override { return choice; }
};

// Records the kernel events a cut must (not) emit.
struct CutLog final : TraceObserver {
  int begins = 0;
  int steps = 0;
  int chooses = 0;
  int ends = 0;
  void on_run_begin(int /*n*/) override { ++begins; }
  void on_step(const StepEvent& /*e*/) override { ++steps; }
  void on_choose(int /*pid*/, std::uint32_t /*arity*/,
                 std::uint32_t /*chosen*/) override {
    ++chooses;
  }
  void on_run_end(std::int64_t /*steps*/, bool /*quiescent*/) override {
    ++ends;
  }
};

TEST(RuntimeCut, PickAnsweringCutStopsTheRunPartway) {
  Runtime rt;
  CutLog log;
  rt.set_observer(&log);
  RegisterArray<> regs(2, kBottom);
  int writes = 0;
  for (int p = 0; p < 2; ++p) {
    rt.add_process([&, p](Context& ctx) {
      regs[p].write(ctx, p);
      ++writes;
      regs[p].write(ctx, p + 10);
      ++writes;
    });
  }
  CuttingPolicy policy;
  policy.grants = 1;
  const auto result = rt.run(policy);
  EXPECT_TRUE(result.cut);
  EXPECT_FALSE(result.quiescent);
  EXPECT_EQ(result.total_steps, 1);
  EXPECT_EQ(writes, 1);
  EXPECT_EQ(result.states, (std::vector<ProcState>{ProcState::kRunning,
                                                   ProcState::kRunning}));
  EXPECT_EQ(policy.picks, 2);  // the grant, then the cut
  EXPECT_EQ(log.begins, 1);
  EXPECT_EQ(log.steps, 1);
  EXPECT_EQ(log.ends, 0);  // a cut run does not end, it is stopped
}

TEST(RuntimeCut, PickCutStopsSteppedProcessesToo) {
  Runtime rt;
  CutLog log;
  rt.set_observer(&log);
  Register<> shared(0);
  RegisterArray<> own(3, 0);
  for (int p = 0; p < 3; ++p) {
    rt.add_stepped(SteppedMixedWriter{&own[p], &shared, p, 4});
  }
  CuttingPolicy policy;
  policy.grants = 5;
  const auto result = rt.run(policy);
  EXPECT_TRUE(result.cut);
  EXPECT_FALSE(result.quiescent);
  EXPECT_EQ(result.total_steps, 5);
  EXPECT_EQ(log.steps, 5);
  EXPECT_EQ(log.ends, 0);
}

TEST(RuntimeCut, ChooseAnsweringCutFinishesTheStepOnOptionZero) {
  Runtime rt;
  CutLog log;
  rt.set_observer(&log);
  Register<> reg(0);
  std::uint32_t got = 99;
  bool step_finished = false;
  bool second_step = false;
  rt.add_process([&](Context& ctx) {
    reg.read(ctx);  // the granted step: choose runs inside it
    got = ctx.choose(3);
    got += ctx.choose(2);  // the rest of the step does not consult the policy
    step_finished = true;
    reg.write(ctx, 1);
    second_step = true;
  });
  rt.add_process([&](Context& ctx) { reg.write(ctx, 2); });
  CuttingPolicy policy;
  policy.grants = 1'000;
  policy.choice = SchedulePolicy::kCut;
  const auto result = rt.run(policy);
  EXPECT_TRUE(result.cut);
  EXPECT_FALSE(result.quiescent);
  EXPECT_EQ(got, 0u);
  EXPECT_TRUE(step_finished);
  EXPECT_FALSE(second_step);
  EXPECT_EQ(result.total_steps, 1);  // no grant after the cut step
  EXPECT_EQ(policy.picks, 1);        // nor a further decision point
  EXPECT_EQ(log.steps, 1);
  EXPECT_EQ(log.chooses, 0);
  EXPECT_EQ(log.ends, 0);
}

}  // namespace
}  // namespace subc
