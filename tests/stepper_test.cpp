// The stepped execution engine (runtime/stepper.hpp) and the mixed-engine
// kernel: stepped and fiber processes sharing one world must explore
// identically to the all-fiber twin, bodies that do not flatten (recursion
// over shared ops) stay on fibers beside stepped neighbours, violating
// mixed-engine traces replay and shrink, state blocks are torn down, and
// the kernel diagnoses stepped bodies that forget to suspend.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "subc/algorithms/stepped_bodies.hpp"
#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/stepper.hpp"

namespace subc {
namespace {

// ---------------------------------------------------------------------------
// Mixed-engine equivalence: the same conflicting-writes world hosted
// all-fiber, all-stepped, and half-and-half must produce bit-identical
// exhaustive results.

ExecutionBody conflict_world(bool stepped_mask[3]) {
  const std::array<bool, 3> mask{stepped_mask[0], stepped_mask[1],
                                 stepped_mask[2]};
  return [mask](ScheduleDriver& driver) {
    Runtime rt;
    Register<> shared(0);
    RegisterArray<> own(3, 0);
    for (int p = 0; p < 3; ++p) {
      if (mask[static_cast<std::size_t>(p)]) {
        rt.add_stepped(SteppedMixedWriter{&own[p], &shared, p, 2});
      } else {
        rt.add_process([&, p](Context& ctx) {
          for (int s = 0; s < 2; ++s) {
            if (s % 2 == 0) {
              own[p].write(ctx, s);
            } else {
              shared.write(ctx, p);
            }
          }
        });
      }
    }
    rt.run(driver);
  };
}

TEST(SteppedEngine, MixedEngineWorldsExploreIdentically) {
  bool all_fiber[3] = {false, false, false};
  bool all_stepped[3] = {true, true, true};
  bool mixed[3] = {false, true, false};
  for (const Reduction reduction :
       {Reduction::kNone, Reduction::kSleepSets}) {
    Explorer::Options opts;
    opts.reduction = reduction;
    const auto fiber = Explorer::explore(conflict_world(all_fiber), opts);
    ASSERT_TRUE(fiber.ok());
    ASSERT_TRUE(fiber.complete);
    for (bool* mask : {all_stepped, mixed}) {
      const auto other = Explorer::explore(conflict_world(mask), opts);
      EXPECT_TRUE(other.ok());
      EXPECT_TRUE(other.complete);
      EXPECT_EQ(other.executions, fiber.executions);
      EXPECT_EQ(other.reduced_subtrees, fiber.reduced_subtrees);
    }
  }
}

// ---------------------------------------------------------------------------
// The fallback rule: a body whose shared-op sequence lives in recursion
// cannot flatten into a switch-resume machine — it stays on the fiber
// engine, and mixes freely with stepped neighbours in the same world.

void recursive_reads(Context& ctx, Register<>& reg, int depth) {
  if (depth == 0) {
    return;
  }
  reg.read(ctx);
  recursive_reads(ctx, reg, depth - 1);
}

TEST(SteppedEngine, FiberFallbackBodyBesideSteppedProcess) {
  const auto body_with = [](bool stepped_reader) {
    return ExecutionBody([stepped_reader](ScheduleDriver& driver) {
      Runtime rt;
      Register<> reg(0);
      rt.add_process([&](Context& ctx) { recursive_reads(ctx, reg, 3); });
      if (stepped_reader) {
        rt.add_stepped(SteppedRegisterReader{&reg, 3});
      } else {
        rt.add_process([&](Context& ctx) {
          for (int s = 0; s < 3; ++s) {
            reg.read(ctx);
          }
        });
      }
      rt.run(driver);
    });
  };
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  const auto fiber = Explorer::explore(body_with(false), opts);
  const auto mixed = Explorer::explore(body_with(true), opts);
  ASSERT_TRUE(fiber.ok());
  ASSERT_TRUE(mixed.ok());
  EXPECT_TRUE(fiber.complete);
  EXPECT_TRUE(mixed.complete);
  EXPECT_EQ(mixed.executions, fiber.executions);
}

// The register-built-snapshot configuration of Algorithm 5 is the flagship
// non-flattening body (helper calls looping over per-cell registers); its
// SteppedOp refuses it with a SimError pointing at the fallback rule.
TEST(SteppedEngine, RegisterSnapshotAlgorithm5StaysOnFibers) {
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    WrnFromSse object(3, /*use_register_snapshots=*/true);
    Value out = kBottom;
    rt.add_stepped(
        WrnFromSse::SteppedOp{&object, /*index=*/0, /*value=*/7,
                              /*history=*/nullptr, &out});
    rt.run(driver);
  };
  Explorer::Options opts;
  opts.max_executions = 4;
  const auto result = Explorer::explore(body, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.violation->find("fiber engine"), std::string::npos)
      << *result.violation;
}

// ...while the atomic-snapshot configuration explores identically on either
// engine, including the hang semantics of SSE election and the doorway.
TEST(SteppedEngine, Algorithm5SteppedMatchesFiber) {
  const auto body_with = [](bool stepped) {
    return ExecutionBody([stepped](ScheduleDriver& driver) {
      Runtime rt;
      WrnFromSse object(3);
      std::array<Value, 2> out{kBottom, kBottom};
      // Two of the three ports: enough to cover the doorway, the election
      // (winner and adopter), and both snapshot paths, while the unreduced
      // tree stays exhaustively explorable in test time.
      for (int p = 0; p < 2; ++p) {
        if (stepped) {
          rt.add_stepped(WrnFromSse::SteppedOp{
              &object, p, 100 + p, nullptr,
              &out[static_cast<std::size_t>(p)]});
        } else {
          rt.add_process([&, p](Context& ctx) {
            out[static_cast<std::size_t>(p)] =
                object.one_shot_wrn(ctx, p, 100 + p);
          });
        }
      }
      rt.run(driver);
      for (const Value v : out) {
        if (v != kBottom && (v < 100 || v > 102)) {
          throw SpecViolation("Algorithm 5 returned a never-written value");
        }
      }
    });
  };
  for (const Reduction reduction :
       {Reduction::kNone, Reduction::kSleepSets}) {
    Explorer::Options opts;
    opts.reduction = reduction;
    opts.max_executions = 2'000'000;
    const auto fiber = Explorer::explore(body_with(false), opts);
    const auto stepped = Explorer::explore(body_with(true), opts);
    ASSERT_TRUE(fiber.ok()) << *fiber.violation;
    ASSERT_TRUE(stepped.ok()) << *stepped.violation;
    EXPECT_TRUE(fiber.complete);
    EXPECT_TRUE(stepped.complete);
    EXPECT_EQ(stepped.executions, fiber.executions);
    EXPECT_EQ(stepped.reduced_subtrees, fiber.reduced_subtrees);
  }
}

// ---------------------------------------------------------------------------
// Replay + shrink over a mixed-engine world: a violating trace found by the
// explorer must replay (re-raising the violation) and delta-debug to a
// minimal reproducer that still replays, with a stepped process involved.

ExecutionBody violating_mixed_world() {
  return [](ScheduleDriver& driver) {
    Runtime rt;
    Register<> shared(0);
    Register<> own(0);
    Value seen = kBottom;
    rt.add_stepped(SteppedMixedWriter{&own, &shared, /*pid=*/7, /*steps=*/2});
    rt.add_process([&](Context& ctx) { seen = shared.read(ctx); });
    rt.run(driver);
    if (seen == 7) {
      throw SpecViolation("reader observed the stepped write");
    }
  };
}

TEST(SteppedEngine, MixedEngineViolationReplaysAndShrinks) {
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  const auto result = Explorer::explore(violating_mixed_world(), opts);
  ASSERT_FALSE(result.ok());
  ASSERT_FALSE(result.violating_trace.empty());
  EXPECT_THROW(Explorer::replay(violating_mixed_world(),
                                result.violating_trace),
               SpecViolation);
  const auto shrunk =
      Explorer::shrink(violating_mixed_world(), result.violating_trace);
  EXPECT_LE(shrunk.size(), result.violating_trace.size());
  EXPECT_THROW(Explorer::replay(violating_mixed_world(), shrunk),
               SpecViolation);
}

// ---------------------------------------------------------------------------
// Kernel contracts.

TEST(SteppedEngine, StateBlockDestructorRunsAtWorldTeardown) {
  struct DtorProbe {
    Register<>* reg;
    int* destroyed;
    DtorProbe(Register<>* r, int* d) : reg(r), destroyed(d) {}
    DtorProbe(DtorProbe&& o) noexcept : reg(o.reg), destroyed(o.destroyed) {
      o.destroyed = nullptr;
    }
    ~DtorProbe() {
      if (destroyed != nullptr) {
        ++*destroyed;
      }
    }
    void step(StepContext& ctx) {
      SUBC_STEP_BEGIN(ctx);
      SUBC_STEP_POINT(ctx, reg->oid(), AccessKind::kRead);
      static_cast<void>(reg->step_read(ctx));
      SUBC_STEP_END(ctx);
    }
  };
  int destroyed = 0;
  {
    Runtime rt;
    Register<> reg(0);
    rt.add_stepped(DtorProbe(&reg, &destroyed));
    RoundRobinDriver driver;
    rt.run(driver);
    EXPECT_EQ(destroyed, 0);  // block lives as long as the world
  }
  EXPECT_EQ(destroyed, 1);  // exactly the arena block, not the moved-from temp
}

TEST(SteppedEngine, BodyForgettingToSuspendIsDiagnosed) {
  struct Runaway {
    void step(StepContext& /*ctx*/) {}  // returns without suspend/finish
  };
  Runtime rt;
  rt.add_stepped(Runaway{});
  RoundRobinDriver driver;
  EXPECT_THROW(rt.run(driver), SimError);
}

TEST(SteppedEngine, AddSteppedAfterRunStartedThrows) {
  Runtime rt;
  Register<> reg(0);
  rt.add_stepped(SteppedRegisterReader{&reg, 1});
  RoundRobinDriver driver;
  rt.run(driver);
  EXPECT_THROW(rt.add_stepped(SteppedRegisterReader{&reg, 1}), SimError);
}

TEST(SteppedEngine, SteppedStateBlocksAreArenaCarved) {
  const AllocCounters before = alloc_counters();
  {
    Runtime rt;
    Register<> reg(0);
    for (int p = 0; p < 4; ++p) {
      rt.add_stepped(SteppedRegisterReader{&reg, 2});
    }
    RoundRobinDriver driver;
    rt.run(driver);
  }
  const AllocCounters after = alloc_counters();
  EXPECT_EQ(after.stepped_blocks_carved - before.stepped_blocks_carved, 4u);
  EXPECT_GE(after.stepped_block_bytes - before.stepped_block_bytes,
            4 * sizeof(SteppedRegisterReader));
}

// Every thread counts its carves into cells of its own; alloc_counters()
// must still see each of them exactly once, also after the threads exited.
TEST(SteppedEngine, CarveCountersSumOverExitedThreads) {
  constexpr int kThreads = 4;
  constexpr int kWorldsPerThread = 50;
  constexpr int kProcs = 3;
  const AllocCounters before = alloc_counters();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (int w = 0; w < kWorldsPerThread; ++w) {
          Runtime rt;
          Register<> reg(0);
          for (int p = 0; p < kProcs; ++p) {
            rt.add_stepped(SteppedRegisterReader{&reg, 2});
          }
          RoundRobinDriver driver;
          rt.run(driver);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  const AllocCounters after = alloc_counters();
  const std::uint64_t blocks = kThreads * kWorldsPerThread * kProcs;
  EXPECT_EQ(after.stepped_blocks_carved - before.stepped_blocks_carved,
            blocks);
  EXPECT_EQ(after.stepped_block_bytes - before.stepped_block_bytes,
            blocks * sizeof(SteppedRegisterReader));
}

TEST(SteppedEngine, CarveCountersSumOverParallelSearchWorkers) {
  // The mixed 4x4 world: 2,520 executions, enough that the workers, not
  // just the walker, build most of the worlds.
  constexpr int kProcs = 4;
  std::atomic<std::uint64_t> worlds{0};
  const ExecutionBody body = [&worlds](ScheduleDriver& driver) {
    worlds.fetch_add(1, std::memory_order_relaxed);
    Runtime rt;
    Register<> shared(0);
    RegisterArray<> own(kProcs, 0);
    for (int p = 0; p < kProcs; ++p) {
      rt.add_stepped(SteppedMixedWriter{&own[p], &shared, p, 4});
    }
    rt.run(driver);
  };
  Explorer::Options opts;
  opts.threads = 4;
  const AllocCounters before = alloc_counters();
  const Explorer::Result result = Explorer::explore(body, opts);
  const AllocCounters after = alloc_counters();
  ASSERT_TRUE(result.complete);
  ASSERT_TRUE(result.ok());
  const std::uint64_t blocks = worlds.load() * kProcs;
  EXPECT_GT(blocks, 0u);
  EXPECT_EQ(after.stepped_blocks_carved - before.stepped_blocks_carved,
            blocks);
  EXPECT_EQ(after.stepped_block_bytes - before.stepped_block_bytes,
            blocks * sizeof(SteppedMixedWriter));
}

}  // namespace
}  // namespace subc
