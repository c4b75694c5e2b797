// Schedule-policy layer: PCT randomized priorities, seed determinism of the
// randomized policies, and the RecordingPolicy journal they are pinned with.
#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "subc/objects/register.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/history.hpp"
#include "subc/runtime/policy.hpp"

namespace subc {
namespace {

// A small world with scheduling and object nondeterminism plus a recorded
// history, used to compare two runs of a policy end to end.
struct WorldRecord {
  std::string journal;
  std::string history_dump;
};

WorldRecord run_recorded(SchedulePolicy& policy) {
  RecordingPolicy recorder(policy);
  Runtime rt;
  RegisterArray<> regs(3, kBottom);
  History history;
  for (int p = 0; p < 3; ++p) {
    rt.add_process([&, p](Context& ctx) {
      const auto h = history.invoke(p, {p});
      regs[p].write(ctx, 10 + p);
      const Value seen = regs[(p + 1) % 3].read(ctx);
      const Value spice = ctx.choose(3);
      history.respond(h, {seen, spice});
    });
  }
  rt.run(recorder);
  return {recorder.format_journal(), history.dump()};
}

TEST(SeedDeterminism, RandomDriverSameSeedSameDecisionsAndHistory) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 12345ULL}) {
    RandomDriver a(seed);
    RandomDriver b(seed);
    const WorldRecord ra = run_recorded(a);
    const WorldRecord rb = run_recorded(b);
    EXPECT_EQ(ra.journal, rb.journal) << "seed=" << seed;
    EXPECT_EQ(ra.history_dump, rb.history_dump) << "seed=" << seed;
  }
}

TEST(SeedDeterminism, RandomDriverDifferentSeedsDiverge) {
  RandomDriver a(1);
  RandomDriver b(2);
  // Not a guarantee in general, but this world has 90 schedules — seeds 1
  // and 2 landing on the same one would itself be suspicious.
  EXPECT_NE(run_recorded(a).journal, run_recorded(b).journal);
}

TEST(SeedDeterminism, PctSameSeedSameDecisionsAndHistory) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 999ULL}) {
    PctPolicy a(seed, /*depth=*/3, /*horizon=*/64);
    PctPolicy b(seed, /*depth=*/3, /*horizon=*/64);
    const WorldRecord ra = run_recorded(a);
    const WorldRecord rb = run_recorded(b);
    EXPECT_EQ(ra.journal, rb.journal) << "seed=" << seed;
    EXPECT_EQ(ra.history_dump, rb.history_dump) << "seed=" << seed;
  }
}

TEST(SeedDeterminism, PctReplaysIdenticallyAcrossConsecutiveRuns) {
  // begin_run re-derives all PCT state from the seed, so one policy object
  // drives the same schedule again on its next run.
  PctPolicy policy(7, 2, 64);
  const WorldRecord first = run_recorded(policy);
  const WorldRecord second = run_recorded(policy);
  EXPECT_EQ(first.journal, second.journal);
  EXPECT_EQ(first.history_dump, second.history_dump);
}

TEST(SeedDeterminism, IdenticalAcrossThreadCounts) {
  // The decision trace depends only on the seed, never on which thread the
  // run happens on or how many run concurrently.
  const auto run_on_thread = [](std::uint64_t seed) {
    WorldRecord out;
    std::thread t([&]() {
      PctPolicy policy(seed, 3, 64);
      out = run_recorded(policy);
    });
    t.join();
    return out;
  };
  for (const std::uint64_t seed : {3ULL, 11ULL}) {
    PctPolicy here(seed, 3, 64);
    const WorldRecord main_thread = run_recorded(here);
    const WorldRecord worker_a = run_on_thread(seed);
    // Two runs racing on sibling threads still record identical journals.
    WorldRecord race_a;
    WorldRecord race_b;
    std::thread ta([&]() {
      PctPolicy policy(seed, 3, 64);
      race_a = run_recorded(policy);
    });
    std::thread tb([&]() {
      PctPolicy policy(seed, 3, 64);
      race_b = run_recorded(policy);
    });
    ta.join();
    tb.join();
    EXPECT_EQ(main_thread.journal, worker_a.journal) << "seed=" << seed;
    EXPECT_EQ(main_thread.journal, race_a.journal) << "seed=" << seed;
    EXPECT_EQ(main_thread.journal, race_b.journal) << "seed=" << seed;
    EXPECT_EQ(main_thread.history_dump, race_a.history_dump);
  }
}

TEST(PctPolicy, RejectsBadParameters) {
  EXPECT_THROW(PctPolicy(1, 0, 64), SimError);
  EXPECT_THROW(PctPolicy(1, 2, 0), SimError);
}

TEST(SeedDeterminism, DelayBoundedSameSeedSameDecisionsAndHistory) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 999ULL}) {
    DelayBoundedPolicy a(seed, /*delays=*/2, /*horizon=*/64);
    DelayBoundedPolicy b(seed, /*delays=*/2, /*horizon=*/64);
    const WorldRecord ra = run_recorded(a);
    const WorldRecord rb = run_recorded(b);
    EXPECT_EQ(ra.journal, rb.journal) << "seed=" << seed;
    EXPECT_EQ(ra.history_dump, rb.history_dump) << "seed=" << seed;
  }
}

TEST(SeedDeterminism, DelayBoundedReplaysIdenticallyAcrossConsecutiveRuns) {
  DelayBoundedPolicy policy(7, 2, 64);
  const WorldRecord first = run_recorded(policy);
  const WorldRecord second = run_recorded(policy);
  EXPECT_EQ(first.journal, second.journal);
  EXPECT_EQ(first.history_dump, second.history_dump);
}

TEST(DelayBoundedPolicy, RejectsBadParameters) {
  EXPECT_THROW(DelayBoundedPolicy(1, -1, 64), SimError);
  EXPECT_THROW(DelayBoundedPolicy(1, 2, 0), SimError);
}

// A choose-free world so delay-bounded journals compare against pure
// round-robin grant-for-grant (RoundRobinDriver's choose is always 0; the
// delay-bounded policy draws choices from its PRNG).
WorldRecord run_grants_only(SchedulePolicy& policy) {
  RecordingPolicy recorder(policy);
  Runtime rt;
  RegisterArray<> regs(3, kBottom);
  for (int p = 0; p < 3; ++p) {
    rt.add_process([&, p](Context& ctx) {
      for (int i = 0; i < 3; ++i) {
        regs[p].write(ctx, i);
      }
    });
  }
  rt.run(recorder);
  return {recorder.format_journal(), {}};
}

TEST(DelayBoundedPolicy, ZeroDelaysIsExactlyRoundRobin) {
  for (const std::uint64_t seed : {1ULL, 99ULL}) {
    DelayBoundedPolicy db(seed, /*delays=*/0, /*horizon=*/64);
    RoundRobinDriver rr;
    EXPECT_EQ(run_grants_only(db).journal, run_grants_only(rr).journal)
        << "seed=" << seed;
    EXPECT_EQ(db.delays_used(), 0);
  }
}

TEST(DelayBoundedPolicy, DelaysPerturbTheBaseSchedule) {
  RoundRobinDriver rr;
  const std::string base = run_grants_only(rr).journal;
  bool diverged = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    DelayBoundedPolicy db(seed, /*delays=*/3, /*horizon=*/16);
    const std::string j = run_grants_only(db).journal;
    EXPECT_LE(db.delays_used(), 3) << "seed=" << seed;
    if (j != base) {
      diverged = true;
    }
  }
  // A budget of 3 delays in a 9-step run perturbs round-robin for at least
  // one of eight seeds (in fact nearly all of them).
  EXPECT_TRUE(diverged);
}

TEST(DelayBoundedPolicy, DelayBudgetIsRespectedAndObservable) {
  // Every delay point lands in [0, horizon); with horizon 1 all of them
  // fire on the very first pick, so the budget is spent at once and the
  // rest of the run is pure round-robin from the delayed start.
  DelayBoundedPolicy db(3, /*delays=*/2, /*horizon=*/1);
  run_grants_only(db);
  EXPECT_EQ(db.delays_used(), 2);
}

TEST(PctPolicy, HighestPriorityProcessRunsSolo) {
  // With depth 1 there are no change points: whichever process draws the
  // top priority runs to completion before anyone else steps. The journal
  // must therefore grant one pid until it finishes.
  PctPolicy policy(5, 1, 64);
  RecordingPolicy recorder(policy);
  Runtime rt;
  RegisterArray<> regs(2, kBottom);
  for (int p = 0; p < 2; ++p) {
    rt.add_process([&, p](Context& ctx) {
      for (int i = 0; i < 4; ++i) {
        regs[p].write(ctx, i);
      }
    });
  }
  rt.run(recorder);
  int first_pid = -1;
  bool switched = false;
  int switches = 0;
  for (const auto& e : recorder.journal()) {
    if (e.kind != RecordingPolicy::Event::Kind::kGrant) {
      continue;
    }
    if (first_pid == -1) {
      first_pid = static_cast<int>(e.a);
    } else if (static_cast<int>(e.a) != first_pid && !switched) {
      switched = true;
    } else if (static_cast<int>(e.a) == first_pid && switched) {
      ++switches;  // returned to the first pid after leaving it: preemption
    }
  }
  EXPECT_EQ(switches, 0)
      << "depth-1 PCT preempted the top-priority process: "
      << recorder.format_journal();
}

// ---------------------------------------------------------------------------
// Capability: a depth-2 ordering bug that uniform random search essentially
// never hits, but PCT flushes with a handful of seeds.
//
// The world: p0 performs `kWork` writes and then sets a flag; p1 reads the
// flag once. The seeded "violation" fires only when p1 reads the flag
// *after* p0 completed everything — i.e. only when p0's entire 22-step run
// precedes p1's single step. A uniform random scheduler picks p0 at every
// of the first 22 binary decision points with probability 2^-22 ≈ 2e-7, so
// 10k seeds miss it (the test asserts they do). PCT gives p0 the top
// priority with probability 1/2 and then runs it solo — half of all seeds
// find the violation immediately.
// ---------------------------------------------------------------------------

constexpr int kWork = 21;

ExecutionBody rare_ordering_world() {
  return [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> cells(kWork, kBottom);
    Register<Value> flag(0);
    Value seen = -1;
    rt.add_process([&](Context& ctx) {
      for (int i = 0; i < kWork; ++i) {
        cells[i].write(ctx, i);
      }
      flag.write(ctx, 1);
    });
    rt.add_process([&](Context& ctx) { seen = flag.read(ctx); });
    rt.run(driver);
    if (seen == 1) {
      throw SpecViolation("p1 observed the flag after p0 finished everything");
    }
  };
}

TEST(PctCapability, TenThousandUniformRandomSchedulesMissTheBug) {
  const auto sweep = RandomSweep::run(rare_ordering_world(), 10'000,
                                      /*first_seed=*/1, /*threads=*/4);
  EXPECT_TRUE(sweep.ok()) << "uniform random unexpectedly found the bug at "
                             "seed "
                          << *sweep.failing_seed;
  EXPECT_EQ(sweep.runs, 10'000);
}

TEST(PctCapability, PctFindsTheBugWithinAFixedSeedSet) {
  // A small fixed set of seeds; at depth 1 each has probability 1/2. All
  // eight missing would be a 1-in-256 event — and the schedule is
  // deterministic per seed, so this test cannot flake.
  const ExecutionBody body = rare_ordering_world();
  bool found = false;
  std::uint64_t found_seed = 0;
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    PctPolicy policy(seed, /*depth=*/1, /*horizon=*/32);
    if (run_one(body, policy)) {
      found = true;
      found_seed = seed;
      break;
    }
  }
  EXPECT_TRUE(found) << "no PCT seed in the fixed set flushed the ordering "
                        "bug that uniform random misses";
  if (found) {
    // Reproducibility: the same seed finds it again.
    PctPolicy again(found_seed, 1, 32);
    EXPECT_TRUE(run_one(body, again).has_value());
  }
}

TEST(RecordingPolicy, JournalIsTransparent) {
  // Attaching the recorder must not change what the inner policy does.
  RandomDriver bare(99);
  const WorldRecord with_recorder = run_recorded(bare);

  // Re-run the same seed without the recorder and re-derive the grant
  // sequence from a second recording — identical journals mean the first
  // recorder did not perturb the inner policy's PRNG stream.
  RandomDriver fresh(99);
  const WorldRecord again = run_recorded(fresh);
  EXPECT_EQ(with_recorder.journal, again.journal);
  EXPECT_FALSE(with_recorder.journal.empty());
}

TEST(RecordingPolicy, ResetClearsTheJournal) {
  RoundRobinDriver rr;
  RecordingPolicy recorder(rr);
  Runtime rt;
  RegisterArray<> regs(2, kBottom);
  for (int p = 0; p < 2; ++p) {
    rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
  }
  rt.run(recorder);
  EXPECT_FALSE(recorder.journal().empty());
  recorder.reset();
  EXPECT_TRUE(recorder.journal().empty());
}

TEST(RecordingPolicy, CutsPassThroughDecoratorsUnjournaled) {
  // The inner driver records one fresh decision, then cuts. The cut
  // reaches the kernel unchanged through both decorators: it is neither
  // journaled nor counted as a grant, and nothing indexes `enabled` by it.
  ReplayDriver inner;
  inner.set_decision_limit(1);
  CrashAdversary adversary(inner, std::vector<CrashAdversary::CrashPoint>{});
  RecordingPolicy recorder(adversary);
  Runtime rt;
  RegisterArray<> regs(2, kBottom);
  for (int p = 0; p < 2; ++p) {
    rt.add_process([&, p](Context& ctx) {
      regs[p].write(ctx, p);
      regs[p].write(ctx, p + 2);
    });
  }
  const auto result = rt.run(recorder);
  EXPECT_TRUE(result.cut);
  EXPECT_EQ(result.total_steps, 1);
  EXPECT_EQ(recorder.format_journal(), "g0/2");
  EXPECT_EQ(inner.cut(), ReplayDriver::Cut::kFrontier);
}

}  // namespace
}  // namespace subc
