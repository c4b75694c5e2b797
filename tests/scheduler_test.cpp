// Dedicated tests for the schedule drivers (the adversary implementations):
// round-robin ordering, scripted fallback behaviour, replay-prefix
// semantics and arity consistency, trace formatting.
#include "subc/runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>

#include "subc/objects/register.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

TEST(RoundRobin, CyclesThroughEnabledPids) {
  RoundRobinDriver driver;
  const std::array<int, 3> enabled{0, 1, 2};
  EXPECT_EQ(driver.pick(enabled), 0u);
  EXPECT_EQ(driver.pick(enabled), 1u);
  EXPECT_EQ(driver.pick(enabled), 2u);
  EXPECT_EQ(driver.pick(enabled), 0u);  // wraps
}

TEST(RoundRobin, SkipsDisabledPids) {
  RoundRobinDriver driver;
  const std::array<int, 3> all{0, 1, 2};
  EXPECT_EQ(driver.pick(all), 0u);
  // pid 1 vanished: next-greater is 2 at index 1.
  const std::array<int, 2> reduced{0, 2};
  EXPECT_EQ(reduced[driver.pick(reduced)], 2);
  EXPECT_EQ(reduced[driver.pick(reduced)], 0);
}

TEST(RoundRobin, ChoiceAlwaysZero) {
  RoundRobinDriver driver;
  EXPECT_EQ(driver.choose(5), 0u);
  EXPECT_EQ(driver.choose(1), 0u);
}

TEST(Scripted, FollowsScriptWhileValid) {
  ScriptedDriver driver({2, 0, 2});
  const std::array<int, 3> enabled{0, 1, 2};
  EXPECT_EQ(enabled[driver.pick(enabled)], 2);
  EXPECT_EQ(enabled[driver.pick(enabled)], 0);
  EXPECT_EQ(enabled[driver.pick(enabled)], 2);
}

TEST(Scripted, FallsBackToFirstEnabled) {
  ScriptedDriver driver({7});  // 7 never enabled
  const std::array<int, 2> enabled{3, 5};
  EXPECT_EQ(enabled[driver.pick(enabled)], 3);
  // Script exhausted: first enabled again.
  EXPECT_EQ(enabled[driver.pick(enabled)], 3);
}

TEST(Replay, ExtendsWithFirstOptionsAndRecords) {
  ReplayDriver driver;
  const std::array<int, 3> enabled{0, 1, 2};
  EXPECT_EQ(driver.pick(enabled), 0u);
  EXPECT_EQ(driver.choose(4), 0u);
  ASSERT_EQ(driver.trace().size(), 2u);
  EXPECT_EQ(driver.trace()[0].arity, 3u);
  EXPECT_EQ(driver.trace()[1].arity, 4u);
}

TEST(Replay, ReplaysPrefixThenExtends) {
  std::vector<ReplayDriver::Decision> prefix{{2, 3}, {1, 2}};
  ReplayDriver driver(prefix);
  const std::array<int, 3> three{0, 1, 2};
  const std::array<int, 2> two{0, 1};
  EXPECT_EQ(driver.pick(three), 2u);
  EXPECT_EQ(driver.choose(2), 1u);
  EXPECT_EQ(driver.pick(two), 0u);  // beyond prefix: first option
  EXPECT_EQ(driver.trace().size(), 3u);
}

TEST(Replay, DetectsArityDrift) {
  // If the world is not deterministic given the decision string, the
  // recorded arity will not match — that must be loud, not silent.
  std::vector<ReplayDriver::Decision> prefix{{0, 3}};
  ReplayDriver driver(prefix);
  const std::array<int, 2> two{0, 1};  // arity 2, recorded 3
  EXPECT_THROW(driver.pick(two), SimError);
}

TEST(Replay, RejectsOutOfRangeChosen) {
  std::vector<ReplayDriver::Decision> prefix{{5, 3}};
  ReplayDriver driver(prefix);
  const std::array<int, 3> three{0, 1, 2};
  EXPECT_THROW(driver.pick(three), SimError);
}

TEST(Replay, EmptyEnabledSetIsALoudError) {
  // A pick with nothing enabled can only come from a kernel bug or a driver
  // misuse; it must throw SimError, never index into an empty span.
  ReplayDriver driver;
  EXPECT_THROW(driver.pick(std::span<const int>{}), SimError);
}

TEST(Replay, ChooseArityZeroIsALoudError) {
  ReplayDriver driver;
  EXPECT_THROW(driver.choose(0), SimError);
  // The guard must not corrupt the driver: a legal choice still works.
  EXPECT_EQ(driver.choose(2), 0u);
  EXPECT_EQ(driver.trace().size(), 1u);
}

TEST(Replay, SleepSetSkipsCommutingOptionOnAdvance) {
  // Two enabled processes whose pending steps are reads of the same object:
  // after exploring pid 0 first, pid 1's branch is equivalent (read∥read
  // commutes) — replaying the recorded decision keeps the stored metadata so
  // the explorer's advance() can prove the sibling redundant.
  ReplayDriver driver;
  driver.set_reduction(true);
  const std::array<int, 2> enabled{0, 1};
  const std::array<Access, 2> fps{Access{7, AccessKind::kRead},
                                  Access{7, AccessKind::kRead}};
  EXPECT_EQ(driver.pick(enabled, fps), 0u);
  ASSERT_EQ(driver.trace().size(), 1u);
  const ReplayDriver::Decision d = driver.trace()[0];
  EXPECT_EQ(d.enabled, 0b11u);
  EXPECT_EQ(d.sleep, 0u);
  EXPECT_EQ(driver.reduced(), 0);
}

TEST(Replay, DependentFootprintsRecordNoSleepers) {
  // A write∥write conflict on one object: granting pid 1 second does NOT put
  // the earlier sibling pid 0 to sleep, because the two steps do not commute
  // — its subtree may reach schedules the pid-0-first branch cannot.
  std::vector<ReplayDriver::Decision> prefix{{1, 2, 0b11, 0}};
  ReplayDriver driver(std::move(prefix));
  driver.set_reduction(true);
  const std::array<int, 2> enabled{0, 1};
  const std::array<Access, 2> fps{Access{3, AccessKind::kWrite},
                                  Access{3, AccessKind::kWrite}};
  EXPECT_EQ(driver.pick(enabled, fps), 1u);
  // Fresh decision below: pid 0 is awake, so it is explored, not skipped.
  EXPECT_EQ(driver.pick(enabled, fps), 0u);
  EXPECT_EQ(driver.trace()[1].sleep, 0u);
  EXPECT_EQ(driver.reduced(), 0);
}

TEST(Replay, IndependentSiblingFallsAsleepBelowTheGrantedStep) {
  // Replaying a bumped decision {chosen=1}: pid 0's subtree was explored by
  // the earlier sibling branch, and its pending step (write obj 3) commutes
  // with the granted one (write obj 9) — so pid 0 sleeps below this node and
  // the next fresh decision skips straight past it.
  std::vector<ReplayDriver::Decision> prefix{{1, 2, 0b11, 0}};
  ReplayDriver driver(std::move(prefix));
  driver.set_reduction(true);
  const std::array<int, 2> enabled{0, 1};
  const std::array<Access, 2> fps{Access{3, AccessKind::kWrite},
                                  Access{9, AccessKind::kWrite}};
  EXPECT_EQ(driver.pick(enabled, fps), 1u);
  // pid 0 (the earlier sibling, independent of the granted step) now sleeps:
  // a fresh decision with both enabled and pid 0 still independent skips
  // straight to pid 1.
  const std::array<Access, 2> next{Access{3, AccessKind::kWrite},
                                   Access{9, AccessKind::kRead}};
  EXPECT_EQ(driver.pick(enabled, next), 1u);
  EXPECT_EQ(driver.reduced(), 1);
  ASSERT_EQ(driver.trace().size(), 2u);
  EXPECT_EQ(driver.trace()[1].sleep, 0b01u);
}

// --- Cuts are answers: a cut ReplayDriver answers kCut and stays cut ------

using Cut = ReplayDriver::Cut;

TEST(ReplayCut, SleepSetCutIsAnAnswerNotAThrow) {
  // Replaying {chosen=1} puts pid 0 to sleep (its write commutes with the
  // granted one); a forced step by the sleeping pid 0 is then redundant.
  std::vector<ReplayDriver::Decision> prefix{{1, 2, 0b11, 0}};
  ReplayDriver driver(std::move(prefix));
  driver.set_reduction(true);
  const std::array<int, 2> enabled{0, 1};
  const std::array<Access, 2> fps{Access{3, AccessKind::kWrite},
                                  Access{9, AccessKind::kWrite}};
  EXPECT_EQ(driver.pick(enabled, fps), 1u);
  EXPECT_EQ(driver.cut(), Cut::kNone);
  const std::array<int, 1> only_zero{0};
  const std::array<Access, 1> fp0{Access{3, AccessKind::kWrite}};
  EXPECT_EQ(driver.pick(only_zero, fp0), SchedulePolicy::kCut);
  EXPECT_EQ(driver.cut(), Cut::kSleep);
  EXPECT_EQ(driver.reduced(), 1);
}

TEST(ReplayCut, CutDriverAnswersCutToPicksAndZeroToEverythingElse) {
  ReplayDriver driver;
  driver.set_decision_limit(0);
  driver.set_max_crashes(1);
  const std::array<int, 2> enabled{0, 1};
  EXPECT_EQ(driver.pick(enabled), SchedulePolicy::kCut);
  EXPECT_EQ(driver.cut(), Cut::kFrontier);
  EXPECT_TRUE(driver.trace().empty());  // nothing recorded past the limit
  EXPECT_EQ(driver.choose(3), 0u);
  EXPECT_EQ(driver.crash_requests(enabled), 0u);
  const std::array<int, 1> crashed{1};
  EXPECT_EQ(driver.recovery_requests(crashed), 0u);
  driver.begin_run();  // the cut spans the whole execution
  EXPECT_EQ(driver.cut(), Cut::kFrontier);
  EXPECT_EQ(driver.pick(enabled), SchedulePolicy::kCut);
  EXPECT_TRUE(driver.trace().empty());
}

TEST(ReplayCut, CutDriverStopsASecondRunAtItsFirstDecisionPoint) {
  ReplayDriver driver;
  driver.set_decision_limit(0);
  {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) { regs[p].write(ctx, p); });
    }
    const auto first = rt.run(driver);
    EXPECT_TRUE(first.cut);
    EXPECT_EQ(first.total_steps, 0);
  }
  // One process: its picks are forced (arity 1) and would never cut on
  // their own, yet the cut driver grants it nothing.
  Runtime rt;
  Register<> reg(kBottom);
  bool wrote = false;
  rt.add_process([&](Context& ctx) {
    reg.write(ctx, 1);
    wrote = true;
  });
  const auto second = rt.run(driver);
  EXPECT_TRUE(second.cut);
  EXPECT_FALSE(second.quiescent);
  EXPECT_EQ(second.total_steps, 0);
  EXPECT_FALSE(wrote);
}

TEST(ReplayCut, StatefulProbeCutLandsAtTheNextPick) {
  detail::VisitedSet visited(64);
  ReplayDriver driver;
  driver.set_stateful(&visited);
  driver.set_max_crashes(1);
  driver.on_state_fp(0x1234, true);  // first visit: inserted
  EXPECT_EQ(driver.cut(), Cut::kNone);
  driver.on_state_fp(0x1234, true);  // same (state, sleep-set): seen
  EXPECT_EQ(driver.cut(), Cut::kStateful);
  const std::array<int, 2> enabled{0, 1};
  EXPECT_EQ(driver.crash_requests(enabled), 0u);  // no crash branching
  EXPECT_TRUE(driver.trace().empty());
  EXPECT_EQ(driver.pick(enabled), SchedulePolicy::kCut);
  EXPECT_TRUE(driver.trace().empty());
}

TEST(ReplayCut, CrashAndRecoveryCutsLandAtTheNextPick) {
  const std::array<int, 2> enabled{0, 1};
  {
    // Frontier cut raised by a fresh crash decision: "no crash" answered.
    ReplayDriver driver;
    driver.set_decision_limit(0);
    driver.set_max_crashes(1);
    EXPECT_EQ(driver.crash_requests(enabled), 0u);
    EXPECT_EQ(driver.cut(), Cut::kFrontier);
    EXPECT_EQ(driver.pick(enabled), SchedulePolicy::kCut);
  }
  {
    // Prune cut on a fresh crash decision: recorded (as "no crash", so the
    // explorer's backtracking bumps through the victims), then cut.
    const ReplayDriver::PruneFn prune =
        [](std::span<const ReplayDriver::Decision>) { return true; };
    ReplayDriver driver;
    driver.set_prune(&prune);
    driver.set_max_crashes(1);
    EXPECT_EQ(driver.crash_requests(enabled), 0u);
    EXPECT_EQ(driver.cut(), Cut::kPrune);
    ASSERT_EQ(driver.trace().size(), 1u);
    EXPECT_TRUE(driver.trace()[0].crash);
    EXPECT_EQ(driver.pick(enabled), SchedulePolicy::kCut);
    EXPECT_EQ(driver.trace().size(), 1u);
  }
  {
    // Frontier cut raised by a fresh recovery decision.
    ReplayDriver driver;
    driver.set_decision_limit(0);
    driver.set_max_recoveries(1);
    const std::array<int, 1> crashed{1};
    EXPECT_EQ(driver.recovery_requests(crashed), 0u);
    EXPECT_EQ(driver.cut(), Cut::kFrontier);
    const std::array<int, 1> survivor{0};
    EXPECT_EQ(driver.pick(survivor), SchedulePolicy::kCut);
  }
}

TEST(ReplayCut, ChooseCutsAnsweringCut) {
  const ReplayDriver::PruneFn prune =
      [](std::span<const ReplayDriver::Decision> t) { return t.size() == 2; };
  ReplayDriver driver;
  driver.set_prune(&prune);
  EXPECT_EQ(driver.choose(3), 0u);
  EXPECT_EQ(driver.choose(2), SchedulePolicy::kCut);  // recorded, then cut
  EXPECT_EQ(driver.cut(), Cut::kPrune);
  EXPECT_EQ(driver.trace().size(), 2u);
  EXPECT_EQ(driver.choose(2), 0u);  // once cut: option 0, nothing recorded
  EXPECT_EQ(driver.trace().size(), 2u);
}

TEST(ReplayCut, StepQuotaStillThrows) {
  // The watchdog is the one cut that stays a throw: a livelocked run must
  // not carry on past it.
  ReplayDriver driver;
  driver.set_step_quota(2);
  const std::array<int, 2> enabled{0, 1};
  EXPECT_EQ(driver.pick(enabled), 0u);
  EXPECT_EQ(driver.pick(enabled), 0u);
  EXPECT_THROW(static_cast<void>(driver.pick(enabled)), StuckCut);
  EXPECT_EQ(driver.cut(), Cut::kNone);
}

TEST(Random, SameSeedSameDecisions) {
  RandomDriver a(99);
  RandomDriver b(99);
  const std::array<int, 4> enabled{0, 1, 2, 3};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.pick(enabled), b.pick(enabled));
    EXPECT_EQ(a.choose(7), b.choose(7));
  }
}

TEST(Random, ChoicesStayInRange) {
  RandomDriver driver(5);
  const std::array<int, 3> enabled{0, 1, 2};
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(driver.pick(enabled), 3u);
    EXPECT_LT(driver.choose(4), 4u);
  }
}

TEST(FormatTrace, RendersDecisions) {
  std::vector<ReplayDriver::Decision> trace{{0, 2}, {1, 3}};
  EXPECT_EQ(format_trace(trace), "0/2 1/3");
  EXPECT_EQ(format_trace({}), "");
}

}  // namespace
}  // namespace subc
