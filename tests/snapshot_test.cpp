// Tests for the register-built wait-free snapshot (AADGMS) and its
// interchangeability with the atomic base object.
#include "subc/algorithms/snapshot_impl.hpp"

#include <gtest/gtest.h>

#include "subc/objects/snapshot.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

TEST(SnapshotFromRegisters, SequentialUpdateScan) {
  Runtime rt;
  SnapshotFromRegisters<> snap(3, kBottom);
  rt.add_process([&](Context& ctx) {
    snap.update(ctx, 0, 1);
    snap.update(ctx, 1, 2);
    const auto view = snap.scan(ctx);
    EXPECT_EQ(view, (std::vector<Value>{1, 2, kBottom}));
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

// Regularity: a scan returns, per cell, a value that was current at some
// point during the scan — under *every* schedule (exhaustive, 2 writers +
// 1 scanner). With monotonically increasing per-cell values this means the
// scanned value lies between the value at scan start and at scan end.
TEST(SnapshotFromRegisters, ScansAreCurrentUnderAllSchedules) {
  const auto result = Explorer::explore(
      [](ScheduleDriver& driver) {
        Runtime rt;
        SnapshotFromRegisters<> snap(2, 0);
        std::vector<Value> view;
        for (int w = 0; w < 2; ++w) {
          rt.add_process([&, w](Context& ctx) {
            snap.update(ctx, w, 1);
            snap.update(ctx, w, 2);
          });
        }
        rt.add_process([&](Context& ctx) { view = snap.scan(ctx); });
        rt.run(driver);
        for (const Value v : view) {
          if (v < 0 || v > 2) {
            throw SpecViolation("scan returned a value never written");
          }
        }
      },
      Explorer::Options{.max_executions = 60'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
}

// Atomicity (the distinguishing snapshot property): two writers each write
// their cell then scan; at least one must see the other's write. A mere
// regular collect could miss both ways; an atomic snapshot cannot.
TEST(SnapshotFromRegisters, NoMutualMissUnderAnySchedule) {
  const auto result = Explorer::explore(
      [](ScheduleDriver& driver) {
        Runtime rt;
        SnapshotFromRegisters<> snap(2, kBottom);
        std::vector<std::vector<Value>> views(2);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            snap.update(ctx, p, 1);
            views[static_cast<std::size_t>(p)] = snap.scan(ctx);
          });
        }
        if (rt.run(driver).cut) {
          return;  // a partial world: a scan may not have returned
        }
        const bool p0_sees_p1 = views[0][1] != kBottom;
        const bool p1_sees_p0 = views[1][0] != kBottom;
        if (!p0_sees_p1 && !p1_sees_p0) {
          throw SpecViolation("both scans missed the other's update");
        }
      },
      Explorer::Options{.max_executions = 200'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
}

// Scan-ordering atomicity: concurrent scans must be totally ordered — the
// views of two scans of monotone counters must be comparable (one
// pointwise-≤ the other). This fails for double-collect-free "collects" but
// must hold for linearizable snapshots.
TEST(SnapshotFromRegisters, ConcurrentScansAreComparable) {
  const auto result = Explorer::explore(
      [](ScheduleDriver& driver) {
        Runtime rt;
        SnapshotFromRegisters<> snap(2, 0);
        std::vector<std::vector<Value>> views(2);
        rt.add_process([&](Context& ctx) {
          snap.update(ctx, 0, 1);
          snap.update(ctx, 0, 2);
        });
        rt.add_process([&](Context& ctx) {
          snap.update(ctx, 1, 1);
        });
        for (int s = 0; s < 2; ++s) {
          rt.add_process([&, s](Context& ctx) {
            views[static_cast<std::size_t>(s)] = snap.scan(ctx);
          });
        }
        if (rt.run(driver).cut) {
          return;  // a partial world: the scanners may not have finished
        }
        const auto leq = [](const std::vector<Value>& a,
                            const std::vector<Value>& b) {
          for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i] > b[i]) {
              return false;
            }
          }
          return true;
        };
        if (!leq(views[0], views[1]) && !leq(views[1], views[0])) {
          throw SpecViolation("concurrent scans incomparable");
        }
      },
      Explorer::Options{.max_executions = 120'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(SnapshotFromRegisters, WaitFreeUnderSingleWriterStarvation) {
  // The scanner terminates even while a writer keeps moving: the borrowed-
  // view path. Scripted schedule: scanner's collects repeatedly interrupted.
  Runtime rt;
  SnapshotFromRegisters<> snap(2, 0);
  std::vector<Value> view;
  rt.add_process([&](Context& ctx) {  // pid 0: busy writer
    for (int i = 1; i <= 6; ++i) {
      snap.update(ctx, 0, i);
    }
  });
  rt.add_process([&](Context& ctx) { view = snap.scan(ctx); });  // pid 1
  // Alternate single steps: writer, scanner, writer, scanner, ...
  std::vector<int> script;
  for (int i = 0; i < 200; ++i) {
    script.push_back(i % 2);
  }
  ScriptedDriver driver(script);
  const auto result = rt.run(driver);
  EXPECT_EQ(result.states[1], ProcState::kDone);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_GE(view[0], 0);
  EXPECT_LE(view[0], 6);
}

TEST(AtomicSnapshotAndRegisterSnapshotAgree, SameSequentialBehaviour) {
  Runtime rt;
  AtomicSnapshot<> atomic(3, kBottom);
  SnapshotFromRegisters<> built(3, kBottom);
  rt.add_process([&](Context& ctx) {
    atomic.update(ctx, 1, 7);
    built.update(ctx, 1, 7);
    EXPECT_EQ(atomic.scan(ctx), built.scan(ctx));
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(SnapshotFromRegisters, CompositePayloads) {
  Runtime rt;
  SnapshotFromRegisters<std::vector<Value>> snap(2, {});
  rt.add_process([&](Context& ctx) {
    snap.update(ctx, 0, {1, 2, 3});
    const auto view = snap.scan(ctx);
    EXPECT_EQ(view[0], (std::vector<Value>{1, 2, 3}));
    EXPECT_TRUE(view[1].empty());
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

}  // namespace
}  // namespace subc
