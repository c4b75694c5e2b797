// Tests for Herlihy's universal construction: linearizable wait-free
// objects for n processes from n-consensus objects and registers.
#include "subc/algorithms/universal.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "subc/checking/linearizability.hpp"
#include "subc/checking/progress.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"

namespace subc {
namespace {

/// Sequential counter spec: op {0, d} = add d (returns previous value);
/// op {1} = read.
struct CounterSpec {
  struct State {
    Value total = 0;
  };
  [[nodiscard]] State initial() const { return {}; }
  bool apply(State& s, std::span<const Value> op,
             std::vector<Value>& response) const {
    if (op[0] == 0) {
      response = {s.total};
      s.total += op[1];
    } else {
      response = {s.total};
    }
    return true;
  }
  [[nodiscard]] std::string key(const State& s) const {
    return std::to_string(s.total);
  }
};

/// Sequential queue spec: op {0, v} = enqueue (returns {}); op {1} =
/// dequeue (returns {front or ⊥}).
struct QueueSpec {
  struct State {
    std::vector<Value> items;
  };
  [[nodiscard]] State initial() const { return {}; }
  bool apply(State& s, std::span<const Value> op,
             std::vector<Value>& response) const {
    if (op[0] == 0) {
      s.items.push_back(op[1]);
      response = {};
    } else {
      if (s.items.empty()) {
        response = {kBottom};
      } else {
        response = {s.items.front()};
        s.items.erase(s.items.begin());
      }
    }
    return true;
  }
  [[nodiscard]] std::string key(const State& s) const {
    std::string k;
    for (const Value v : s.items) {
      k += std::to_string(v) + ",";
    }
    return k;
  }
};

TEST(Universal, SequentialCounterBehaviour) {
  Runtime rt;
  UniversalObject<CounterSpec> counter(CounterSpec{}, 1, 16);
  rt.add_process([&](Context& ctx) {
    EXPECT_EQ(counter.apply(ctx, {0, 5}), (std::vector<Value>{0}));
    EXPECT_EQ(counter.apply(ctx, {0, 3}), (std::vector<Value>{5}));
    EXPECT_EQ(counter.apply(ctx, {1}), (std::vector<Value>{8}));
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(Universal, FetchAddIsLinearizableUnderAllSchedules) {
  // 2 processes x 1 fetch-add each, exhaustive: responses must form a
  // permutation {0, d} — the atomic counter semantics.
  const auto result = Explorer::explore(
      [](ScheduleDriver& driver) {
        Runtime rt;
        UniversalObject<CounterSpec> counter(CounterSpec{}, 2, 12);
        std::vector<Value> previous(2, -1);
        for (int p = 0; p < 2; ++p) {
          rt.add_process([&, p](Context& ctx) {
            previous[static_cast<std::size_t>(p)] =
                counter.apply(ctx, {0, 10 + p})[0];
          });
        }
        rt.run(driver);
        // One of them saw 0; the other saw the first one's delta.
        const bool ok01 = previous[0] == 0 && previous[1] == 10;
        const bool ok10 = previous[1] == 0 && previous[0] == 11;
        if (!ok01 && !ok10) {
          throw SpecViolation("counter not linearizable: saw " +
                              to_string(previous[0]) + "," +
                              to_string(previous[1]));
        }
      },
      Explorer::Options{.max_executions = 300'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

TEST(Universal, QueueHistoriesAreLinearizable) {
  // 3 processes, mixed enqueue/dequeue, random schedules; check the full
  // history with the Wing–Gong checker against the same spec.
  const auto result = RandomSweep::run(
      [](ScheduleDriver& driver) {
        Runtime rt;
        UniversalObject<QueueSpec> queue(QueueSpec{}, 3, 24);
        History history;
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&, p](Context& ctx) {
            {
              const auto h = history.invoke(p, {0, 100 + p});
              const auto r = queue.apply(ctx, {0, 100 + p});
              history.respond(h, r);
            }
            {
              const auto h = history.invoke(p, {1});
              const auto r = queue.apply(ctx, {1});
              history.respond(h, r);
            }
          });
        }
        rt.run(driver);
        require_linearizable(QueueSpec{}, history);
      },
      400);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Universal, LogHasNoDuplicatesAndRespectsAnnouncements) {
  const auto result = RandomSweep::run(
      [](ScheduleDriver& driver) {
        Runtime rt;
        UniversalObject<CounterSpec> counter(CounterSpec{}, 4, 40);
        for (int p = 0; p < 4; ++p) {
          rt.add_process([&, p](Context& ctx) {
            counter.apply(ctx, {0, 1 + p});
            counter.apply(ctx, {0, 10 + p});
          });
        }
        rt.run(driver);
        const auto log = counter.log();
        if (log.size() < 8) {
          throw SpecViolation("log lost operations");
        }
        // Duplicate-freedom across (pid, op) pairs.
        for (std::size_t a = 0; a < log.size(); ++a) {
          for (std::size_t b = a + 1; b < log.size(); ++b) {
            if (log[a] == log[b]) {
              throw SpecViolation("duplicate log entry");
            }
          }
        }
      },
      400);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Universal, WaitFreeUnderAllParticipationSets) {
  const int n = 3;
  const auto report = check_wait_freedom(
      [n](const std::vector<int>&) {
        auto rt = std::make_unique<Runtime>();
        auto counter = std::make_shared<UniversalObject<CounterSpec>>(
            CounterSpec{}, n, 30);
        for (int p = 0; p < n; ++p) {
          rt->add_process([counter, p](Context& ctx) {
            counter->apply(ctx, {0, 1 + p});
            counter->apply(ctx, {1});
          });
        }
        return rt;
      },
      n, /*rounds=*/10);
  EXPECT_TRUE(report.ok()) << *report.violation;
}

TEST(Universal, ImplementsWrnFromConsensusObjects) {
  // The universality claim, instantiated on the paper's own object: a
  // 1sWRN_3 for 3 processes built from 3-consensus objects, checked against
  // the same sequential spec Algorithm 5 is checked against.
  const auto result = RandomSweep::run(
      [](ScheduleDriver& driver) {
        Runtime rt;
        UniversalObject<OneShotWrnSpec> wrn(OneShotWrnSpec{3}, 3, 24);
        History history;
        for (int p = 0; p < 3; ++p) {
          rt.add_process([&, p](Context& ctx) {
            const auto h = history.invoke(
                p, {static_cast<Value>(p), static_cast<Value>(100 + p)});
            const auto r = wrn.apply(
                ctx, {static_cast<Value>(p), static_cast<Value>(100 + p)});
            history.respond(h, r);
          });
        }
        rt.run(driver);
        require_linearizable(OneShotWrnSpec{3}, history);
      },
      400);
  EXPECT_TRUE(result.ok()) << *result.violation;
}

TEST(Universal, CapacityExhaustionThrows) {
  Runtime rt;
  UniversalObject<CounterSpec> counter(CounterSpec{}, 1, 2);
  rt.add_process([&](Context& ctx) {
    counter.apply(ctx, {0, 1});
    counter.apply(ctx, {0, 1});
    EXPECT_THROW(counter.apply(ctx, {0, 1}), SimError);
  });
  RoundRobinDriver driver;
  rt.run(driver);
}

TEST(Universal, ParameterValidation) {
  EXPECT_THROW(UniversalObject<CounterSpec>(CounterSpec{}, 0, 4), SimError);
  EXPECT_THROW(UniversalObject<CounterSpec>(CounterSpec{}, 2, 0), SimError);
}

}  // namespace
}  // namespace subc
