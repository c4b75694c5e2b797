// Failure-injection sweeps: crash processes at random points mid-algorithm
// and verify that (a) safety (validity / agreement / linearizability) still
// holds among survivors and (b) survivors terminate — the wait-freedom the
// papers' model demands. Crashes are injected through the CrashAdversary
// policy decorator (runtime/policy.hpp); the exhaustive variant folds the
// crash decision into the explored nondeterminism via `crash_requests`.
#include <gtest/gtest.h>

#include "subc/algorithms/partition_set_consensus.hpp"
#include "subc/algorithms/universal.hpp"
#include "subc/algorithms/wrn_from_sse.hpp"
#include "subc/algorithms/wrn_set_consensus.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/core/tasks.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/policy.hpp"

namespace subc {
namespace {

TEST(CrashInjection, Algorithm2SafetyAndProgressSurviveCrashes) {
  const int k = 4;
  std::vector<Value> inputs{10, 20, 30, 40};
  for (int victim = 0; victim < k; ++victim) {
    for (std::int64_t after = 0; after <= 1; ++after) {
      for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        Runtime rt;
        WrnSetConsensus algorithm(k);
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(
                ctx, p, inputs[static_cast<std::size_t>(p)]));
          });
        }
        RandomDriver inner(seed);
        CrashAdversary driver(inner,
                              {CrashAdversary::CrashPoint{victim, after}});
        const auto result = rt.run(driver);
        check_decided_if_done(result);
        check_validity(inputs, result.decisions);
        check_k_agreement(result.decisions, k - 1);
        for (int p = 0; p < k; ++p) {
          if (p != victim) {
            ASSERT_EQ(result.states[static_cast<std::size_t>(p)],
                      ProcState::kDone)
                << "survivor blocked: victim=" << victim << " seed=" << seed;
          }
        }
      }
    }
  }
}

TEST(CrashInjection, Algorithm5LinearizableDespiteCrashes) {
  // A crash inside Algorithm 5 leaves a pending operation; the history must
  // still be linearizable (pending ops may be linearized or dropped).
  const int k = 3;
  for (int victim = 0; victim < k; ++victim) {
    for (std::int64_t after = 1; after <= 5; ++after) {
      for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        Runtime rt;
        WrnFromSse object(k);
        History history;
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            object.one_shot_wrn(ctx, p, 100 + p, &history);
          });
        }
        RandomDriver inner(seed);
        CrashAdversary driver(inner,
                              {CrashAdversary::CrashPoint{victim, after}});
        const auto result = rt.run(driver);
        for (int p = 0; p < k; ++p) {
          if (p != victim) {
            ASSERT_EQ(result.states[static_cast<std::size_t>(p)],
                      ProcState::kDone);
          }
        }
        require_linearizable(OneShotWrnSpec{k}, history);
      }
    }
  }
}

TEST(CrashInjection, PartitionSetConsensusToleratesCrashes) {
  const int n = 6;
  std::vector<Value> inputs{1, 2, 3, 4, 5, 6};
  for (int victim = 0; victim < n; victim += 2) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      Runtime rt;
      PartitionSetConsensus algorithm(n, 3, 2);
      for (int p = 0; p < n; ++p) {
        rt.add_process([&, p](Context& ctx) {
          ctx.decide(
              algorithm.propose(ctx, p, inputs[static_cast<std::size_t>(p)]));
        });
      }
      RandomDriver inner(seed);
      CrashAdversary driver(inner, {CrashAdversary::CrashPoint{victim, 0}});
      const auto result = rt.run(driver);
      check_decided_if_done(result);
      check_validity(inputs, result.decisions);
      check_k_agreement(result.decisions, algorithm.agreement());
      for (int p = 0; p < n; ++p) {
        if (p != victim) {
          ASSERT_EQ(result.states[static_cast<std::size_t>(p)],
                    ProcState::kDone);
        }
      }
    }
  }
}

TEST(CrashInjection, UniversalObjectSurvivorsStayLinearizable) {
  // Crash a process mid-operation in the universal construction: survivors
  // finish (the helping rule covers the victim's announced op) and the
  // recorded history stays linearizable.
  struct CounterSpec {
    struct State {
      Value total = 0;
    };
    [[nodiscard]] State initial() const { return {}; }
    bool apply(State& s, std::span<const Value> op,
               std::vector<Value>& response) const {
      response = {s.total};
      s.total += op[1];
      return true;
    }
    [[nodiscard]] std::string key(const State& s) const {
      return std::to_string(s.total);
    }
  };
  const int n = 3;
  for (int victim = 0; victim < n; ++victim) {
    for (std::int64_t after = 1; after <= 5; after += 2) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Runtime rt;
        UniversalObject<CounterSpec> counter(CounterSpec{}, n, 24);
        History history;
        for (int p = 0; p < n; ++p) {
          rt.add_process([&, p](Context& ctx) {
            const std::vector<Value> op{0, 10 + p};
            const auto h = history.invoke(p, op);
            const auto r = counter.apply(ctx, op);
            history.respond(h, r);
          });
        }
        RandomDriver inner(seed);
        CrashAdversary driver(inner,
                              {CrashAdversary::CrashPoint{victim, after}});
        const auto result = rt.run(driver);
        for (int p = 0; p < n; ++p) {
          if (p != victim) {
            ASSERT_EQ(result.states[static_cast<std::size_t>(p)],
                      ProcState::kDone);
          }
        }
        require_linearizable(CounterSpec{}, history);
      }
    }
  }
}

TEST(CrashInjection, ExhaustiveCrashPointsForAlgorithm2) {
  // Exhaustive over schedules *and* crash points: fold the crash decision
  // into the explored nondeterminism with a `crash_requests` override that
  // consults the explorer's own choose().
  const int k = 3;
  std::vector<Value> inputs{7, 8, 9};
  const auto result = Explorer::explore(
      [&](ScheduleDriver& driver) {
        Runtime rt;
        WrnSetConsensus algorithm(k);
        for (int p = 0; p < k; ++p) {
          rt.add_process([&, p](Context& ctx) {
            ctx.decide(algorithm.propose(
                ctx, p, inputs[static_cast<std::size_t>(p)]));
          });
        }
        // Victim 0 crashes before taking its single step in half the
        // branches.
        struct Wrapper final : SchedulePolicy {
          SchedulePolicy* inner;
          bool decided_crash = false;
          std::uint64_t crash_requests(std::span<const int> enabled) override {
            if (!decided_crash) {
              decided_crash = true;
              if (inner->choose(2) == 1) {
                return 1ULL << 0;
              }
            }
            return inner->crash_requests(enabled);
          }
          std::size_t pick(std::span<const int> enabled,
                           std::span<const Access> footprints = {}) override {
            return inner->pick(enabled, footprints);
          }
          std::uint32_t choose(std::uint32_t arity) override {
            return inner->choose(arity);
          }
        };
        Wrapper wrapper;
        wrapper.inner = &driver;
        const auto run = rt.run(wrapper);
        check_decided_if_done(run);
        check_validity(inputs, run.decisions);
        check_k_agreement(run.decisions, k - 1);
      },
      Explorer::Options{.max_executions = 100'000});
  EXPECT_TRUE(result.ok()) << *result.violation;
  EXPECT_TRUE(result.complete);
}

}  // namespace
}  // namespace subc
