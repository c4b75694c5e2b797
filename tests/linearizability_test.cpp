// Tests for the Wing–Gong linearizability checker against the 1sWRN_k
// sequential spec and a simple register spec: accepted/rejected histories,
// pending-operation handling, real-time order.
#include "subc/checking/linearizability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "subc/runtime/scheduler.hpp"
#include "subc/runtime/runtime.hpp"

#include "subc/objects/wrn.hpp"

namespace subc {
namespace {

/// A sequential MWMR register spec for checker tests.
/// op {0, v} = write v (response {}); op {1} = read (response {v}).
struct RegisterSpec {
  struct State {
    Value value = kBottom;
  };
  [[nodiscard]] State initial() const { return {}; }
  bool apply(State& s, std::span<const Value> op,
             std::vector<Value>& response) const {
    if (op[0] == 0) {
      s.value = op[1];
      response = {};
    } else {
      response = {s.value};
    }
    return true;
  }
  [[nodiscard]] std::string key(const State& s) const {
    return to_string(s.value);
  }
};

History make_history(
    const std::vector<std::tuple<int, std::vector<Value>, std::vector<Value>>>&
        sequential_ops) {
  History h;
  for (const auto& [pid, op, resp] : sequential_ops) {
    const auto handle = h.invoke(pid, op);
    h.respond(handle, resp);
  }
  return h;
}

TEST(Linearizability, AcceptsSequentialRegisterHistory) {
  const History h = make_history({
      {0, {0, 5}, {}},   // write 5
      {1, {1}, {5}},     // read 5
      {0, {0, 7}, {}},   // write 7
      {1, {1}, {7}},     // read 7
  });
  const auto r = check_linearizable(RegisterSpec{}, h.entries());
  EXPECT_TRUE(r.linearizable);
  EXPECT_EQ(r.order.size(), 4u);
}

TEST(Linearizability, RejectsStaleReadAfterWriteCompleted) {
  const History h = make_history({
      {0, {0, 5}, {}},  // write 5 completes
      {1, {1}, {kBottom}},  // then a read returns ⊥ — not linearizable
  });
  const auto r = check_linearizable(RegisterSpec{}, h.entries());
  EXPECT_FALSE(r.linearizable);
}

TEST(Linearizability, AcceptsOverlappingOpsInEitherOrder) {
  History h;
  const auto w = h.invoke(0, {0, 5});  // write 5 ...
  const auto rd = h.invoke(1, {1});    // ... read overlaps it
  h.respond(rd, {kBottom});            // read may linearize before the write
  h.respond(w, {});
  const auto r = check_linearizable(RegisterSpec{}, h.entries());
  EXPECT_TRUE(r.linearizable);
}

TEST(Linearizability, PendingOpsMayBeLinearizedOrDropped) {
  // A pending write whose value a completed read observed must be
  // linearized (its effect is visible).
  History h;
  h.invoke(0, {0, 9});  // write 9, never returns
  const auto rd = h.invoke(1, {1});
  h.respond(rd, {9});
  const auto r = check_linearizable(RegisterSpec{}, h.entries());
  EXPECT_TRUE(r.linearizable);
  EXPECT_EQ(r.order.size(), 2u);  // the pending write was linearized

  // A pending write whose value nobody observed may be dropped.
  History h2;
  h2.invoke(0, {0, 9});
  const auto rd2 = h2.invoke(1, {1});
  h2.respond(rd2, {kBottom});
  const auto r2 = check_linearizable(RegisterSpec{}, h2.entries());
  EXPECT_TRUE(r2.linearizable);
}

TEST(Linearizability, RespectsRealTimePrecedence) {
  // w(5) completes, then w(7) completes, then read returns 5: the reorder
  // needed is forbidden by real time.
  const History h = make_history({
      {0, {0, 5}, {}},
      {0, {0, 7}, {}},
      {1, {1}, {5}},
  });
  const auto r = check_linearizable(RegisterSpec{}, h.entries());
  EXPECT_FALSE(r.linearizable);
}

TEST(Linearizability, WrnSpecSequentialHistory) {
  const OneShotWrnSpec spec{3};
  const History h = make_history({
      {0, {0, 10}, {kBottom}},  // first op reads ⊥
      {2, {2, 30}, {10}},       // reads slot 0
      {1, {1, 20}, {30}},       // reads slot 2
  });
  const auto r = check_linearizable(spec, h.entries());
  EXPECT_TRUE(r.linearizable);
}

TEST(Linearizability, WrnSpecRejectsAllNonBottomCycle) {
  // The impossible execution Section 5 guards against: every invocation
  // returns its successor's value — no first linearized op exists.
  const OneShotWrnSpec spec{3};
  History h;
  std::vector<std::size_t> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(
        h.invoke(i, {static_cast<Value>(i), static_cast<Value>(100 + i)}));
  }
  for (int i = 0; i < 3; ++i) {
    h.respond(handles[static_cast<std::size_t>(i)],
              {static_cast<Value>(100 + ((i + 1) % 3))});
  }
  const auto r = check_linearizable(spec, h.entries());
  EXPECT_FALSE(r.linearizable);
}

TEST(Linearizability, WrnSpecRejectsIndexReuseAsCompletedOps) {
  const OneShotWrnSpec spec{3};
  const History h = make_history({
      {0, {0, 10}, {kBottom}},
      {1, {0, 11}, {kBottom}},  // same index used twice: no linearization
  });
  const auto r = check_linearizable(spec, h.entries());
  EXPECT_FALSE(r.linearizable);
}

TEST(Linearizability, SixtyFourOpsIsTheExactCapacityBoundary) {
  // 64 sequential writes+reads: exactly at the bitmask capacity, checked
  // normally (and linearizable — each read sees the preceding write).
  History h64;
  for (int i = 0; i < 32; ++i) {
    const auto w = h64.invoke(0, {0, i});
    h64.respond(w, {});
    const auto rd = h64.invoke(1, {1});
    h64.respond(rd, {i});
  }
  ASSERT_EQ(h64.entries().size(), 64u);
  const auto r64 = check_linearizable(RegisterSpec{}, h64.entries());
  EXPECT_TRUE(r64.linearizable);
  EXPECT_EQ(r64.order.size(), 64u);

  // 65 ops: beyond the representation, the checker must refuse loudly
  // (SimError) instead of returning a bogus "not linearizable" verdict that
  // would corrupt ∀-run claims built on top of it.
  History h65;
  for (int i = 0; i < 65; ++i) {
    const auto w = h65.invoke(0, {0, i});
    h65.respond(w, {});
  }
  EXPECT_THROW(check_linearizable(RegisterSpec{}, h65.entries()), SimError);
  EXPECT_THROW(require_linearizable(RegisterSpec{}, h65), SimError);
}

TEST(Linearizability, RequireHelperThrowsWithDump) {
  const History h = make_history({
      {0, {0, 5}, {}},
      {1, {1}, {kBottom}},
  });
  EXPECT_THROW(require_linearizable(RegisterSpec{}, h), SpecViolation);
}

// --------------------------------------------------------------------------
// The checker checked: brute-force cross-validation
// --------------------------------------------------------------------------

/// Reference implementation: try every permutation of all completed ops
/// (pending ops deliberately absent from the generated histories).
template <class Spec>
bool linearizable_bruteforce(const Spec& spec,
                             const std::vector<HistoryEntry>& h) {
  std::vector<std::size_t> order(h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end());
  do {
    // Real-time order respected?
    bool ok = true;
    for (std::size_t a = 0; a < order.size() && ok; ++a) {
      for (std::size_t b = a + 1; b < order.size() && ok; ++b) {
        ok = !(h[order[b]].responded_at < h[order[a]].invoked_at);
      }
    }
    if (!ok) {
      continue;
    }
    auto state = spec.initial();
    std::vector<Value> response;
    for (const std::size_t i : order) {
      if (!spec.apply(state, h[i].op, response) ||
          response != h[i].response) {
        ok = false;
        break;
      }
    }
    if (ok) {
      return true;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  return false;
}

TEST(Linearizability, CheckerAgreesWithBruteForceOnRandomHistories) {
  // Random complete 1sWRN histories — some generated from real runs (thus
  // linearizable), some corrupted (responses perturbed). Wing–Gong and the
  // permutation brute force must agree on every one.
  std::mt19937_64 rng(23);
  int linearizable_count = 0;
  int corrupted_rejections = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const int k = 3 + static_cast<int>(rng() % 2);
    // Produce a real concurrent run of the atomic object, recorded.
    Runtime rt;
    OneShotWrnObject object(k);
    History history;
    for (int p = 0; p < k; ++p) {
      rt.add_process([&, p](Context& ctx) {
        const auto handle = history.invoke(
            p, {static_cast<Value>(p), static_cast<Value>(100 + p)});
        const Value got = object.wrn(ctx, p, 100 + p);
        history.respond(handle, {got});
      });
    }
    RandomDriver driver(rng());
    rt.run(driver);

    std::vector<HistoryEntry> entries = history.entries();
    const bool corrupt = (rng() % 2) == 0;
    if (corrupt) {
      // Perturb one response to an arbitrary value.
      auto& victim = entries[rng() % entries.size()];
      victim.response = {static_cast<Value>(500 + rng() % 5)};
    }
    const OneShotWrnSpec spec{k};
    const bool fast = check_linearizable(spec, entries).linearizable;
    const bool slow = linearizable_bruteforce(spec, entries);
    ASSERT_EQ(fast, slow) << "trial " << trial << " corrupt=" << corrupt;
    linearizable_count += fast ? 1 : 0;
    corrupted_rejections += (corrupt && !fast) ? 1 : 0;
  }
  // Sanity: the sample exercised both outcomes.
  EXPECT_GT(linearizable_count, 0);
  EXPECT_GT(corrupted_rejections, 0);
}

TEST(History, DumpAndCompletedCount) {
  History h;
  const auto a = h.invoke(0, {0, 5});
  h.invoke(1, {1});
  h.respond(a, {});
  EXPECT_EQ(h.completed(), 1u);
  const std::string dump = h.dump();
  EXPECT_NE(dump.find("p0"), std::string::npos);
  EXPECT_NE(dump.find("pending"), std::string::npos);
  EXPECT_THROW(h.respond(a, {}), SimError);
  EXPECT_THROW(h.respond(99, {}), SimError);
}

}  // namespace
}  // namespace subc
