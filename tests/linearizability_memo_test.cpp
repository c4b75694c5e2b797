// Differential tests for the checker's hashed fingerprint memo
// (MemoKind::kHashed) against the exact string-keyed reference memo
// (MemoKind::kStringReference). The two DFS variants explore in identical
// order and the memo only suppresses failed subtrees, so verdict AND
// linearization order must match on every history — including specs whose
// `key()` strings collide (where the hashed memo must not conflate the
// distinct underlying states it hashes via the spec's `hash` hook) and
// 64-op histories at the bitmask boundary.
#include "subc/checking/linearizability.hpp"

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <string>
#include <vector>

#include "subc/objects/wrn.hpp"
#include "subc/runtime/history.hpp"

namespace subc {
namespace {

/// Register spec (write {0,v} / read {1}) with a deliberately COLLIDING
/// memo key: every state maps to the same string. The memo may then merge
/// distinct states — that is sound for the reference memo only because it
/// also merges them (both variants over-memoize identically), and the test
/// checks the hashed memo tracks the reference bit for bit. Its `hash` hook
/// mirrors key() (constant), exercising the "spec-provided hash" branch.
struct CollidingKeySpec {
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
  [[nodiscard]] std::string key(const State& /*s*/) const { return "same"; }
  [[nodiscard]] std::uint64_t hash(const State& /*s*/) const {
    return detail::fnv1a64("same");
  }
};

/// The same register spec with an honest (injective) key and no hash hook,
/// exercising the fallback FNV-of-key() fingerprint path.
struct HonestKeySpec {
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

/// The register spec again, with a twist: when `inner` is set, every
/// `apply` first checks `*inner` against a plain NestingSpec and records
/// the verdict. The nested check runs while the outer one is mid-search, so
/// the two must not share the checker's per-thread scratch.
struct NestingSpec {
  const History* inner = nullptr;
  std::vector<bool>* inner_verdicts = nullptr;

  struct State {
    Value value = kBottom;
  };
  [[nodiscard]] State initial() const { return {}; }
  bool apply(State& s, std::span<const Value> op,
             std::vector<Value>& response) const {
    if (inner != nullptr) {
      inner_verdicts->push_back(
          check_linearizable(NestingSpec{}, inner->entries()).linearizable);
    }
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

template <class Spec>
void expect_memo_agreement(const Spec& spec, const History& h) {
  const auto hashed =
      check_linearizable(spec, h.entries(), MemoKind::kHashed);
  const auto reference =
      check_linearizable(spec, h.entries(), MemoKind::kStringReference);
  ASSERT_EQ(hashed.linearizable, reference.linearizable);
  EXPECT_EQ(hashed.order, reference.order);
}

TEST(LinearizabilityMemo, CollidingKeysAgreeOnLinearizableHistory) {
  History h;
  // Overlapping writes and reads with several legal orders.
  const auto w0 = h.invoke(0, {0, 5});
  const auto r0 = h.invoke(1, {1});
  h.respond(r0, {kBottom});
  h.respond(w0, {});
  const auto w1 = h.invoke(0, {0, 7});
  const auto r1 = h.invoke(1, {1});
  h.respond(w1, {});
  h.respond(r1, {7});
  expect_memo_agreement(CollidingKeySpec{}, h);

  const auto hashed = check_linearizable(CollidingKeySpec{}, h.entries());
  EXPECT_TRUE(hashed.linearizable);
}

TEST(LinearizabilityMemo, CollidingKeysAgreeOnNonLinearizableHistory) {
  History h;
  const auto w = h.invoke(0, {0, 5});
  h.respond(w, {});
  const auto r = h.invoke(1, {1});
  h.respond(r, {kBottom});  // stale read after completed write
  expect_memo_agreement(CollidingKeySpec{}, h);

  const auto hashed = check_linearizable(CollidingKeySpec{}, h.entries());
  EXPECT_FALSE(hashed.linearizable);
}

TEST(LinearizabilityMemo, SixtyFourOpBoundaryHistoryAgrees) {
  // Exactly 64 operations — the widest history the bitmask checker admits.
  // Alternating write/read pairs, all sequential, so the verdict is decided
  // deep in the DFS with the full mask in play.
  History h;
  for (Value i = 0; i < 32; ++i) {
    const auto w = h.invoke(0, {0, i});
    h.respond(w, {});
    const auto r = h.invoke(1, {1});
    h.respond(r, {i});
  }
  ASSERT_EQ(h.entries().size(), 64u);
  expect_memo_agreement(HonestKeySpec{}, h);
  expect_memo_agreement(CollidingKeySpec{}, h);

  const auto hashed = check_linearizable(HonestKeySpec{}, h.entries());
  EXPECT_TRUE(hashed.linearizable);
  EXPECT_EQ(hashed.order.size(), 64u);
}

TEST(LinearizabilityMemo, SixtyFourOpBoundaryRejectionAgrees) {
  History h;
  for (Value i = 0; i < 31; ++i) {
    const auto w = h.invoke(0, {0, i});
    h.respond(w, {});
    const auto r = h.invoke(1, {1});
    h.respond(r, {i});
  }
  // Final pair: a read that contradicts the completed write before it.
  const auto w = h.invoke(0, {0, 99});
  h.respond(w, {});
  const auto r = h.invoke(1, {1});
  h.respond(r, {kBottom});
  ASSERT_EQ(h.entries().size(), 64u);
  expect_memo_agreement(HonestKeySpec{}, h);

  EXPECT_FALSE(check_linearizable(HonestKeySpec{}, h.entries()).linearizable);
}

TEST(LinearizabilityMemo, WrnSpecUsesHashHookAndAgrees) {
  // OneShotWrnSpec provides a real hash(State); sweep overlapping one-shot
  // WRN histories (legal and illegal) through both memos.
  const OneShotWrnSpec spec{3};
  {
    History h;
    const auto a = h.invoke(0, {0, 10});
    const auto b = h.invoke(1, {1, 20});
    h.respond(b, {kBottom});  // slot 2 never written
    h.respond(a, {20});       // must linearize after b
    expect_memo_agreement(spec, h);
    EXPECT_TRUE(check_linearizable(spec, h.entries()).linearizable);
  }
  {
    History h;
    const auto a = h.invoke(0, {0, 10});
    h.respond(a, {kBottom});
    const auto b = h.invoke(1, {0, 20});  // index 0 reused: illegal
    h.respond(b, {kBottom});
    expect_memo_agreement(spec, h);
    EXPECT_FALSE(check_linearizable(spec, h.entries()).linearizable);
  }
}

/// A random register history of `ops` operations, at most `max_open` of
/// them open at once; of those still open at the end, about half stay
/// pending. Reads return the last completed write, except that one in
/// `garbage_one_in` (none when 0) returns a random value instead, so both
/// verdicts occur.
History random_register_history(std::mt19937& rng, std::size_t ops,
                                std::size_t max_open,
                                unsigned garbage_one_in) {
  History h;
  std::vector<std::size_t> open;
  Value last_written = kBottom;
  const auto respond = [&](std::size_t pick) {
    const std::size_t handle = open[pick];
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(pick));
    const auto& entry = h.entries()[handle];
    if (entry.op[0] == 0) {
      h.respond(handle, {});
      last_written = entry.op[1];
    } else {
      const bool garbage = garbage_one_in != 0 && rng() % garbage_one_in == 0;
      const Value resp = garbage ? static_cast<Value>(rng() % 3) : last_written;
      h.respond(handle, {resp});
    }
  };
  while (h.entries().size() < ops) {
    if (!open.empty() && (open.size() == max_open || rng() % 2 == 0)) {
      respond(rng() % open.size());
    } else {
      const int pid = static_cast<int>(rng() % 3);
      if (rng() % 2 == 0) {
        open.push_back(h.invoke(pid, {0, static_cast<Value>(rng() % 3)}));
      } else {
        open.push_back(h.invoke(pid, {1}));
      }
    }
  }
  for (std::size_t i = open.size(); i-- > 0;) {
    if (rng() % 2 == 0) {
      respond(i);
    }
  }
  return h;
}

TEST(LinearizabilityMemo, RandomizedOverlappingHistoriesAgree) {
  // Seeded sweep of random overlapping register histories, including
  // pending operations. Every history must produce identical verdict and
  // order under both memos — this is the collision hunt. Every 50th
  // history has exactly 64 operations, the bitmask boundary, with at most
  // four open at once so its search stays small.
  std::mt19937 rng(20160725);  // PODC'16 vintage
  int verdicts[2][2] = {};  // [boundary][linearizable]
  int pending = 0;
  for (int trial = 0; trial < 5'000; ++trial) {
    const bool boundary = trial % 50 == 49;
    // Half the boundary histories have no garbage reads, so both verdicts
    // occur at 64 operations too.
    const unsigned garbage = boundary ? (trial % 100 == 99 ? 0 : 32) : 4;
    const History h =
        boundary ? random_register_history(rng, 64, 4, garbage)
                 : random_register_history(rng, 2 + rng() % 6, 64, garbage);
    if (boundary) {
      ASSERT_EQ(h.entries().size(), 64u);
    }
    expect_memo_agreement(HonestKeySpec{}, h);
    expect_memo_agreement(CollidingKeySpec{}, h);
    const bool linearizable =
        check_linearizable(HonestKeySpec{}, h.entries()).linearizable;
    ++verdicts[boundary ? 1 : 0][linearizable ? 1 : 0];
    pending += h.completed() < h.entries().size() ? 1 : 0;
  }
  // Sanity: short and boundary histories both got both verdicts, and
  // pending operations were exercised.
  for (const auto& by_verdict : verdicts) {
    EXPECT_GT(by_verdict[0], 0);
    EXPECT_GT(by_verdict[1], 0);
  }
  EXPECT_GT(pending, 0);
}

TEST(LinearizabilityMemo, NestedCheckFromApplyKeepsBothVerdicts) {
  // Outer histories of both verdicts, each checked while every apply runs
  // a nested check of an inner history of the other verdict. Both levels
  // must answer as they do alone, outer order included.
  History linearizable;
  {
    const auto w0 = linearizable.invoke(0, {0, 5});
    const auto r0 = linearizable.invoke(1, {1});
    linearizable.respond(r0, {kBottom});
    linearizable.respond(w0, {});
    const auto w1 = linearizable.invoke(0, {0, 7});
    const auto r1 = linearizable.invoke(1, {1});
    linearizable.respond(w1, {});
    linearizable.respond(r1, {7});
  }
  History stale;
  {
    const auto w = stale.invoke(0, {0, 5});
    const auto r = stale.invoke(1, {1});
    stale.respond(w, {});
    const auto r2 = stale.invoke(1, {1});
    stale.respond(r2, {5});
    stale.respond(r, {kBottom});
    const auto r3 = stale.invoke(2, {1});
    stale.respond(r3, {kBottom});  // stale after a read of 5 completed
  }
  for (const bool outer_ok : {true, false}) {
    const History& outer = outer_ok ? linearizable : stale;
    const History& inner = outer_ok ? stale : linearizable;
    const LinearizationResult alone =
        check_linearizable(NestingSpec{}, outer.entries());
    ASSERT_EQ(alone.linearizable, outer_ok);
    std::vector<bool> inner_verdicts;
    const LinearizationResult nested = check_linearizable(
        NestingSpec{&inner, &inner_verdicts}, outer.entries());
    EXPECT_EQ(nested.linearizable, outer_ok);
    EXPECT_EQ(nested.order, alone.order);
    ASSERT_FALSE(inner_verdicts.empty());
    for (const bool verdict : inner_verdicts) {
      EXPECT_EQ(verdict, !outer_ok);
    }
  }
}

}  // namespace
}  // namespace subc
