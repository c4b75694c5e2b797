// Tests for the valence-analysis object models themselves (WrnModel,
// GacModel): state-space sizes, the hang convention, and — critically — the
// bisimulation property of GacModel's canonical key: states with equal keys
// must produce identical responses for every future operation sequence.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "subc/core/consensus_number.hpp"

namespace subc {
namespace {

TEST(WrnModel, StateAndOpCounts) {
  const WrnModel model{3, {1, 2}};
  // (|domain|+1)^k slot assignments; k × |domain| ops.
  EXPECT_EQ(model.states().size(), 27u);
  EXPECT_EQ(model.ops().size(), 6u);
}

TEST(WrnModel, ApplyMatchesAlgorithm1) {
  const WrnModel model{3, {1, 2}};
  WrnModel::State state(3, kBottom);
  const auto r1 = model.apply(state, {0, 1});
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(*r1, kBottom);  // slot 1 empty
  const auto r2 = model.apply(state, {2, 2});
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(*r2, 1);  // slot 0 holds 1
  EXPECT_EQ(state, (WrnModel::State{1, kBottom, 2}));
}

TEST(GacModel, HangsWithoutMutationBeyondCapacity) {
  const GacModel model{1, 1, {1, 2}};  // capacity 3
  GacModel::State state;
  for (int t = 0; t < 3; ++t) {
    EXPECT_TRUE(model.apply(state, {1}).has_value());
  }
  const std::string before = model.key(state);
  EXPECT_FALSE(model.apply(state, {2}).has_value());
  EXPECT_EQ(model.key(state), before);  // hang must not mutate
}

TEST(GacModel, KeyIsABisimulation) {
  // Property: equal canonical keys ⇒ identical responses on every future
  // op sequence. Randomized check over state pairs and futures.
  for (const auto& [n, i] : {std::pair{1, 2}, {2, 1}, {2, 2}, {3, 1}}) {
    const GacModel model{n, i, {1, 2}};
    const auto states = model.states();
    // Group states by key.
    std::map<std::string, std::vector<std::size_t>> by_key;
    for (std::size_t s = 0; s < states.size(); ++s) {
      by_key[model.key(states[s])].push_back(s);
    }
    std::mt19937_64 rng(7);
    const auto ops = model.ops();
    for (const auto& [key, members] : by_key) {
      if (members.size() < 2) {
        continue;
      }
      // Compare the first two members on 20 random futures of length 6.
      for (int trial = 0; trial < 20; ++trial) {
        auto a = states[members[0]];
        auto b = states[members[1]];
        for (int step = 0; step < 6; ++step) {
          const auto& op = ops[rng() % ops.size()];
          const auto ra = model.apply(a, op);
          const auto rb = model.apply(b, op);
          ASSERT_EQ(ra.has_value(), rb.has_value())
              << "hang divergence from key " << key;
          if (ra.has_value()) {
            ASSERT_EQ(*ra, *rb) << "response divergence from key " << key;
          }
          ASSERT_EQ(model.key(a), model.key(b))
              << "key divergence after step from " << key;
        }
      }
    }
  }
}

TEST(GacModel, StateCountsGrowWithLevel) {
  const GacModel small{2, 1, {1, 2}};
  const GacModel large{2, 3, {1, 2}};
  EXPECT_LT(small.states().size(), large.states().size());
}

TEST(ValenceModels, DescribeIsHumanReadable) {
  EXPECT_EQ(WrnModel::describe({1, 5}), "WRN(1,5)");
  EXPECT_EQ(GacModel::describe({7}), "propose(7)");
}

}  // namespace
}  // namespace subc
