// Tests for the machine-checked critical-state (valence) case analysis:
// Lemma 38 for WRN_k (k ≥ 3 fully covered; k = 2 escapes through the
// adjacent-index pairs, which is exactly how SWAP reaches consensus number
// 2) and the analogous analysis for the O_{n,k} components GAC(n,i).
#include "subc/core/consensus_number.hpp"

#include <gtest/gtest.h>

namespace subc {
namespace {

class WrnValenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(WrnValenceSweep, Lemma38AllCasesCoveredForKAtLeast3) {
  const int k = GetParam();
  const ValenceReport report = check_wrn_valence(k);
  EXPECT_TRUE(report.all_covered())
      << report.uncovered.size() << " uncovered, first: "
      << report.uncovered.front();
  EXPECT_GT(report.states_checked, 0);
  EXPECT_GT(report.pairs_checked, 0);
}

INSTANTIATE_TEST_SUITE_P(AllK, WrnValenceSweep,
                         ::testing::Values(3, 4, 5, 6, 7));

TEST(WrnValence, K2HasUncoveredAdjacentPairs) {
  // The k = 2 escape hatch: for SWAP (= WRN_2) there are pending-step pairs
  // with no indistinguishability — the precondition of Herlihy's
  // 2-consensus algorithm from SWAP. Every uncovered pair must use
  // different indices (same-index pairs are always overwrite-covered).
  const ValenceReport report = check_wrn_valence(2);
  EXPECT_FALSE(report.all_covered());
  for (const std::string& pair : report.uncovered) {
    const bool p0q1 = pair.find("s_P=WRN(0") != std::string::npos &&
                      pair.find("s_Q=WRN(1") != std::string::npos;
    const bool p1q0 = pair.find("s_P=WRN(1") != std::string::npos &&
                      pair.find("s_Q=WRN(0") != std::string::npos;
    EXPECT_TRUE(p0q1 || p1q0) << pair;
  }
}

TEST(WrnValence, WiderValueDomainsStayFullyCovered) {
  // The {1,2} domain is not load-bearing: a 3-value domain (4^k states,
  // (3k)^2 pairs per state) is still fully covered for k >= 3, and still
  // leaves the adjacent-index escape at k = 2.
  const auto k3 = check_valence_cases(WrnModel{3, {1, 2, 3}});
  EXPECT_TRUE(k3.all_covered());
  EXPECT_EQ(k3.states_checked, 64);  // (3+1)^3
  const auto k4 = check_valence_cases(WrnModel{4, {1, 2, 3}});
  EXPECT_TRUE(k4.all_covered());
  const auto k2 = check_valence_cases(WrnModel{2, {1, 2, 3}});
  EXPECT_FALSE(k2.all_covered());
}

TEST(GacValence, WiderValueDomainKeepsTheRaceStructure) {
  const auto report = check_valence_cases(GacModel{2, 1, {1, 2, 3}});
  EXPECT_FALSE(report.uncovered.empty());
  bool initial_uncovered = false;
  for (const std::string& u : report.uncovered) {
    initial_uncovered = initial_uncovered ||
                        u.find("state{0:") != std::string::npos;
  }
  EXPECT_TRUE(initial_uncovered);
}

TEST(WrnValence, Lemma38Case1SameIndexIsOverwrite) {
  // Restricting the model to a single index: all pairs covered (Case 1 of
  // Lemma 38's proof) even for k = 2.
  struct SingleIndexWrn : WrnModel {
    [[nodiscard]] std::vector<Op> ops() const {
      std::vector<Op> out;
      for (const Value v : domain) {
        out.push_back(Op{0, v});
      }
      return out;
    }
  };
  SingleIndexWrn model;
  model.k = 2;
  model.domain = {1, 2};
  const auto report = check_valence_cases(model);
  EXPECT_TRUE(report.all_covered());
}

struct GacCase {
  int n;
  int i;
};

class GacValenceSweep : public ::testing::TestWithParam<GacCase> {};

TEST_P(GacValenceSweep, RaceStatesExistAndWrapRegionIsInert) {
  // GAC(n,i) deliberately contains order-distinguishing states — that is how
  // it solves n-process consensus (the block-0 race at the fresh object).
  // So, unlike WRN_k (k≥3), the valence analysis must report uncovered
  // pairs: the Herlihy argument does not go through, consistent with
  // consensus number ≥ 2 for n ≥ 2. (For n = 1 the uncovered states are
  // the block boundaries; turning them into 2-consensus would require a
  // third filler arrival or exceeding the object's capacity, which is the
  // fine print of the 2016 lower bound.)
  const auto [n, i] = GetParam();
  const ValenceReport report = check_gac_valence(n, i);
  EXPECT_FALSE(report.all_covered());

  // The wrap-around region is inert: once len ≥ n(i+1), every propose
  // returns arrivals[0] regardless of order — all pairs covered there.
  struct WrapRegionGac : GacModel {
    [[nodiscard]] std::vector<State> states() const {
      std::vector<State> out;
      for (const State& s : GacModel::states()) {
        if (static_cast<int>(s.arrivals.size()) >= n * (i + 1)) {
          out.push_back(s);
        }
      }
      return out;
    }
  };
  WrapRegionGac wrap;
  wrap.n = n;
  wrap.i = i;
  wrap.domain = {1, 2};
  const auto wrap_report = check_valence_cases(wrap);
  EXPECT_TRUE(wrap_report.all_covered())
      << (wrap_report.uncovered.empty() ? std::string()
                                        : wrap_report.uncovered.front());
}

INSTANTIATE_TEST_SUITE_P(Grid, GacValenceSweep,
                         ::testing::Values(GacCase{1, 1}, GacCase{1, 2},
                                           GacCase{2, 1}, GacCase{2, 2},
                                           GacCase{3, 1}));

TEST(GacValence, FreshObjectIsARaceForAllN) {
  // At the empty state two pending proposes race for arrivals[0]: uncovered
  // for every n (for n ≥ 2 the second proposer *reads* the winner — the
  // consensus mechanism; for n = 1 the winner is only revealed to later
  // wrap arrivals).
  for (const auto& [n, i] : {std::pair{1, 1}, {2, 1}, {3, 2}}) {
    const ValenceReport report = check_gac_valence(n, i);
    bool initial_uncovered = false;
    for (const std::string& u : report.uncovered) {
      if (u.find("state{0:") != std::string::npos) {
        initial_uncovered = true;
      }
    }
    EXPECT_TRUE(initial_uncovered) << "n=" << n << " i=" << i;
  }
}

class ProtocolSynthesisSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProtocolSynthesisSweep, NoProtocolInFamilySolvesConsensusForKAtLeast3) {
  // Family-wide impossibility: every announce/WRN/decide protocol over one
  // WRN_k object (k² index pairs × 25 rule pairs) is exhaustively
  // model-checked; none solves 2-process consensus when k ≥ 3.
  const int k = GetParam();
  const ProtocolSearchResult result = search_wrn_two_consensus_protocols(k);
  EXPECT_EQ(result.protocols_checked, static_cast<long>(k) * k * 25);
  EXPECT_EQ(result.correct, 0) << "a protocol slipped through at k=" << k;
}

INSTANTIATE_TEST_SUITE_P(AllK, ProtocolSynthesisSweep,
                         ::testing::Values(3, 4, 5));

TEST(ProtocolSynthesis, GacBoundaryNProcessesWinNPlus1Lose) {
  // The O_{n,k} component boundary, synthesized: on GAC(n,i), some
  // announce/propose/decide protocol solves consensus for n processes
  // (everyone adopting the returned value — the block-0 race), but no
  // protocol in the family solves it for n+1 processes.
  for (const auto& [n, i] : {std::pair{2, 1}, {2, 2}, {3, 1}}) {
    const ProtocolSearchResult at_n = search_gac_consensus_protocols(n, i, n);
    EXPECT_GT(at_n.correct, 0) << "n=" << n << " i=" << i;
    const ProtocolSearchResult at_n1 =
        search_gac_consensus_protocols(n, i, n + 1);
    EXPECT_EQ(at_n1.correct, 0) << "n=" << n << " i=" << i;
  }
}

TEST(ProtocolSynthesis, K2AdmitsWinningProtocols) {
  // The boundary again, synthesized rather than hand-written: for WRN_2 the
  // search finds correct protocols, and every winner uses the two distinct
  // indices (write mine, read the other's slot).
  const ProtocolSearchResult result = search_wrn_two_consensus_protocols(2);
  EXPECT_GT(result.correct, 0);
  for (const WrnProtocol& protocol : result.winners) {
    EXPECT_NE(protocol.index[0], protocol.index[1]);
    // Trivial always-own rules can never win.
    EXPECT_NE(protocol.rule[0], 0);
    EXPECT_NE(protocol.rule[1], 0);
  }
}

TEST(ValenceChecker, ParameterValidation) {
  EXPECT_THROW(check_wrn_valence(1), SimError);
  EXPECT_THROW(check_gac_valence(0, 1), SimError);
  EXPECT_THROW(check_gac_valence(1, -1), SimError);
}

TEST(ValenceChecker, ReportsCountsForDocumentation) {
  const ValenceReport report = check_wrn_valence(3);
  // 3 slots over {⊥,1,2}: 27 states; ops: 3 indices × 2 values = 6;
  // pairs per state: 36.
  EXPECT_EQ(report.states_checked, 27);
  EXPECT_EQ(report.pairs_checked, 27 * 36);
}

}  // namespace
}  // namespace subc
