// Experiment F7 — the map of the sub-consensus universe.
//
// One table unifying every object class in the library: for each class and
// each system size N, the best agreement x such that the class solves
// (N, x)-set consensus wait-free with registers (partition calculus; lower
// = stronger). The ordering the papers establish is visible at a glance:
//
//   registers  ≺  1sWRN_k (strictly finer as k shrinks; all consensus
//   number 1)  ≺  2-consensus ≼ O_{2,k} (strictly finer as k grows; all
//   consensus number 2)  ≺  3-consensus ≼ O_{3,k}  ≺ ... ≺ compare&swap.
//
// A sample of cells is cross-validated in the simulator by the tests
// (hierarchy_test, onk_test, wrn_set_consensus_test).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "subc/core/hierarchy.hpp"

namespace {
// Sticky register: consensus number ∞, like CAS.
subc::ObjectClassProfile make_sticky_profile(int max_procs) {
  subc::ObjectClassProfile profile;
  profile.name = "sticky reg";
  for (int procs = 1; procs <= max_procs; ++procs) {
    profile.best_agreement.push_back(1);
  }
  return profile;
}
}  // namespace

int main() {
  using namespace subc;
  constexpr int kMaxProcs = 16;

  std::vector<ObjectClassProfile> profiles;
  profiles.push_back(profile_registers(kMaxProcs));
  profiles.push_back(profile_wrn(8, kMaxProcs));
  profiles.push_back(profile_wrn(5, kMaxProcs));
  profiles.push_back(profile_wrn(3, kMaxProcs));
  profiles.push_back(profile_consensus(2, kMaxProcs));
  profiles.push_back(profile_onk(2, 2, kMaxProcs));
  profiles.push_back(profile_onk(2, 4, kMaxProcs));
  profiles.push_back(profile_consensus(3, kMaxProcs));
  profiles.push_back(profile_onk(3, 3, kMaxProcs));
  profiles.push_back(profile_consensus(5, kMaxProcs));
  profiles.push_back(make_sticky_profile(kMaxProcs));
  profiles.push_back(profile_cas(kMaxProcs));

  std::printf("F7: best (N, x)-set consensus per object class "
              "(x; lower = stronger)\n\n");
  std::printf("%-14s |", "class \\ N");
  for (int procs = 2; procs <= kMaxProcs; ++procs) {
    std::printf(" %3d", procs);
  }
  std::printf("\n---------------+%s\n",
              "------------------------------------------------------------");
  for (const auto& profile : profiles) {
    std::printf("%-14s |", profile.name.c_str());
    for (int procs = 2; procs <= kMaxProcs; ++procs) {
      std::printf(" %3d",
                  profile.best_agreement[static_cast<std::size_t>(procs - 1)]);
    }
    std::printf("\n");
  }

  // Sanity relations the papers establish, enforced on the full table.
  bool ok = true;
  const auto value = [&](std::size_t row, int procs) {
    return profiles[row].best_agreement[static_cast<std::size_t>(procs - 1)];
  };
  for (int procs = 2; procs <= kMaxProcs; ++procs) {
    // registers weakest, CAS strongest.
    for (std::size_t row = 1; row + 1 < profiles.size(); ++row) {
      ok = ok && value(0, procs) >= value(row, procs);
      ok = ok && value(row, procs) >= value(profiles.size() - 1, procs);
    }
    // 1sWRN chain: smaller k at least as strong (rows 1..3 are k=8,5,3).
    ok = ok && value(1, procs) >= value(2, procs);
    ok = ok && value(2, procs) >= value(3, procs);
    // O_{2,k} at least as strong as 2-consensus, improving with k.
    ok = ok && value(4, procs) >= value(5, procs);
    ok = ok && value(5, procs) >= value(6, procs);
    // every 1sWRN_k weaker than 2-consensus somewhere covered by: at N=2,
    // 1sWRN gives 2 (no help) while 2-consensus gives 1.
  }
  ok = ok && value(3, 2) == 2 && value(4, 2) == 1;  // the level-1/2 gap

  std::printf(
      "\nreading: every 1sWRN_k column dominates registers and is dominated\n"
      "by 2-consensus (the paper's 'between registers and 2-consensus');\n"
      "every O_{2,k} dominates 2-consensus and improves strictly with k at\n"
      "the sizes N_k = 2k+2+k (the 2016 hierarchy); compare&swap closes the\n"
      "map at x = 1.\n");
  std::vector<subc_bench::Json> rows;
  for (const auto& profile : profiles) {
    subc_bench::Json row;
    row.set("class", profile.name);
    std::vector<subc_bench::Json> cells;
    for (int procs = 2; procs <= kMaxProcs; ++procs) {
      subc_bench::Json cell;
      cell.set("procs", procs)
          .set("best_agreement",
               profile.best_agreement[static_cast<std::size_t>(procs - 1)]);
      cells.push_back(cell);
    }
    row.set("cells", cells);
    rows.push_back(row);
  }
  subc_bench::Json out;
  out.set("bench", "F7").set("classes", rows).set("pass", ok);
  subc_bench::write_json("BENCH_F7.json", out);

  std::printf("\nF7 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
