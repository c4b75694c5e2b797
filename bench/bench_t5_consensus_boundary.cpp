// Experiment T5 — the consensus-number boundary of WRN_k (Theorem 1 /
// Lemma 38 / §3's observation that WRN_2 = SWAP).
//
// The same "write mine, read next" protocol is run for 2 processes on WRN_k
// for k = 2..8:
//   * k = 2: exhaustively validated as a correct 2-consensus algorithm
//     (SWAP has consensus number 2);
//   * k ≥ 3: the explorer exhibits a disagreeing schedule (and prints it) —
//     the executable face of consensus number 1.
// Additionally the classic level-2 objects are validated as controls. All
// explorations run on the parallel work-sharing explorer (the reported
// disagreement schedule is the canonically least one, so it is identical at
// every thread count); results also land in BENCH_T5.json.
#include <cstdio>

#include "bench_util.hpp"
#include "subc/algorithms/classic_consensus.hpp"
#include "subc/core/consensus_number.hpp"
#include "subc/core/tasks.hpp"

namespace {

using namespace subc;

ConsensusWorldBody wrn_attempt(int k) {
  return [k](ScheduleDriver& driver, const std::vector<Value>& inputs) {
    Runtime rt;
    WrnObject wrn(k);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(consensus2_attempt_from_wrn(
            ctx, wrn, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_validity(inputs, run.decisions);
    check_agreement(run.decisions);
  };
}

}  // namespace

int main() {
  const int threads = subc_bench::bench_threads();
  std::printf("T5: consensus-number boundary of WRN_k (%d threads)\n\n",
              threads);
  std::printf("protocol: role b does t = WRN(b, v_b); decide t != ⊥ ? t : v_b\n\n");
  std::printf("%4s  %-12s  %s\n", "k", "verdict", "evidence");
  bool ok = true;
  std::vector<subc_bench::Json> boundary_rows;
  Explorer::Tally checked;  // the searches behind every check below

  for (int k = 2; k <= 8; ++k) {
    subc_bench::Json row;
    row.set("k", k);
    if (k == 2) {
      const auto check = check_consensus_algorithm(
          wrn_attempt(2), {{0, 1}, {1, 0}, {7, 7}}, 500'000, threads);
      const bool pass = check.ok() && check.exhaustive;
      ok = ok && pass;
      checked += check;
      std::printf("%4d  %-12s  solves 2-consensus; %lld executions, "
                  "exhaustive\n", k, pass ? "SWAP (=2)" : "FAIL",
                  static_cast<long long>(check.executions));
      row.set("verdict", pass ? "consensus number 2" : "FAIL")
          .set("executions", check.executions);
    } else {
      const auto violation =
          find_consensus_violation(wrn_attempt(k), {0, 1}, 500'000, threads);
      const bool pass = violation.has_value();
      ok = ok && pass;
      std::printf("%4d  %-12s  %s\n", k, pass ? "level 1" : "FAIL",
                  pass ? "disagreement schedule found" : "no violation found");
      row.set("verdict", pass ? "consensus number 1" : "FAIL")
          .set("violation_found", pass);
    }
    boundary_rows.push_back(row);
  }

  std::printf("\nprotocol synthesis (announce/WRN/decide family, "
              "k^2 x 25 protocols,\neach exhaustively model-checked):\n");
  std::printf("%4s  %10s  %10s\n", "k", "protocols", "correct");
  std::vector<subc_bench::Json> synthesis_rows;
  for (int k = 2; k <= 6; ++k) {
    const ProtocolSearchResult search = search_wrn_two_consensus_protocols(k);
    std::printf("%4d  %10ld  %10ld%s\n", k, search.protocols_checked,
                search.correct,
                k == 2 ? "  (SWAP: winners exist)" : "");
    ok = ok && ((k == 2) == (search.correct > 0));
    subc_bench::Json row;
    row.set("k", k)
        .set("protocols_checked",
             static_cast<std::int64_t>(search.protocols_checked))
        .set("correct", static_cast<std::int64_t>(search.correct));
    synthesis_rows.push_back(row);
  }

  std::printf("\ncontrols (all must solve 2-consensus exhaustively):\n");
  struct Control {
    const char* name;
    ConsensusWorldBody body;
  };
  const Control controls[] = {
      {"swap", [](ScheduleDriver& d, const std::vector<Value>& in) {
         Runtime rt;
         TwoConsensusShared sh;
         SwapRegister sw(kBottom);
         for (int p = 0; p < 2; ++p) {
           rt.add_process([&, p](Context& ctx) {
             ctx.decide(consensus2_from_swap(ctx, sh, sw, p,
                                             in[static_cast<std::size_t>(p)]));
           });
         }
         const auto run = rt.run(d);
         check_all_done_and_decided(run);
         check_validity(in, run.decisions);
         check_agreement(run.decisions);
       }},
      {"test&set", [](ScheduleDriver& d, const std::vector<Value>& in) {
         Runtime rt;
         TwoConsensusShared sh;
         TestAndSet tas;
         for (int p = 0; p < 2; ++p) {
           rt.add_process([&, p](Context& ctx) {
             ctx.decide(consensus2_from_tas(ctx, sh, tas, p,
                                            in[static_cast<std::size_t>(p)]));
           });
         }
         const auto run = rt.run(d);
         check_all_done_and_decided(run);
         check_validity(in, run.decisions);
         check_agreement(run.decisions);
       }},
      {"queue", [](ScheduleDriver& d, const std::vector<Value>& in) {
         Runtime rt;
         TwoConsensusShared sh;
         FifoQueue q{0};
         for (int p = 0; p < 2; ++p) {
           rt.add_process([&, p](Context& ctx) {
             ctx.decide(consensus2_from_queue(ctx, sh, q, p,
                                              in[static_cast<std::size_t>(p)]));
           });
         }
         const auto run = rt.run(d);
         check_all_done_and_decided(run);
         check_validity(in, run.decisions);
         check_agreement(run.decisions);
       }},
  };
  for (const auto& control : controls) {
    const auto check = check_consensus_algorithm(
        control.body, {{0, 1}, {1, 0}}, 500'000, threads);
    ok = ok && check.ok();
    checked += check;
    std::printf("  %-9s %s (%lld executions)\n", control.name,
                check.ok() ? "ok" : "FAIL",
                static_cast<long long>(check.executions));
  }

  subc_bench::Json out;
  out.set("bench", "T5")
      .set("checked_executions", checked.executions)
      .set("boundary", boundary_rows)
      .set("synthesis", synthesis_rows)
      .set("pass", ok);
  subc_bench::set_search_tally(out, checked);
  subc_bench::write_json("BENCH_T5.json", out);

  std::printf("\nT5 %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
