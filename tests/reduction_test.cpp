// Soundness fixture for the partial-order reduction: on a zoo of small
// worlds (registers, GAC/O_{n,k} instances, WRN objects, classic consensus
// constructions) the reduced search must reach the same verdict as the raw
// enumeration, explore no more executions, and report bit-identical Result
// fields at every thread count for a fixed reduction setting. Seeded
// violations — reachable only through specific interleavings of dependent
// steps — must still be caught with reduction on. A seeded generator of
// small stepped worlds then holds the default search to a differential
// oracle: one execution per Mazurkiewicz trace of the raw enumeration, the
// raw enumeration's verdict, and one Result at every thread count and
// frontier depth.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "subc/algorithms/classic_consensus.hpp"
#include "subc/core/tasks.hpp"
#include "subc/objects/onk.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/swap.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/stepper.hpp"

namespace subc {
namespace {

/// The four cells of the soundness matrix: {none, sleep_sets} × {1, 4}.
struct Matrix {
  Explorer::Result none_serial;
  Explorer::Result none_parallel;
  Explorer::Result sleep_serial;
  Explorer::Result sleep_parallel;
};

Matrix run_matrix(const ExecutionBody& body,
                  std::int64_t budget = 2'000'000) {
  const auto cell = [&](Reduction reduction, int threads) {
    Explorer::Options opts;
    opts.max_executions = budget;
    opts.reduction = reduction;
    opts.threads = threads;
    return Explorer::explore(body, opts);
  };
  Matrix m;
  m.none_serial = cell(Reduction::kNone, 1);
  m.none_parallel = cell(Reduction::kNone, 4);
  m.sleep_serial = cell(Reduction::kSleepSets, 1);
  m.sleep_parallel = cell(Reduction::kSleepSets, 4);
  return m;
}

/// Every Result field must match bit-for-bit (the cross-thread determinism
/// guarantee at a fixed reduction setting).
void expect_bit_identical(const Explorer::Result& a,
                          const Explorer::Result& b) {
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.pruned_subtrees, b.pruned_subtrees);
  EXPECT_EQ(a.reduced_subtrees, b.reduced_subtrees);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.violation, b.violation);
  ASSERT_EQ(a.violating_trace.size(), b.violating_trace.size());
  for (std::size_t i = 0; i < a.violating_trace.size(); ++i) {
    EXPECT_EQ(a.violating_trace[i].chosen, b.violating_trace[i].chosen);
    EXPECT_EQ(a.violating_trace[i].arity, b.violating_trace[i].arity);
    EXPECT_EQ(a.violating_trace[i].enabled, b.violating_trace[i].enabled);
    EXPECT_EQ(a.violating_trace[i].sleep, b.violating_trace[i].sleep);
  }
}

/// The core soundness contract: identical verdict across reduction settings,
/// reduction never explores more, both settings thread-count-deterministic.
void expect_sound(const Matrix& m) {
  expect_bit_identical(m.none_serial, m.none_parallel);
  expect_bit_identical(m.sleep_serial, m.sleep_parallel);
  EXPECT_EQ(m.none_serial.ok(), m.sleep_serial.ok());
  EXPECT_EQ(m.none_serial.complete, m.sleep_serial.complete);
  EXPECT_LE(m.sleep_serial.executions, m.none_serial.executions);
}

TEST(ReductionSoundness, RegisterWorldPassesAndShrinks) {
  // 3 processes over 3 registers: write own cell, read the next one. Reads
  // of distinct cells commute, so sleep sets must shrink the tree strictly
  // while the read-your-neighbor validity property keeps passing.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    std::array<Value, 3> seen{kBottom, kBottom, kBottom};
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, 10 + p);
        seen[static_cast<std::size_t>(p)] = regs[(p + 1) % 3].read(ctx);
      });
    }
    rt.run(driver);
    for (int p = 0; p < 3; ++p) {
      const Value v = seen[static_cast<std::size_t>(p)];
      if (v != kBottom && v != 10 + (p + 1) % 3) {
        throw SpecViolation("read a value nobody wrote to that cell");
      }
    }
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_TRUE(m.none_serial.ok()) << *m.none_serial.violation;
  EXPECT_TRUE(m.none_serial.complete);
  EXPECT_LT(m.sleep_serial.executions, m.none_serial.executions);
  EXPECT_GT(m.sleep_serial.reduced_subtrees, 0);
  EXPECT_EQ(m.none_serial.reduced_subtrees, 0);
}

TEST(ReductionSoundness, GacWorldKeepsAgreementVerdict) {
  // An onk_test instance: GAC(1,1) at full occupancy (m = 3) must emit at
  // most 2 distinct outputs, all proposals — exhaustively, both reduced and
  // raw. The GAC propose is an RMW on one object, so every pair of proposes
  // conflicts and reduction comes only from the decide/bookkeeping steps.
  const std::vector<Value> inputs{200, 201, 202};
  const ExecutionBody body = [&](ScheduleDriver& driver) {
    Runtime rt;
    GacObject gac(1, 1);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(gac.propose(ctx, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_set_consensus(run, inputs, 2);
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_TRUE(m.none_serial.ok()) << *m.none_serial.violation;
  EXPECT_TRUE(m.none_serial.complete);
}

TEST(ReductionSoundness, WrnWorldKeepsValidityVerdict) {
  // A wrn_object_test instance: 3 processes use 1sWRN_3 once each with
  // distinct indices; every output is ⊥ or some proposed value.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    OneShotWrnObject wrn(3);
    std::array<Value, 3> got{kBottom, kBottom, kBottom};
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        got[static_cast<std::size_t>(p)] = wrn.wrn(ctx, p, 10 + p);
      });
    }
    rt.run(driver);
    for (const Value v : got) {
      if (v != kBottom && (v < 10 || v > 12)) {
        throw SpecViolation("1sWRN returned a never-written value");
      }
    }
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_TRUE(m.none_serial.ok()) << *m.none_serial.violation;
  EXPECT_TRUE(m.none_serial.complete);
}

TEST(ReductionSoundness, ClassicConsensusWorldKeepsVerdict) {
  // A classic_consensus_test instance: 2-consensus from swap. Agreement and
  // validity hold on every schedule, reduced or not.
  const std::vector<Value> inputs{3, 9};
  const ExecutionBody body = [&](ScheduleDriver& driver) {
    Runtime rt;
    TwoConsensusShared shared;
    SwapRegister swap(kBottom);
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) {
        ctx.decide(consensus2_from_swap(
            ctx, shared, swap, p, inputs[static_cast<std::size_t>(p)]));
      });
    }
    const auto run = rt.run(driver);
    check_all_done_and_decided(run);
    check_validity(inputs, run.decisions);
    check_agreement(run.decisions);
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_TRUE(m.none_serial.ok()) << *m.none_serial.violation;
  EXPECT_TRUE(m.none_serial.complete);
}

TEST(ReductionSoundness, SeededRaceViolationStillCaught) {
  // A seeded bug reachable only through one interleaving of *dependent*
  // steps: p1's write lands between p0's write and read. The two writes and
  // the read all touch the same register, so no sleep set may skip the
  // schedule that exposes it.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    Register<> reg(kBottom);
    rt.add_process([&](Context& ctx) {
      reg.write(ctx, 1);
      if (reg.read(ctx) == 2) {
        throw SpecViolation("lost update: overwritten between write and read");
      }
    });
    rt.add_process([&](Context& ctx) { reg.write(ctx, 2); });
    rt.run(driver);
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_FALSE(m.none_serial.ok());
  EXPECT_FALSE(m.sleep_serial.ok());
  EXPECT_EQ(*m.sleep_serial.violation,
            "lost update: overwritten between write and read");
}

TEST(ReductionSoundness, SeededViolationBehindCommutingNoiseStillCaught) {
  // The violating schedule sits *past* commuting steps the reduction is
  // free to reorder: two noise processes touch private registers (fully
  // independent), then the dependent race from the previous test must still
  // be reached in some representative interleaving.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> noise(2, kBottom);
    Register<> reg(kBottom);
    rt.add_process([&](Context& ctx) {
      noise[0].write(ctx, 7);
      reg.write(ctx, 1);
      if (reg.read(ctx) == 2) {
        throw SpecViolation("race behind noise");
      }
    });
    rt.add_process([&](Context& ctx) {
      noise[1].write(ctx, 8);
      reg.write(ctx, 2);
    });
    rt.run(driver);
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_FALSE(m.sleep_serial.ok());
  EXPECT_EQ(*m.sleep_serial.violation, "race behind noise");
  EXPECT_GT(m.sleep_serial.reduced_subtrees, 0);
}

TEST(ReductionSoundness, ChooseDecisionsComposeWithReduction) {
  // Object nondeterminism (driver.choose via ctx.choose) interleaved with
  // commuting register steps: choose decision points carry no footprint and
  // must never be skipped, while the register noise still reduces.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(2, kBottom);
    std::array<std::uint32_t, 2> picks{0, 0};
    for (int p = 0; p < 2; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, p);
        picks[static_cast<std::size_t>(p)] = ctx.choose(3);
      });
    }
    rt.run(driver);
    if (picks[0] >= 3 || picks[1] >= 3) {
      throw SpecViolation("choose out of range");
    }
  };
  const Matrix m = run_matrix(body);
  expect_sound(m);
  EXPECT_TRUE(m.none_serial.ok()) << *m.none_serial.violation;
  // Both choose arms must survive reduction: 3 × 3 choice combinations.
  EXPECT_GE(m.sleep_serial.executions, 9);
}

}  // namespace
}  // namespace subc

namespace subc {
namespace {

// --- Generated worlds: a differential oracle for the reduction -----------

/// One shared operation of a generated process: on register `object`
/// (`object < registers`) a write or a read; on the swap (`object ==
/// registers`) a swap or a read.
struct GenOp {
  int object = 0;
  bool write = false;
};

/// A generated stepped world plus a planted final-state check.
struct GenWorld {
  static constexpr std::size_t kMaxOps = 4;
  int registers = 1;
  std::vector<std::vector<GenOp>> procs;
  /// The check fails when `target` ends holding the value op `target_op`
  /// of process `target_pid` wrote, and — when `reader >= 0` — op
  /// `reader_op` of process `reader` returned `read_value`.
  int target_pid = 0;
  std::size_t target_op = 0;
  int reader = -1;
  std::size_t reader_op = 0;
  Value read_value = 0;

  static Value value_of(int pid, std::size_t op) {
    return 100 * (pid + 1) + static_cast<Value>(op) + 1;
  }

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << registers << " register(s) + swap;";
    for (std::size_t p = 0; p < procs.size(); ++p) {
      os << " p" << p << ":";
      for (const GenOp& op : procs[p]) {
        os << ' ' << (op.object == registers ? "s" : "r")
           << (op.object == registers ? "" : std::to_string(op.object))
           << (op.write ? (op.object == registers ? "x" : "w") : "r");
      }
    }
    os << "; fails if op " << target_op << " of p" << target_pid
       << " wrote last";
    if (reader >= 0) {
      os << " and op " << reader_op << " of p" << reader << " read "
         << read_value;
    }
    return os.str();
  }
};

/// 2-4 processes of 1-4 operations over 1-3 registers and one swap, kept
/// small enough (at most 1,260 raw interleavings) for the raw enumeration
/// to be the oracle. The planted check targets a write the world makes.
GenWorld generate(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto below = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  GenWorld w;
  for (;;) {
    w.registers = 1 + below(3);
    w.procs.assign(static_cast<std::size_t>(2 + below(3)), {});
    for (std::vector<GenOp>& ops : w.procs) {
      ops.resize(static_cast<std::size_t>(1 + below(4)));
      for (GenOp& op : ops) {
        op.object = below(w.registers + 1);
        op.write = below(2) == 0;
      }
    }
    // Raw interleavings: the multinomial coefficient of the op counts.
    double interleavings = 1;
    std::size_t total = 0;
    for (const std::vector<GenOp>& ops : w.procs) {
      for (std::size_t i = 1; i <= ops.size(); ++i) {
        interleavings = interleavings * static_cast<double>(total + i) /
                        static_cast<double>(i);
      }
      total += ops.size();
    }
    std::vector<std::pair<int, std::size_t>> writes;
    for (std::size_t p = 0; p < w.procs.size(); ++p) {
      for (std::size_t i = 0; i < w.procs[p].size(); ++i) {
        if (w.procs[p][i].write) {
          writes.emplace_back(static_cast<int>(p), i);
        }
      }
    }
    if (interleavings > 1260 || writes.empty()) {
      continue;
    }
    const auto& [tp, ti] = writes[static_cast<std::size_t>(
        below(static_cast<int>(writes.size())))];
    w.target_pid = tp;
    w.target_op = ti;
    if (below(2) == 0) {
      w.reader = below(static_cast<int>(w.procs.size()));
      w.reader_op = static_cast<std::size_t>(
          below(static_cast<int>(w.procs[w.reader].size())));
      w.read_value = below(2) == 0
                         ? 0
                         : GenWorld::value_of(writes[0].first,
                                              writes[0].second);
    }
    return w;
  }
}

/// A generated process on the stepped engine: what each op returned goes
/// to `seen` (kBottom for writes to a register).
struct GenProcess {
  const GenWorld* world;
  int pid;
  RegisterArray<>* regs;
  SwapRegister* swap;
  std::array<Value, GenWorld::kMaxOps>* seen;

  std::size_t i_ = 0;

  void step(StepContext& ctx) {
    const std::vector<GenOp>& ops =
        world->procs[static_cast<std::size_t>(pid)];
    SUBC_STEP_BEGIN(ctx);
    for (i_ = 0; i_ < ops.size(); ++i_) {
      if (ops[i_].object < world->registers && ops[i_].write) {
        SUBC_STEP_POINT(ctx, (*regs)[ops[i_].object].oid(),
                        AccessKind::kWrite);
        (*regs)[ops[i_].object].step_write(ctx,
                                           GenWorld::value_of(pid, i_));
      } else if (ops[i_].object < world->registers) {
        SUBC_STEP_POINT(ctx, (*regs)[ops[i_].object].oid(),
                        AccessKind::kRead);
        (*seen)[i_] = (*regs)[ops[i_].object].step_read(ctx);
      } else if (ops[i_].write) {
        SUBC_STEP_POINT(ctx, swap->oid(), AccessKind::kRmw);
        (*seen)[i_] = swap->step_swap(ctx, GenWorld::value_of(pid, i_));
      } else {
        SUBC_STEP_POINT(ctx, swap->oid(), AccessKind::kRead);
        (*seen)[i_] = swap->step_read(ctx);
      }
    }
    SUBC_STEP_END(ctx);
  }
};

/// The world as an execution body. With `enforce` the planted check throws
/// on a failing final state; `failed` (when given) records whether any
/// finished execution failed it.
ExecutionBody gen_body(const GenWorld& w, bool enforce, bool* failed) {
  return [&w, enforce, failed](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(w.registers, 0);
    SwapRegister swap(0);
    std::vector<std::array<Value, GenWorld::kMaxOps>> seen(w.procs.size());
    for (auto& s : seen) {
      s.fill(kBottom);
    }
    for (std::size_t p = 0; p < w.procs.size(); ++p) {
      rt.add_stepped(
          GenProcess{&w, static_cast<int>(p), &regs, &swap, &seen[p]});
    }
    if (rt.run(driver).cut) {
      return;
    }
    const GenOp& target =
        w.procs[static_cast<std::size_t>(w.target_pid)][w.target_op];
    const Value mine = GenWorld::value_of(w.target_pid, w.target_op);
    bool fails = false;
    if (target.object < w.registers) {
      fails = regs[target.object].peek() == mine;
    } else {
      // The swap holds the one value no later swap took out of it.
      fails = true;
      for (std::size_t p = 0; p < w.procs.size(); ++p) {
        for (std::size_t i = 0; i < w.procs[p].size(); ++i) {
          const GenOp& op = w.procs[p][i];
          fails = fails && !(op.object == w.registers && op.write &&
                             seen[p][i] == mine);
        }
      }
    }
    if (w.reader >= 0) {
      fails = fails &&
              seen[static_cast<std::size_t>(w.reader)][w.reader_op] ==
                  w.read_value;
    }
    if (failed != nullptr && fails) {
      *failed = true;
    }
    if (enforce && fails) {
      throw SpecViolation("planted check: " + w.describe());
    }
  };
}

/// Records every raw execution's steps and keeps each one's lexicographic
/// normal form under `independent()`: of the steps whose dependent
/// predecessors are all placed, place the one of the least pid. A generated
/// process's ops are fixed, so the pid sequence names the trace (object ids
/// are handed out on first use, so they differ between runs).
class TraceClasses final : public TraceObserver {
 public:
  void on_run_begin(int /*num_processes*/) override { run_.clear(); }
  void on_step(const StepEvent& e) override { run_.push_back(e); }
  void on_run_end(std::int64_t /*total_steps*/, bool /*quiescent*/) override {
    const std::size_t m = run_.size();
    std::vector<bool> placed(m, false);
    std::vector<int> form;
    for (std::size_t round = 0; round < m; ++round) {
      std::size_t best = m;
      for (std::size_t j = 0; j < m; ++j) {
        bool ready = !placed[j];
        for (std::size_t i = 0; ready && i < j; ++i) {
          ready = placed[i] || (run_[i].pid != run_[j].pid &&
                                independent(run_[i].access, run_[j].access));
        }
        if (ready && (best == m || run_[j].pid < run_[best].pid)) {
          best = j;
        }
      }
      placed[best] = true;
      form.push_back(run_[best].pid);
    }
    classes_.insert(std::move(form));
  }
  [[nodiscard]] std::int64_t count() const {
    return static_cast<std::int64_t>(classes_.size());
  }

 private:
  std::vector<StepEvent> run_;
  std::set<std::vector<int>> classes_;
};

TEST(GeneratedWorlds, DefaultSearchMatchesTheRawOracle) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const GenWorld w = generate(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + w.describe());

    // The oracle: the raw enumeration, unchecked, classified into traces.
    TraceClasses classes;
    bool raw_fails = false;
    Explorer::Options raw;
    raw.reduction = Reduction::kNone;
    raw.observer = &classes;
    const auto all = Explorer::explore(gen_body(w, false, &raw_fails), raw);
    ASSERT_TRUE(all.complete);

    const auto counted = Explorer::explore(gen_body(w, false, nullptr), {});
    EXPECT_EQ(counted.executions, classes.count());

    const ExecutionBody checked = gen_body(w, true, nullptr);
    const auto serial = Explorer::explore(checked, {});
    EXPECT_EQ(serial.ok(), !raw_fails);
    for (const int threads : {2, 4}) {
      for (const int depth : {1, 3}) {
        Explorer::Options opts;
        opts.threads = threads;
        opts.frontier_depth = depth;
        const auto par = Explorer::explore(checked, opts);
        SCOPED_TRACE("threads " + std::to_string(threads) + " depth " +
                     std::to_string(depth));
        expect_bit_identical(par, serial);
        EXPECT_EQ(par.stuck_executions, serial.stuck_executions);
      }
    }
    if (::testing::Test::HasFailure()) {
      return;  // the first failing seed's world is in the trace above
    }
  }
}

}  // namespace
}  // namespace subc
