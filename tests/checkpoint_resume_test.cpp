// Campaign hardening: checkpoint/resume of the exhaustive explorer
// (checking/checkpoint.hpp) and backpressure on the parallel frontier ring.
// The load-bearing claim: killing a campaign at an arbitrary periodic
// snapshot and resuming produces the bit-identical final Result an
// uninterrupted run reports, at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "subc/checking/checkpoint.hpp"
#include "subc/objects/register.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/runtime.hpp"

namespace subc {
namespace {

// A fresh directory for checkpoint files, removed with everything in it
// when the owner goes out of scope, on every path out of a test.
class TempDir {
 public:
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "subc_ckpt_XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + pattern);
    }
    dir_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// A clean world (no violation): 3 processes x 2 steps, 90 raw schedules.
ExecutionBody clean_body() {
  return [](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(3, kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, p);
        regs[(p + 1) % 3].read(ctx);
      });
    }
    rt.run(driver);
  };
}

// A seeded-violation world: the classic lost update. Each process reads the
// shared counter and writes back the value plus one. The body flags only the
// schedules where all three reads precede every write (the counter ends at
// 1): the raw search meets the first of them at its ninth execution, after
// several periodic snapshots, so a kill can land before the violation.
ExecutionBody lost_update_body() {
  return [](ScheduleDriver& driver) {
    Runtime rt;
    Register<> counter(0);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&](Context& ctx) {
        const Value seen = counter.read(ctx);
        counter.write(ctx, seen + 1);
      });
    }
    rt.run(driver);
    if (counter.peek() == 1) {
      throw SpecViolation("lost update: counter ended at " +
                          to_string(counter.peek()));
    }
  };
}

void expect_same_result(const Explorer::Result& a, const Explorer::Result& b,
                        const std::string& what) {
  EXPECT_EQ(a.executions, b.executions) << what;
  EXPECT_EQ(a.pruned_subtrees, b.pruned_subtrees) << what;
  EXPECT_EQ(a.reduced_subtrees, b.reduced_subtrees) << what;
  EXPECT_EQ(a.crashed_executions, b.crashed_executions) << what;
  EXPECT_EQ(a.recovered_executions, b.recovered_executions) << what;
  EXPECT_EQ(a.stuck_executions, b.stuck_executions) << what;
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.violation, b.violation) << what;
  EXPECT_EQ(format_trace(a.violating_trace), format_trace(b.violating_trace))
      << what;
  EXPECT_EQ(a.first_stuck.has_value(), b.first_stuck.has_value()) << what;
  if (a.first_stuck && b.first_stuck) {
    EXPECT_EQ(a.first_stuck->message, b.first_stuck->message) << what;
    EXPECT_EQ(format_trace(a.first_stuck->trace),
              format_trace(b.first_stuck->trace))
        << what;
  }
}

/// Simulated kill: copies the checkpoint file aside when the campaign
/// reaches its `kill_at`-th execution. Whatever periodic snapshot is on disk
/// at that moment is exactly what a crashed process would leave behind.
class KillPoint final : public TraceObserver {
 public:
  KillPoint(std::string checkpoint, std::string keep, std::int64_t kill_at)
      : checkpoint_(std::move(checkpoint)),
        keep_(std::move(keep)),
        kill_at_(kill_at) {}

  void on_run_begin(int /*num_processes*/) override {
    if (runs_.fetch_add(1, std::memory_order_relaxed) + 1 == kill_at_ &&
        file_exists(checkpoint_)) {
      std::ofstream out(keep_, std::ios::trunc);
      out << read_file(checkpoint_);
    }
  }

 private:
  std::string checkpoint_;
  std::string keep_;
  std::int64_t kill_at_;
  std::atomic<std::int64_t> runs_{0};
};

/// Counts the worlds a search builds: every run it begins, cut or not.
class WorldCount final : public TraceObserver {
 public:
  void on_run_begin(int /*num_processes*/) override {
    worlds.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::int64_t> worlds{0};
};

// Kills a checkpointed campaign at several points, resumes each captured
// snapshot and compares with the uninterrupted Result, which it returns.
Explorer::Result run_kill_and_resume(const ExecutionBody& body,
                                     Explorer::Options opts,
                                     const std::string& tag) {
  Explorer::Options plain = opts;
  plain.checkpoint_path.clear();
  WorldCount count;
  plain.observer = &count;
  const auto uninterrupted = Explorer::explore(body, plain);

  // Kill points spread over the first two thirds of the uninterrupted run's
  // worlds, from the third on: a snapshot comes every second event, so one
  // is on disk by then.
  const std::int64_t worlds = count.worlds.load();
  int resumes = 0;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t kill_at = 3 + (worlds - 3) * i / 3;
    const TempDir dir;
    const std::string cp = dir.path("campaign.jsonl");
    const std::string keep = dir.path("campaign_keep.jsonl");

    Explorer::Options interrupted = opts;
    interrupted.checkpoint_path = cp;
    interrupted.checkpoint_every = 2;  // snapshot often enough to be killed
    KillPoint killer(cp, keep, kill_at);
    interrupted.observer = &killer;
    Explorer::explore(body, interrupted);

    // No snapshot on disk at the kill point means the campaign restarts
    // from scratch, trivially identical; only resume when the kill
    // captured one (the count below requires most kill points to).
    if (!file_exists(keep)) {
      continue;
    }
    ++resumes;
    // "Crash": the captured mid-run snapshot becomes the file a restarted
    // campaign finds.
    write_file(cp, read_file(keep));
    const ExplorerSnapshot snap = load_snapshot(cp);
    EXPECT_FALSE(snap.done) << tag << " kill_at=" << kill_at;

    Explorer::Options resumed_opts = opts;
    resumed_opts.checkpoint_path = cp;
    const auto resumed = Explorer::resume(body, cp, resumed_opts);
    expect_same_result(resumed, uninterrupted,
                       tag + " kill_at=" + std::to_string(kill_at));

    // The final snapshot the resumed campaign wrote marks the search done
    // and resumes to the same Result without re-running anything.
    const auto reloaded = Explorer::resume(body, cp, resumed_opts);
    expect_same_result(reloaded, uninterrupted, tag + " reloaded");
  }
  EXPECT_GE(resumes, 2) << tag << ": " << worlds << " worlds";
  return uninterrupted;
}

TEST(CheckpointResume, CleanWorldSerial) {
  Explorer::Options opts;
  run_kill_and_resume(clean_body(), opts, "clean_serial");
}

TEST(CheckpointResume, CleanWorldParallel) {
  Explorer::Options opts;
  opts.threads = 4;
  run_kill_and_resume(clean_body(), opts, "clean_par");
}

TEST(CheckpointResume, SeededViolationSerial) {
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;  // keep the violating tree broad
  EXPECT_FALSE(run_kill_and_resume(lost_update_body(), opts, "viol_serial")
                   .ok());
}

TEST(CheckpointResume, SeededViolationParallel) {
  Explorer::Options opts;
  opts.reduction = Reduction::kNone;
  opts.threads = 4;
  EXPECT_FALSE(
      run_kill_and_resume(lost_update_body(), opts, "viol_par").ok());
}

TEST(CheckpointResume, CrashExplorationCampaignResumes) {
  // Checkpointing composes with crash branching: the snapshot prefix
  // round-trips crash decisions.
  Explorer::Options opts;
  opts.max_crashes = 1;
  run_kill_and_resume(clean_body(), opts, "crash_serial");
  opts.threads = 4;
  run_kill_and_resume(clean_body(), opts, "crash_par");
}

TEST(CheckpointResume, RecoveryExplorationCampaignResumes) {
  // ...and with crash-and-restart branching: the snapshot prefix
  // round-trips recovery decisions, and the resumed campaign reports the
  // uninterrupted recovered-executions tally.
  Explorer::Options opts;
  opts.max_crashes = 1;
  opts.max_recoveries = 1;
  run_kill_and_resume(clean_body(), opts, "recovery_serial");
  opts.threads = 4;
  run_kill_and_resume(clean_body(), opts, "recovery_par");
}

TEST(CheckpointResume, ParallelWatermarkKeepsTheUnitCutsReductions) {
  // A full-branching sleep-set search (a prune hook that prunes nothing
  // turns source sets off) at 4 threads, snapshotting after every event.
  // Units below a first decision other than 0 run slowly on the workers, so
  // snapshots stop at a unit still running whose cutting attempt skipped
  // asleep options on its way down. A resume replays that unit's prefix
  // without counting those skips again: every snapshot must still resume to
  // the uninterrupted Result, at 1 and at 4 threads.
  const auto caller = std::this_thread::get_id();
  const ExecutionBody body = [caller](ScheduleDriver& driver) {
    Runtime rt;
    RegisterArray<> regs(4, kBottom);
    for (int p = 0; p < 4; ++p) {
      rt.add_process([&, p](Context& ctx) {
        regs[p].write(ctx, p);
        regs[(p + 1) % 4].read(ctx);
      });
    }
    if (rt.run(driver).cut || std::this_thread::get_id() == caller) {
      return;
    }
    const auto& trace = dynamic_cast<const ReplayDriver&>(driver).trace();
    if (trace.front().chosen != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  Explorer::Options opts;
  opts.prune = [](std::span<const ReplayDriver::Decision>) { return false; };
  opts.threads = 4;
  opts.frontier_depth = 3;
  const auto uninterrupted = Explorer::explore(body, opts);
  ASSERT_TRUE(uninterrupted.complete);
  EXPECT_GT(uninterrupted.reduced_subtrees, 0);

  // Every distinct snapshot on disk when a run begins.
  struct Snapshots final : TraceObserver {
    std::string path;
    std::mutex mu;
    std::vector<std::string> seen;
    void on_run_begin(int /*num_processes*/) override {
      std::string s = read_file(path);
      const std::lock_guard<std::mutex> lk(mu);
      if (!s.empty() && std::find(seen.begin(), seen.end(), s) == seen.end()) {
        seen.push_back(std::move(s));
      }
    }
  };
  const TempDir dir;
  const std::string cp = dir.path("watermark.jsonl");
  Snapshots snapshots;
  snapshots.path = cp;
  Explorer::Options checkpointed = opts;
  checkpointed.checkpoint_path = cp;
  checkpointed.checkpoint_every = 1;
  checkpointed.observer = &snapshots;
  Explorer::explore(body, checkpointed);
  ASSERT_FALSE(snapshots.seen.empty());

  for (std::size_t i = 0; i < snapshots.seen.size(); ++i) {
    for (const int threads : {1, 4}) {
      {
        std::ofstream out(cp, std::ios::trunc);
        out << snapshots.seen[i];
      }
      Explorer::Options resumed = opts;
      resumed.checkpoint_path = cp;
      resumed.threads = threads;
      expect_same_result(Explorer::resume(body, cp, resumed), uninterrupted,
                         "snapshot " + std::to_string(i) + " at " +
                             std::to_string(threads) + " threads");
    }
  }
}

TEST(CheckpointResume, FinishedSnapshotResumesWithoutRerunning) {
  const TempDir dir;
  const std::string cp = dir.path("done.jsonl");
  Explorer::Options opts;
  opts.checkpoint_path = cp;
  std::atomic<std::int64_t> bodies{0};
  const ExecutionBody counted = [&bodies](ScheduleDriver& driver) {
    bodies.fetch_add(1, std::memory_order_relaxed);
    clean_body()(driver);
  };
  const auto first = Explorer::explore(counted, opts);
  EXPECT_TRUE(first.complete);
  const std::int64_t ran = bodies.load();
  EXPECT_GT(ran, 0);

  const auto again = Explorer::resume(counted, cp, opts);
  expect_same_result(again, first, "finished resume");
  EXPECT_EQ(bodies.load(), ran) << "resume of a finished snapshot re-ran";
}

TEST(CheckpointResume, ResumeRejectsOptionMismatch) {
  const TempDir dir;
  const std::string cp = dir.path("mismatch.jsonl");
  Explorer::Options opts;
  opts.checkpoint_path = cp;
  Explorer::explore(clean_body(), opts);

  Explorer::Options other = opts;
  other.max_crashes = 1;
  EXPECT_THROW(Explorer::resume(clean_body(), cp, other), SimError);
  other = opts;
  other.max_recoveries = 1;
  EXPECT_THROW(Explorer::resume(clean_body(), cp, other), SimError);
  other = opts;
  other.max_executions += 1;
  EXPECT_THROW(Explorer::resume(clean_body(), cp, other), SimError);
  other = opts;
  other.reduction = Reduction::kNone;
  EXPECT_THROW(Explorer::resume(clean_body(), cp, other), SimError);
  // Thread count is explicitly allowed to differ.
  other = opts;
  other.threads = 4;
  const auto r = Explorer::resume(clean_body(), cp, other);
  EXPECT_TRUE(r.complete);
}

TEST(CheckpointResume, DecisionStringsRoundTripIncludingCrashFlags) {
  std::vector<ReplayDriver::Decision> trace;
  trace.push_back(ReplayDriver::Decision{1, 3, 0b111, 0b010, false, false});
  trace.push_back(ReplayDriver::Decision{2, 4, 0, 0, true, false});
  trace.push_back(ReplayDriver::Decision{1, 3, 0b1, 0, false, true});
  trace.push_back(ReplayDriver::Decision{0, 2, 0b11, 0, false, false});
  const std::string encoded = encode_decisions(trace);
  const auto decoded = decode_decisions(encoded);
  ASSERT_EQ(decoded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(decoded[i].chosen, trace[i].chosen) << i;
    EXPECT_EQ(decoded[i].arity, trace[i].arity) << i;
    EXPECT_EQ(decoded[i].enabled, trace[i].enabled) << i;
    EXPECT_EQ(decoded[i].sleep, trace[i].sleep) << i;
    EXPECT_EQ(decoded[i].crash, trace[i].crash) << i;
    EXPECT_EQ(decoded[i].recover, trace[i].recover) << i;
  }
  EXPECT_THROW(decode_decisions("1/2/3"), SimError);
  EXPECT_THROW(decode_decisions("5/2/0/0/0"), SimError);    // chosen >= arity
  EXPECT_THROW(decode_decisions("0/2/0/0/7"), SimError);    // bad crash flag
  EXPECT_THROW(decode_decisions("0/2/0/0/0/7"), SimError);  // bad recover flag

  // Five-field tokens from pre-recovery snapshots read back with
  // recover = false, bit-exactly otherwise.
  const auto legacy = decode_decisions("1/3/7/2/1");
  ASSERT_EQ(legacy.size(), 1u);
  EXPECT_EQ(legacy[0].chosen, 1);
  EXPECT_EQ(legacy[0].arity, 3);
  EXPECT_TRUE(legacy[0].crash);
  EXPECT_FALSE(legacy[0].recover);
}

TEST(CheckpointResume, DecisionStringsCarryBacktrackLists) {
  // A listed decision at its second option: the list (insertion order) and
  // the explored set round-trip; a full-branching decision writes "-".
  ReplayDriver::Decision listed{2, 3, 0b111, 0b000};
  listed.listed = 2;
  listed.list[0] = 0;
  listed.list[1] = 2;
  listed.explored = 0b001;
  const ReplayDriver::Decision full{1, 2, 0b11, 0};
  const std::vector<ReplayDriver::Decision> trace{listed, full};
  const std::string encoded = encode_decisions(trace);
  EXPECT_EQ(encoded, "2/3/7/0/0/0/1/02 1/2/3/0/0/0/0/-");
  const auto decoded = decode_decisions(encoded);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].listed, 2);
  EXPECT_EQ(decoded[0].list[0], 0);
  EXPECT_EQ(decoded[0].list[1], 2);
  EXPECT_EQ(decoded[0].explored, 0b001u);
  EXPECT_EQ(decoded[1].listed, 0);

  // Tokens from before source sets load as full-branching decisions.
  const auto legacy = decode_decisions("1/3/7/2/0/0");
  ASSERT_EQ(legacy.size(), 1u);
  EXPECT_EQ(legacy[0].listed, 0);

  EXPECT_THROW(decode_decisions("2/3/7/0/0/0/0/01"), SimError);  // no chosen
  EXPECT_THROW(decode_decisions("0/3/7/0/0/0/0/05"), SimError);  // >= arity
  EXPECT_THROW(decode_decisions("0/3/7/0/0/0/0/00"), SimError);  // repeated
  EXPECT_THROW(decode_decisions("0/17/0/0/0/0/0/0"), SimError);  // too wide
}

TEST(CheckpointResume, SnapshotFilesSurviveLoadSaveRoundTrip) {
  const TempDir dir;
  const std::string cp = dir.path("roundtrip.jsonl");
  ExplorerSnapshot snap;
  snap.max_executions = 1000;
  snap.max_crashes = 1;
  snap.max_recoveries = 1;
  snap.step_quota = 64;
  snap.reduction = true;
  snap.result.executions = 123;
  snap.result.pruned_subtrees = 4;
  snap.result.reduced_subtrees = 56;
  snap.result.crashed_executions = 7;
  snap.result.recovered_executions = 3;
  snap.result.stuck_executions = 2;
  snap.result.first_stuck =
      StuckExecution{"stuck execution: step quota (64) exceeded",
                     {ReplayDriver::Decision{1, 2, 0b11, 0, false}}};
  snap.prefix.push_back(ReplayDriver::Decision{0, 3, 0b111, 0b100, false});
  snap.prefix.push_back(ReplayDriver::Decision{1, 2, 0, 0, true});
  snap.prefix.push_back(ReplayDriver::Decision{1, 2, 0b1, 0, false, true});
  save_snapshot(cp, snap);
  const ExplorerSnapshot loaded = load_snapshot(cp);
  EXPECT_EQ(loaded.max_executions, snap.max_executions);
  EXPECT_EQ(loaded.max_crashes, snap.max_crashes);
  EXPECT_EQ(loaded.max_recoveries, snap.max_recoveries);
  EXPECT_EQ(loaded.step_quota, snap.step_quota);
  EXPECT_EQ(loaded.reduction, snap.reduction);
  EXPECT_EQ(loaded.result.executions, snap.result.executions);
  EXPECT_EQ(loaded.result.pruned_subtrees, snap.result.pruned_subtrees);
  EXPECT_EQ(loaded.result.reduced_subtrees, snap.result.reduced_subtrees);
  EXPECT_EQ(loaded.result.crashed_executions, snap.result.crashed_executions);
  EXPECT_EQ(loaded.result.recovered_executions,
            snap.result.recovered_executions);
  EXPECT_EQ(loaded.result.stuck_executions, snap.result.stuck_executions);
  EXPECT_FALSE(loaded.done);
  ASSERT_TRUE(loaded.result.first_stuck.has_value());
  EXPECT_EQ(loaded.result.first_stuck->message,
            snap.result.first_stuck->message);
  EXPECT_EQ(encode_decisions(loaded.result.first_stuck->trace),
            encode_decisions(snap.result.first_stuck->trace));
  EXPECT_EQ(encode_decisions(loaded.prefix), encode_decisions(snap.prefix));
}

// ---------------------------------------------------------------------------
// The snapshot format, pinned by literal files: a campaign's snapshots must
// stay loadable across releases, whatever shape the in-memory types take.
// These tests go through the file and the public Result only.
// ---------------------------------------------------------------------------

ExecutionBody never_run_body() {
  return [](ScheduleDriver& /*driver*/) {
    ADD_FAILURE() << "resuming a finished snapshot ran the body";
  };
}

TEST(CheckpointResume, GoldenSnapshotReproducesByteForByte) {
  // Every count nonzero, a violation (with characters the writer escapes),
  // a stuck diagnostic, and a prefix whose first decision is listed.
  const std::string golden =
      R"({"kind":"header","version":1,"max_executions":1000,"max_crashes":1,)"
      R"("max_recoveries":1,"step_quota":64,"reduction":"sleep",)"
      R"("stateful":true})"
      "\n"
      R"({"kind":"state","executions":123,"pruned":4,"reduced":56,)"
      R"("crashed":7,"recovered":3,"stuck":2,"stateful_cuts":9,"done":true,)"
      R"("complete":false,"violation":"lost \"update\":\tcounter ended at 1",)"
      R"("violating_trace":"1/3/7/2/0/0/0/- 0/2/0/0/1/0/0/-",)"
      R"("stuck_message":"stuck execution: step quota (64) exceeded",)"
      R"("stuck_trace":"0/2/3/0/0/1/0/-",)"
      R"("prefix":"2/3/7/0/0/0/1/02 1/2/3/0/0/0/0/-"})"
      "\n";
  const TempDir dir;
  const std::string in = dir.path("golden.jsonl");
  const std::string out = dir.path("golden_again.jsonl");
  write_file(in, golden);
  save_snapshot(out, load_snapshot(in));
  EXPECT_EQ(read_file(out), golden);

  Explorer::Options opts;
  opts.max_executions = 1000;
  opts.max_crashes = 1;
  opts.max_recoveries = 1;
  opts.step_quota = 64;
  opts.stateful = true;
  const Explorer::Result r = Explorer::resume(never_run_body(), in, opts);
  EXPECT_EQ(r.executions, 123);
  EXPECT_EQ(r.pruned_subtrees, 4);
  EXPECT_EQ(r.reduced_subtrees, 56);
  EXPECT_EQ(r.crashed_executions, 7);
  EXPECT_EQ(r.recovered_executions, 3);
  EXPECT_EQ(r.stuck_executions, 2);
  EXPECT_EQ(r.stateful_cuts, 9);
  EXPECT_EQ(r.stateful_states, 0);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.violation, "lost \"update\":\tcounter ended at 1");
  EXPECT_EQ(encode_decisions(r.violating_trace),
            "1/3/7/2/0/0/0/- 0/2/0/0/1/0/0/-");
  ASSERT_TRUE(r.first_stuck.has_value());
  EXPECT_EQ(r.first_stuck->message,
            "stuck execution: step quota (64) exceeded");
  EXPECT_EQ(encode_decisions(r.first_stuck->trace), "0/2/3/0/0/1/0/-");
}

TEST(CheckpointResume, LegacySnapshotReadsMissingFieldsAsZero) {
  // Written before recovery branching and stateful search: no
  // max_recoveries, stateful, recovered or stateful_cuts.
  const std::string legacy =
      R"({"kind":"header","version":1,"max_executions":500,"max_crashes":1,)"
      R"("step_quota":0,"reduction":"none"})"
      "\n"
      R"({"kind":"state","executions":40,"pruned":0,"reduced":0,"crashed":12,)"
      R"("stuck":0,"done":true,"complete":true,"prefix":""})"
      "\n";
  const TempDir dir;
  const std::string cp = dir.path("legacy.jsonl");
  write_file(cp, legacy);
  Explorer::Options opts;
  opts.max_executions = 500;
  opts.max_crashes = 1;
  opts.reduction = Reduction::kNone;
  const Explorer::Result r = Explorer::resume(never_run_body(), cp, opts);
  EXPECT_EQ(r.executions, 40);
  EXPECT_EQ(r.crashed_executions, 12);
  EXPECT_EQ(r.recovered_executions, 0);
  EXPECT_EQ(r.stateful_cuts, 0);
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.ok());
  // The absent echoes read as max_recoveries = 0 and stateful = false.
  Explorer::Options other = opts;
  other.max_recoveries = 1;
  EXPECT_THROW(Explorer::resume(never_run_body(), cp, other), SimError);
  other = opts;
  other.stateful = true;
  EXPECT_THROW(Explorer::resume(never_run_body(), cp, other), SimError);
}

TEST(CheckpointResume, MalformedDecisionTokensAreRejected) {
  EXPECT_THROW(decode_decisions("0/2//0/0"), SimError);    // empty field
  EXPECT_THROW(decode_decisions("0/2/-1/0/0"), SimError);  // signed
  EXPECT_THROW(decode_decisions("0/2/+1/0/0"), SimError);
  EXPECT_THROW(decode_decisions("0/2/3/ 1/0"), SimError);
  // Out of range for the field: 32-bit chosen and arity, 64-bit masks.
  EXPECT_THROW(decode_decisions("4294967297/2/3/0/0"), SimError);
  EXPECT_THROW(decode_decisions("0/4294967298/0/0/0"), SimError);
  EXPECT_THROW(decode_decisions("0/2/18446744073709551616/0/0"), SimError);
  EXPECT_THROW(decode_decisions("0/2/3/0/0/0//-"), SimError);  // no explored
  // The largest values each field holds still load.
  const auto widest =
      decode_decisions("0/4294967295/18446744073709551615/0/0/0/0/-");
  ASSERT_EQ(widest.size(), 1u);
  EXPECT_EQ(widest[0].arity, 4294967295u);
  EXPECT_EQ(widest[0].enabled, 18446744073709551615u);
}

TEST(CheckpointResume, MalformedSnapshotCountsAreRejected) {
  const std::string header =
      R"({"kind":"header","version":1,"max_executions":5,"max_crashes":0,)"
      R"("max_recoveries":0,"step_quota":0,"reduction":"none",)"
      R"("stateful":false})";
  const std::string state =
      R"({"kind":"state","executions":0,"pruned":0,"reduced":0,"crashed":0,)"
      R"("recovered":0,"stuck":0,"stateful_cuts":0,"done":false,)"
      R"("complete":false,"prefix":""})";
  const TempDir dir;
  const std::string cp = dir.path("malformed.jsonl");
  // `line` with the value of `key` replaced by `value`.
  const auto with = [](std::string line, const std::string& key,
                       const std::string& value) {
    const std::string pat = "\"" + key + "\":";
    const std::size_t at = line.find(pat) + pat.size();
    line.replace(at, line.find_first_of(",}", at) - at, value);
    return line;
  };
  const auto load = [&cp](const std::string& h, const std::string& s) {
    write_file(cp, h + "\n" + s + "\n");
    return load_snapshot(cp);
  };
  EXPECT_NO_THROW(load(header, state));
  for (const char* key : {"executions", "pruned", "reduced", "crashed",
                          "recovered", "stuck", "stateful_cuts"}) {
    EXPECT_THROW(load(header, with(state, key, "-1")), SimError) << key;
    EXPECT_THROW(load(header, with(state, key, "")), SimError) << key;
    EXPECT_THROW(load(header, with(state, key, "9223372036854775808")),
                 SimError)
        << key;
  }
  for (const char* key :
       {"max_executions", "max_crashes", "max_recoveries", "step_quota"}) {
    EXPECT_THROW(load(with(header, key, "-1"), state), SimError) << key;
  }
  // Only a finished search records a violation.
  std::string violating = state;
  violating.insert(violating.find(R"(,"prefix")"),
                   R"(,"violation":"x","violating_trace":"")");
  EXPECT_THROW(load(header, violating), SimError);
  EXPECT_NO_THROW(load(header, with(violating, "done", "true")));
  // Echoes held in an int must fit one.
  EXPECT_THROW(load(with(header, "max_crashes", "4294967296"), state),
               SimError);
  EXPECT_THROW(load(with(header, "max_recoveries", "2147483648"), state),
               SimError);

  // A negative watermark must not resume: it would hand the search more
  // budget than `max_executions` and report a count it never ran.
  write_file(cp, header + "\n" + with(state, "executions", "-40") + "\n");
  Explorer::Options opts;
  opts.max_executions = 5;
  opts.reduction = Reduction::kNone;
  EXPECT_THROW(Explorer::resume(clean_body(), cp, opts), SimError);
}

TEST(CheckpointResume, SnapshotFieldsAreReadStrictly) {
  const std::string header =
      R"({"kind":"header","version":1,"max_executions":5,"max_crashes":0,)"
      R"("max_recoveries":0,"step_quota":0,"reduction":"none",)"
      R"("stateful":false})";
  const std::string state =
      R"({"kind":"state","executions":0,"pruned":0,"reduced":0,"crashed":0,)"
      R"("recovered":0,"stuck":0,"stateful_cuts":0,"done":false,)"
      R"("complete":false,"prefix":""})";
  const TempDir dir;
  const std::string cp = dir.path("strict.jsonl");
  // The message load_snapshot throws for header `h` and state line `s`.
  const auto error = [&cp](const std::string& h, const std::string& s) {
    write_file(cp, h + "\n" + s + "\n");
    try {
      load_snapshot(cp);
    } catch (const SimError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto replaced = [](std::string line, const std::string& from,
                           const std::string& to) {
    line.replace(line.find(from), from.size(), to);
    return line;
  };
  // Errors name the function that read the line: a state line without its
  // prefix is load_snapshot's to report, not the trace parser's.
  EXPECT_EQ(error(header, replaced(state, R"(,"prefix":"")", "")),
            "load_snapshot: missing field \"prefix\" in: " +
                replaced(state, R"(,"prefix":"")", ""));
  EXPECT_EQ(error(header, replaced(state, R"("kind":"state",)", ""))
                .rfind("load_snapshot: missing field \"kind\"", 0),
            0u);
  // A number is digits up to the end of its value, a flag true or false.
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {R"("version":1)", R"("version":1x)"},
           {R"("version":1)", R"("version":"1")"},
           {R"("version":1)", R"("version":-1)"},
           {R"("max_crashes":0)", R"("max_crashes":0.5)"},
           {R"("stateful":false)", R"("stateful":maybe)"}}) {
    const std::string message = error(replaced(header, from, to), state);
    EXPECT_EQ(message.rfind("load_snapshot: ", 0), 0u) << to;
  }
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {R"("executions":0)", R"("executions":12x)"},
           {R"("stuck":0)", R"("stuck":0 )"},
           {R"("done":false)", R"("done":yes)"},
           {R"("prefix":"")", R"("prefix":7)"}}) {
    const std::string message = error(header, replaced(state, from, to));
    EXPECT_EQ(message.rfind("load_snapshot: ", 0), 0u) << to;
  }
  EXPECT_EQ(error(header, state), "no error");
}

TEST(CheckpointResume, CheckpointedSerialSearchBuildsOneWorldPerExecution) {
  // At threads = 1 the walker has no workers and no frontier: a checkpointed
  // default search of the mixed world (source sets) builds one world per
  // execution, with no world cut at a frontier.
  const ExecutionBody body = [](ScheduleDriver& driver) {
    Runtime rt;
    Register<> shared(0);
    RegisterArray<> own(3, 0);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&, p](Context& ctx) {
        for (int s = 0; s < 4; ++s) {
          if (s % 2 == 0) {
            own[p].write(ctx, s);
          } else {
            shared.write(ctx, p);
          }
        }
      });
    }
    rt.run(driver);
  };
  const TempDir dir;
  const std::string cp = dir.path("one_world.jsonl");
  ProgressTicker ticker(/*period_seconds=*/1e9, nullptr);
  Explorer::Options opts;
  opts.checkpoint_path = cp;
  opts.checkpoint_every = 16;
  opts.observer = &ticker;
  const auto result = Explorer::explore(body, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.executions, 1);
  const auto snap = ticker.snapshot();
  EXPECT_EQ(snap.executions, result.executions);
  EXPECT_EQ(snap.runs, result.executions);
}

// ---------------------------------------------------------------------------
// Ring pressure: more frontier units than the ring's 256 slots make the
// walker run queued units itself, and the final Result stays bit-identical.
// ---------------------------------------------------------------------------

TEST(CheckpointResume, FullFrontierRingDrainsInlineAndStaysExact) {
  // 3 processes x 3 writes under kNone: 1680 executions, and 450 frontier
  // units at depth 6. The lone worker's executions wait until the calling
  // thread has run an execution below the frontier, i.e. one of a unit: the
  // worker sits in its first unit, the ring fills, and only an inline drain
  // lets the search go on. The walker's own runs that end above the
  // frontier record at most 6 decisions; a unit's record more. Under kNone
  // the only cuts are the walker's frontier cuts, so counting them dates
  // the first inline unit within the walk.
  constexpr std::size_t kDepth = 6;
  struct Gate {
    std::thread::id caller = std::this_thread::get_id();
    std::atomic<std::int64_t> frontier_cuts{0};
    std::atomic<std::int64_t> cuts_at_drain{-1};  ///< at the first inline unit
  };
  const auto gated_body = [](Gate* gate) -> ExecutionBody {
    return [gate](ScheduleDriver& driver) {
      Runtime rt;
      RegisterArray<> regs(3, kBottom);
      for (int p = 0; p < 3; ++p) {
        rt.add_process([&, p](Context& ctx) {
          for (int i = 0; i < 3; ++i) {
            regs[p].write(ctx, i);
          }
        });
      }
      if (rt.run(driver).cut) {
        if (gate != nullptr) {
          gate->frontier_cuts.fetch_add(1);
        }
        return;
      }
      if (gate == nullptr) {
        return;
      }
      if (std::this_thread::get_id() == gate->caller) {
        std::int64_t none = -1;
        if (dynamic_cast<const ReplayDriver&>(driver).trace().size() > kDepth) {
          gate->cuts_at_drain.compare_exchange_strong(
              none, gate->frontier_cuts.load());
        }
        return;
      }
      // Bounded wait (~30 s) so a regression fails the asserts below
      // instead of tripping the ctest timeout.
      for (int spin = 0; spin < 600'000 && gate->cuts_at_drain.load() < 0;
           ++spin) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    };
  };
  Explorer::Options reference;
  reference.reduction = Reduction::kNone;
  const auto serial = Explorer::explore(gated_body(nullptr), reference);
  EXPECT_EQ(serial.executions, 1680);

  Gate gate;
  Explorer::Options tight = reference;
  tight.threads = 2;  // one worker, held in its first unit
  tight.frontier_depth = static_cast<int>(kDepth);
  const auto drained = Explorer::explore(gated_body(&gate), tight);
  expect_same_result(drained, serial, "ring pressure");
  EXPECT_GT(gate.frontier_cuts.load(), 256);
  // The walker ran a unit itself and then went on cutting: a drain in the
  // middle of the walk, which only a full ring causes.
  EXPECT_GE(gate.cuts_at_drain.load(), 256);
  EXPECT_LT(gate.cuts_at_drain.load(), gate.frontier_cuts.load());
}

}  // namespace
}  // namespace subc
