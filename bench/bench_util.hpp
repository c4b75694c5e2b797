// Shared helpers for the experiment binaries: machine-readable JSON result
// files (BENCH_<ID>.json, written into the current working directory so the
// perf trajectory can be tracked across PRs), wall-clock timing, and the
// worker-thread count used when benches drive the parallel explorer.
//
// The JSON emitter is deliberately tiny: flat objects whose values are
// numbers, strings, booleans, nested objects, or arrays of objects — enough
// for result grids, and zero dependencies.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "subc/objects/register.hpp"
#include "subc/runtime/arena.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/policy.hpp"

namespace subc_bench {

class Json {
 public:
  Json& set(const std::string& key, const std::string& v) {
    return put(key, quote(v));
  }
  Json& set(const std::string& key, const char* v) {
    return put(key, quote(v));
  }
  Json& set(const std::string& key, bool v) {
    return put(key, v ? "true" : "false");
  }
  Json& set(const std::string& key, double v) {
    std::ostringstream os;
    os << v;
    return put(key, os.str());
  }
  Json& set(const std::string& key, std::int64_t v) {
    return put(key, std::to_string(v));
  }
  Json& set(const std::string& key, int v) {
    return set(key, static_cast<std::int64_t>(v));
  }
  Json& set(const std::string& key, long long v) {
    return set(key, static_cast<std::int64_t>(v));
  }
  Json& set(const std::string& key, const Json& v) { return put(key, v.str()); }
  Json& set(const std::string& key, const std::vector<std::int64_t>& xs) {
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += std::to_string(xs[i]);
    }
    out += "]";
    return put(key, std::move(out));
  }
  Json& set(const std::string& key, const std::vector<Json>& rows) {
    std::string out = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += rows[i].str();
    }
    out += "]";
    return put(key, std::move(out));
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) {
        out += ", ";
      }
      out += quote(fields_[i].first) + ": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += "\"";
    return out;
  }

  Json& put(const std::string& key, std::string encoded) {
    fields_.emplace_back(key, std::move(encoded));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Stamps the partial-order-reduction telemetry carried by every
/// BENCH_<ID>.json: `reduced_subtrees` (how many redundant scheduling
/// options sleep sets skipped across all explorations the bench ran) and
/// `reduction_factor` ((executions + reduced_subtrees) / executions). Each
/// skipped subtree holds at least one execution, so the factor lower-bounds
/// the raw/reduced execution-count ratio. It is not the work saved: it falls
/// as source sets visit fewer decisions. Benches that never drive the
/// exhaustive explorer pass (0, 0) and report factor 1.
inline void set_reduction_fields(Json& json, std::int64_t reduced_subtrees,
                                 std::int64_t executions) {
  json.set("reduced_subtrees", reduced_subtrees);
  json.set("reduction_factor",
           executions > 0
               ? static_cast<double>(executions + reduced_subtrees) /
                     static_cast<double>(executions)
               : 1.0);
}

/// Per-policy smoke cells stamped into every BENCH_<ID>.json: one PCT run
/// and one crash-adversary run over a small canonical world, each watched
/// by an `AccessCounters` observer. The cells prove the adversarial policy
/// layer and the observer plumbing are alive in the bench stage, and give
/// every artifact a `schedule_policy` field plus observer-counter totals so
/// the perf trajectory records which policies each binary was built against.
inline void set_policy_fields(Json& json) {
  const subc::ExecutionBody body = [](subc::ScheduleDriver& driver) {
    subc::Runtime rt;
    subc::RegisterArray<> regs(3, subc::kBottom);
    for (int p = 0; p < 3; ++p) {
      rt.add_process([&regs, p](subc::Context& ctx) {
        regs[static_cast<std::size_t>(p)].write(ctx, p);
        (void)regs[static_cast<std::size_t>((p + 1) % 3)].read(ctx);
        (void)ctx.choose(2);
      });
    }
    rt.run(driver);
  };

  std::vector<Json> cells;
  std::int64_t steps = 0;
  std::int64_t chooses = 0;
  std::int64_t crashes = 0;

  {
    subc::AccessCounters counters;
    subc::PctPolicy policy(/*seed=*/1, /*depth=*/2, /*horizon=*/64);
    const auto violation = subc::run_one(body, policy, &counters);
    Json cell;
    cell.set("policy", "pct(seed=1,depth=2,horizon=64)");
    cell.set("steps", counters.steps());
    cell.set("chooses", counters.chooses());
    cell.set("crashes", counters.crashes());
    cell.set("ok", !violation.has_value());
    cells.push_back(cell);
    steps += counters.steps();
    chooses += counters.chooses();
    crashes += counters.crashes();
  }
  {
    subc::AccessCounters counters;
    subc::RandomDriver inner(/*seed=*/1);
    subc::CrashAdversary adversary(
        inner, {subc::CrashAdversary::CrashPoint{/*victim=*/1,
                                                 /*after_steps=*/1}});
    const auto violation = subc::run_one(body, adversary, &counters);
    Json cell;
    cell.set("policy", "crash_adversary(plan=[p1@1],inner=random(seed=1))");
    cell.set("steps", counters.steps());
    cell.set("chooses", counters.chooses());
    cell.set("crashes", counters.crashes());
    cell.set("ok", !violation.has_value());
    cells.push_back(cell);
    steps += counters.steps();
    chooses += counters.chooses();
    crashes += counters.crashes();
  }

  json.set("schedule_policy", "pct(depth=2,horizon=64)+crash_adversary(f=1)");
  json.set("observer_steps", steps);
  json.set("observer_chooses", chooses);
  json.set("observer_crashes", crashes);
  json.set("policy_smoke", cells);
}

/// Stamps a throughput cell: `executions` completed in `elapsed_ms` of wall
/// clock → `executions_per_sec` (0 when nothing ran or no time passed).
/// This is the headline number the perf trajectory tracks across PRs.
inline void set_rate_fields(Json& json, std::int64_t executions,
                            double elapsed_ms) {
  json.set("executions", executions);
  json.set("elapsed_ms", elapsed_ms);
  json.set("executions_per_sec",
           elapsed_ms > 0.0
               ? static_cast<double>(executions) / (elapsed_ms / 1000.0)
               : 0.0);
}

/// Stamps the crash-exploration telemetry carried by benches that drive the
/// exhaustive explorer with crash branching (Explorer::Options::max_crashes):
/// the crash budget, how many explored executions actually contained a
/// crash, and how many were cut by the step-quota watchdog. Benches that
/// explore crash-free pass (0, 0, 0) so every artifact carries the cells and
/// the perf trajectory can tell "no crashes explored" from "field missing".
inline void set_crash_fields(Json& json, int max_crashes,
                             std::int64_t crashed_executions,
                             std::int64_t stuck_executions) {
  json.set("max_crashes", static_cast<std::int64_t>(max_crashes));
  json.set("crashed_executions", crashed_executions);
  json.set("stuck_executions", stuck_executions);
}

/// Stamps the crash-recovery telemetry (Explorer::Options::max_recoveries):
/// the restart budget and how many explored executions actually restarted a
/// crashed process. Benches that explore without recovery branching pass
/// (0, 0) so every artifact carries the cells and the perf trajectory can
/// tell "no restarts explored" from "field missing".
inline void set_recovery_fields(Json& json, int max_recoveries,
                                std::int64_t recovered_executions) {
  json.set("max_recoveries", static_cast<std::int64_t>(max_recoveries));
  json.set("recovered_executions", recovered_executions);
}

/// Stamps the stateful-exploration telemetry (Explorer::Options::stateful):
/// the cuts taken, distinct states recorded, visited-set occupancy
/// (states / capacity) and hit rate (cuts / (cuts + states) — the fraction
/// of probes that found their fingerprint already present). Benches that
/// explore stateless pass (0, 0, capacity) so every artifact carries the
/// cells and the perf trajectory can tell "stateful off" from "field
/// missing".
inline void set_stateful_fields(Json& json, std::int64_t stateful_cuts,
                                std::int64_t stateful_states,
                                std::int64_t capacity) {
  json.set("stateful_cuts", stateful_cuts);
  json.set("stateful_states", stateful_states);
  json.set("stateful_occupancy",
           capacity > 0 ? static_cast<double>(stateful_states) /
                              static_cast<double>(capacity)
                        : 0.0);
  json.set("stateful_hit_rate",
           stateful_cuts + stateful_states > 0
               ? static_cast<double>(stateful_cuts) /
                     static_cast<double>(stateful_cuts + stateful_states)
               : 0.0);
}

/// Stamps the agreement-as-a-service soak telemetry (bench_f8's
/// multi-instance harness over runtime/instance.hpp): sustained operation
/// throughput, decision-latency percentiles in virtual-clock ticks, the
/// instance-table high-water mark and GC volume, and the audit sampler's
/// totals. `soak_violations` must stay 0 — the soak self-gates on it.
/// The sharding cells describe the headline (multi-shard) configuration:
/// `soak_shards` workers, per-shard applied-op counts in `soak_shard_ops`,
/// cross-shard dedup memo hits, and `soak_scaling_x` — the aggregate ops/s
/// of the headline configuration over the 1-shard configuration (stamped as
/// measured even on hosts with too few cores for the scaling self-gate).
inline void set_soak_fields(Json& json, double ops_per_sec, double p50_ticks,
                            double p99_ticks, std::int64_t peak_live,
                            std::int64_t instances_gcd, std::int64_t audited,
                            std::int64_t violations, std::int64_t shards = 1,
                            const std::vector<std::int64_t>& shard_ops = {},
                            std::int64_t dedup_hits = 0,
                            double scaling_x = 1.0) {
  json.set("soak_ops_per_sec", ops_per_sec);
  json.set("soak_p50_ticks", p50_ticks);
  json.set("soak_p99_ticks", p99_ticks);
  json.set("soak_peak_live", peak_live);
  json.set("soak_instances_gcd", instances_gcd);
  json.set("soak_audited", audited);
  json.set("soak_violations", violations);
  json.set("soak_shards", shards);
  json.set("soak_shard_ops", shard_ops);
  json.set("soak_dedup_hits", dedup_hits);
  json.set("soak_scaling_x", scaling_x);
}

/// Allocation-counter snapshot (`subc::alloc_counters()`): arena growth and
/// reuse plus fiber-stack pool hits across everything the bench ran so far.
/// Reuse counters climbing while chunk/alloc counters stay flat is the
/// allocation-free hot path working as designed.
inline Json alloc_counter_cell(const subc::AllocCounters& c) {
  Json cell;
  cell.set("arena_chunks", static_cast<std::int64_t>(c.arena_chunks));
  cell.set("arena_bytes", static_cast<std::int64_t>(c.arena_bytes));
  cell.set("arena_reuses", static_cast<std::int64_t>(c.arena_reuses));
  cell.set("fiber_stack_reuses",
           static_cast<std::int64_t>(c.fiber_stack_reuses));
  cell.set("fiber_stack_allocs",
           static_cast<std::int64_t>(c.fiber_stack_allocs));
  cell.set("stepped_blocks_carved",
           static_cast<std::int64_t>(c.stepped_blocks_carved));
  cell.set("stepped_block_reuses",
           static_cast<std::int64_t>(c.stepped_block_reuses));
  cell.set("stepped_block_bytes",
           static_cast<std::int64_t>(c.stepped_block_bytes));
  cell.set("instance_blocks_carved",
           static_cast<std::int64_t>(c.instance_blocks_carved));
  cell.set("instance_block_reuses",
           static_cast<std::int64_t>(c.instance_block_reuses));
  cell.set("instance_block_bytes",
           static_cast<std::int64_t>(c.instance_block_bytes));
  return cell;
}

inline Json alloc_counter_cell() {
  return alloc_counter_cell(subc::alloc_counters());
}

/// Writes `json` to `path` (+ trailing newline), stamping the process-wide
/// allocation counters into an `alloc_counters` cell first so every
/// BENCH_<ID>.json carries the allocator telemetry without per-bench
/// plumbing. Returns false on IO error.
inline bool write_json(const std::string& path, const Json& json) {
  Json stamped = json;
  stamped.set("alloc_counters", alloc_counter_cell());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string body = stamped.str() + "\n";
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

/// Worker threads for bench runs: $SUBC_BENCH_THREADS when set, otherwise
/// one per hardware thread.
inline int bench_threads() {
  if (const char* env = std::getenv("SUBC_BENCH_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Monotonic wall-clock stopwatch in milliseconds.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace subc_bench
