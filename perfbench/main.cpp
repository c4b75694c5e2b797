// perfbench: wall-clock benchmark of the explorer and the agreement service.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// Workloads: explore-mixed, explore-claims, serve-paced, serve-flood
// (BENCHMARK.md says what each one measures and why). With --trace 0 the
// run first times the workload's set-up in several fresh child processes
// (setup_s is their median), then sets up once more itself, measures for
// --seconds and reports the end-to-end metrics. With --trace 1 it runs the
// traced variant, reports the per-layer metrics and writes the spans to
// <trace-dir>/<workload>-seed<n>.spans.jsonl. The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_explore_mixed(std::uint64_t seed);
std::unique_ptr<Workload> make_explore_claims(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_paced(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_flood(std::uint64_t seed);

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares. Every workload prints all of
// them; a layer a workload does not exercise reads 0 there.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"op_ms_p90", "ms"},
    {"ops_per_s_p10", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"explorer.worlds_built", "count"},
    {"explorer.executions", "count"},
    {"explorer.useful_share", "ratio"},
    {"explorer.self_ms", "ms"},
    {"explorer.shrink_ms", "ms"},
    {"scheduler.picks", "count"},
    {"scheduler.pick_ns", "ns"},
    {"scheduler.choose_ns", "ns"},
    {"runtime.build_us", "us"},
    {"runtime.grants", "count"},
    {"runtime.run_ns_per_grant", "ns"},
    {"runtime.teardown_us", "us"},
    {"checking.checks", "count"},
    {"checking.check_us", "us"},
    {"claims.alg5_k3_ms", "ms"},
    {"claims.doorway_f1_ms", "ms"},
    {"claims.ablated_f1_ms", "ms"},
    {"claims.alg2_stateful_ms", "ms"},
    {"arena.chunks", "count"},
    {"fiber.stack_allocs", "count"},
    {"service.open_ns_p50", "ns"},
    {"service.open_ns_p99", "ns"},
    {"service.submit_ns_p50", "ns"},
    {"service.submit_ns_p99", "ns"},
    {"service.worker_busy_share", "ratio"},
    {"service.callback_us", "us"},
    {"checking.audit_us", "us"},
    {"service.ticks", "count"},
    {"service.tick_us", "us"},
    {"service.latency_ticks_p50", "ticks"},
    {"service.latency_ticks_p99", "ticks"},
    {"service.inbox_peak", "count"},
    {"service.peak_live", "count"},
    {"service.gc_sweeps", "count"},
    {"service.timed_out", "count"},
    {"service.dedup_hits", "count"},
    {"service.orphan_ops", "count"},
    {"service.skipped_ops", "count"},
    {"instance.blocks_carved", "count"},
    {"instance.block_reuses", "count"},
    {"service.memo_slots", "count"},
    {"service.stop_ms", "ms"},
    {"load.lag_us_p99", "us"},
    {"tracing.overhead_pct", "%"},
    {"trace.op_us", "us"},
    {"self.explorer_us", "us"},
    {"self.shrink_us", "us"},
    {"self.scheduler_us", "us"},
    {"self.build_us", "us"},
    {"self.run_us", "us"},
    {"self.check_us", "us"},
    {"self.teardown_us", "us"},
    {"self.open_us", "us"},
    {"self.submit_us", "us"},
    {"self.callback_us", "us"},
    {"self.audit_us", "us"},
    {"self.uncovered_us", "us"},
};

/// Fresh processes whose set-up setup_s takes the median of.
constexpr int kSetupProbes = 9;
/// A probe that takes longer than this is killed and counts as failed.
constexpr unsigned kProbeTimeoutS = 60;

struct WorkloadSpec {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

constexpr WorkloadSpec kWorkloads[] = {
    {"explore-mixed", make_explore_mixed},
    {"explore-claims", make_explore_claims},
    {"serve-paced", make_serve_paced},
    {"serve-flood", make_serve_flood},
};

/// The named workload; parse() has already rejected unknown names.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) {
      return w.make(seed);
    }
  }
  return nullptr;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\nworkloads:",
               why);
  for (const WorkloadSpec& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      config.trace = value == "1";
      if (value != "0" && value != "1") {
        usage("--trace takes 0 or 1");
      }
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      usage(("bad number for " + flag).c_str());
    }
  }
  if (!have_workload ||
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const WorkloadSpec& w) {
                     return config.workload == w.name;
                   }) == std::end(kWorkloads)) {
    usage("unknown or missing --workload");
  }
  if (!(config.seconds > 0.0) || config.seconds > 600.0) {
    usage("--seconds must be in (0, 600]");
  }
  return config;
}

/// Times the workload's set-up in a fresh child process: everything from
/// constructing the workload to the first timed operation, cold (first-
/// touch faults, arena and fiber-stack pools). Returns seconds, or a
/// negative value when the probe failed.
double probe_setup(const RunConfig& config) {
  int fds[2];
  if (pipe(fds) != 0) {
    return -1.0;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1.0;
  }
  if (pid == 0) {
    close(fds[0]);
    alarm(kProbeTimeoutS);
    double seconds = -1.0;
    try {
      const std::int64_t t0 = now_ns();
      std::unique_ptr<Workload> w = make_workload(config.workload, config.seed);
      w->setup();
      seconds = static_cast<double>(now_ns() - t0) / 1e9;
      const ssize_t n = write(fds[1], &seconds, sizeof seconds);
      close(fds[1]);
      w.reset();
      _exit(n == static_cast<ssize_t>(sizeof seconds) ? 0 : 1);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "setup probe failed: %s\n", e.what());
    }
    _exit(1);
  }
  close(fds[1]);
  double seconds = -1.0;
  const ssize_t n = read(fds[0], &seconds, sizeof seconds);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const bool ok = n == static_cast<ssize_t>(sizeof seconds) &&
                  WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return ok ? seconds : -1.0;
}

void print_metric(const Metric& m) {
  std::printf("  %-28s %14.6g %-6s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples > 0) {
    std::printf(" n=%lld", static_cast<long long>(m.samples));
  }
  std::printf("\n");
}

/// Prints the report and the final JSON line over the declared metric set.
bool emit(const RunConfig& config, Report& report) {
  std::map<std::string, const Metric*> measured;
  for (const auto* list : {&report.end_to_end, &report.per_layer}) {
    for (const Metric& m : *list) {
      measured[m.name] = &m;
    }
  }
  std::printf("%s seed=%llu seconds=%g trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  std::string json;
  bool ok = true;
  const auto add = [&](const MetricSpec& spec) {
    Metric m{spec.name, 0.0, spec.unit, 0};
    const auto it = measured.find(spec.name);
    if (it != measured.end()) {
      m = *it->second;
      measured.erase(it);
    }
    if (m.unit != spec.unit || !std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s: bad unit or value\n", spec.name);
      ok = false;
      m.value = 0.0;
    }
    print_metric(m);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += std::string(json.empty() ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (config.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      add(spec);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      add(spec);
    }
    std::printf("  also measured, not gated:\n");
    for (const Metric& m : report.also) {
      print_metric(m);
    }
  }
  for (const auto& [name, m] : measured) {
    std::fprintf(stderr, "metric %s is not declared\n", name.c_str());
    ok = false;
  }
  std::printf("  operations attempted %lld, failed %lld\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (const std::string& e : report.errors) {
    std::printf("  FAILED: %s\n", e.c_str());
  }
  if (report.attempted < 1) {
    std::printf("  FAILED: no operation completed\n");
  }
  const bool correct =
      report.correct && report.failed == 0 && report.attempted >= 1 && ok;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<std::int64_t>(report.attempted,
                                                            1)),
              static_cast<long long>(report.failed), json.c_str());
  return ok;
}

int run(const RunConfig& config, double launcher_kib) {
  Report report;
  if (!config.trace) {
    std::vector<double> setups;
    for (int i = 0; i < kSetupProbes; ++i) {
      const double s = probe_setup(config);
      if (s < 0) {
        report.fail("set-up probe " + std::to_string(i) + " failed");
      } else {
        setups.push_back(s);
      }
    }
    std::sort(setups.begin(), setups.end());
    report.e2e("setup_s", percentile_sorted(setups, 0.5), "s",
               static_cast<std::int64_t>(setups.size()));
  }

  std::unique_ptr<Workload> w = make_workload(config.workload, config.seed);
  try {
    w->setup();
    w->measure(config, report);
  } catch (const std::exception& e) {
    report.fail(std::string("run aborted: ") + e.what());
  }
  if (!config.trace) {
    report.e2e("peak_rss_mb", peak_rss_mb(launcher_kib), "MiB", 1);
  }
  if (config.trace && !config.trace_dir.empty()) {
    std::filesystem::create_directories(config.trace_dir);
    const std::string path = config.trace_dir + "/" + config.workload +
                             "-seed" + std::to_string(config.seed) +
                             ".spans.jsonl";
    std::ofstream out(path);
    w->write_trace(out);
    report.notes.push_back("spans written to " + path);
  }
  w.reset();
  return emit(config, report) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const double launcher_kib = perfbench::max_rss_kib();
  return perfbench::run(perfbench::parse(argc, argv), launcher_kib);
}
