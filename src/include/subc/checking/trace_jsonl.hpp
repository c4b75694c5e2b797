// JSONL trace export / import.
//
// `JsonlTraceWriter` is a TraceObserver (runtime/observer.hpp) that streams
// every kernel and history event as one JSON object per line — a portable,
// grep-able record of a run that survives the process. `parse_trace_jsonl`
// reads the format back and reconstructs the operation history with its
// original timestamps, so an exported run replays straight into the
// space-time renderer:
//
//   std::ostringstream sink;
//   JsonlTraceWriter writer(sink);
//   run_one(body, policy, &writer);
//   const ParsedTrace t = parse_trace_jsonl(sink.str());
//   std::cout << render_history(t.history);
//
// Event lines (fields in fixed order, one event per line):
//   {"ev":"run_begin","procs":3}
//   {"ev":"step","pid":1,"step":4,"obj":2,"kind":"write"}
//   {"ev":"choose","pid":0,"arity":3,"chosen":1}
//   {"ev":"crash","pid":2,"step":7}
//   {"ev":"recover","pid":2,"step":11}
//   {"ev":"invoke","pid":0,"handle":0,"t":3,"op":[0,100]}
//   {"ev":"respond","pid":0,"handle":0,"t":9,"resp":[102]}
//   {"ev":"violation","msg":"..."}
//   {"ev":"stuck","msg":"..."}
//   {"ev":"run_end","steps":17,"quiescent":true}
// ⊥ values travel as the INT64_MIN integer. The parser is written for this
// writer's output: fields it does not know are ignored, malformed lines
// and numbers that are not strict decimals in range throw `SimError`.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "subc/runtime/history.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// Streams every observed event to `out` as JSON lines. Thread-safe: lines
/// from concurrent workers interleave whole, never mid-line — which is also
/// why each event is rendered into one string before the single write.
class JsonlTraceWriter final : public TraceObserver {
 public:
  explicit JsonlTraceWriter(std::ostream& out) : out_(&out) {}

  void on_run_begin(int num_processes) override;
  void on_step(const StepEvent& event) override;
  void on_choose(int pid, std::uint32_t arity, std::uint32_t chosen) override;
  void on_crash(int pid, std::int64_t step) override;
  void on_recover(int pid, std::int64_t step) override;
  void on_invoke(int pid, std::size_t handle, std::int64_t time,
                 std::span<const Value> op) override;
  void on_respond(int pid, std::size_t handle, std::int64_t time,
                  std::span<const Value> response) override;
  void on_violation(std::string_view message) override;
  void on_stuck(std::string_view message) override;
  void on_run_end(std::int64_t total_steps, bool quiescent) override;

 private:
  void write(const std::string& line);

  std::mutex mu_;
  std::ostream* out_;
};

/// One crash event recovered from a trace: process `pid` crashed after
/// `step` scheduler grants had been issued in its run.
struct CrashEvent {
  int pid = -1;
  std::int64_t step = 0;
};

/// One recovery event recovered from a trace: crashed process `pid`
/// restarted after `step` scheduler grants had been issued in its run.
struct RecoverEvent {
  int pid = -1;
  std::int64_t step = 0;
};

/// Everything `parse_trace_jsonl` recovers from an exported trace.
struct ParsedTrace {
  /// The operation history, rebuilt with original pids, arguments,
  /// responses and timestamps — feed it to `render_history` (trace_viz.hpp)
  /// or re-check it for linearizability.
  History history;
  std::vector<std::string> violations;
  /// Crash events in emission order, with pid and step preserved — feed
  /// them to `render_history` via `TraceVizOptions::crashes` so crashed
  /// processes render instead of silently dropping out.
  std::vector<CrashEvent> crash_events;
  /// Recovery events in emission order, with pid and step preserved.
  std::vector<RecoverEvent> recover_events;
  /// Stuck-execution diagnostics (step-quota watchdog) in emission order.
  std::vector<std::string> stuck;
  std::int64_t runs = 0;         ///< run_begin events
  std::int64_t steps = 0;        ///< step events
  std::int64_t chooses = 0;      ///< choose events
  std::int64_t crashes = 0;      ///< crash events
  std::int64_t recoveries = 0;   ///< recover events
  std::int64_t total_steps = 0;  ///< from the last run_end
  bool quiescent = false;        ///< from the last run_end
};

/// Parses a JSONL trace produced by `JsonlTraceWriter`. History entries are
/// rebuilt by matching respond events to invoke events via their handles
/// (handles are per-source-History; traces interleaving several histories
/// merge into one, which is what the renderer wants anyway). The trace is
/// outside input, so indices and sizes are checked before use. A pid, step
/// or step count must be an unsigned decimal in range, and op and response
/// values signed ones. A handle indexes its source History, so it stays
/// below the number of invoke events read so far; a time `"t"` is its
/// History's clock, which ticks once per invoke and respond, so it stays
/// below the number of both read so far (this line's included in each;
/// the writer must have been attached before its history's first invoke).
/// A value outside these ranges, a response timed before its invocation,
/// and an op or response of more than `ValueTuple::kCapacity` values throw
/// `SimError`.
ParsedTrace parse_trace_jsonl(const std::string& text);

}  // namespace subc
