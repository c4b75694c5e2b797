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
// throw `SimError`.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "subc/runtime/history.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

namespace jsonl_detail {

inline void append_escaped(std::string& out, std::string_view s) {
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
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

inline void append_values(std::string& out, std::span<const Value> vs) {
  out += '[';
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i) {
      out += ',';
    }
    out += std::to_string(vs[i]);
  }
  out += ']';
}

inline const char* kind_name(AccessKind kind) {
  switch (kind) {
    case AccessKind::kRead:
      return "read";
    case AccessKind::kWrite:
      return "write";
    case AccessKind::kRmw:
      return "rmw";
    case AccessKind::kChoose:
      return "choose";
    case AccessKind::kUnknown:
      break;
  }
  return "unknown";
}

}  // namespace jsonl_detail

/// Streams every observed event to `out` as JSON lines. Thread-safe: lines
/// from concurrent workers interleave whole, never mid-line — which is also
/// why each event is rendered into one string before the single write.
class JsonlTraceWriter final : public TraceObserver {
 public:
  explicit JsonlTraceWriter(std::ostream& out) : out_(&out) {}

  void on_run_begin(int num_processes) override {
    write("{\"ev\":\"run_begin\",\"procs\":" + std::to_string(num_processes) +
          "}");
  }

  void on_step(const StepEvent& event) override {
    std::string line = "{\"ev\":\"step\",\"pid\":" + std::to_string(event.pid) +
                       ",\"step\":" + std::to_string(event.step) +
                       ",\"obj\":" + std::to_string(event.access.object) +
                       ",\"kind\":\"";
    line += jsonl_detail::kind_name(event.access.kind);
    line += "\"}";
    write(line);
  }

  void on_choose(int pid, std::uint32_t arity, std::uint32_t chosen) override {
    write("{\"ev\":\"choose\",\"pid\":" + std::to_string(pid) +
          ",\"arity\":" + std::to_string(arity) +
          ",\"chosen\":" + std::to_string(chosen) + "}");
  }

  void on_crash(int pid, std::int64_t step) override {
    write("{\"ev\":\"crash\",\"pid\":" + std::to_string(pid) +
          ",\"step\":" + std::to_string(step) + "}");
  }

  void on_recover(int pid, std::int64_t step) override {
    write("{\"ev\":\"recover\",\"pid\":" + std::to_string(pid) +
          ",\"step\":" + std::to_string(step) + "}");
  }

  void on_invoke(int pid, std::size_t handle, std::int64_t time,
                 std::span<const Value> op) override {
    std::string line = "{\"ev\":\"invoke\",\"pid\":" + std::to_string(pid) +
                       ",\"handle\":" + std::to_string(handle) +
                       ",\"t\":" + std::to_string(time) + ",\"op\":";
    jsonl_detail::append_values(line, op);
    line += '}';
    write(line);
  }

  void on_respond(int pid, std::size_t handle, std::int64_t time,
                  std::span<const Value> response) override {
    std::string line = "{\"ev\":\"respond\",\"pid\":" + std::to_string(pid) +
                       ",\"handle\":" + std::to_string(handle) +
                       ",\"t\":" + std::to_string(time) + ",\"resp\":";
    jsonl_detail::append_values(line, response);
    line += '}';
    write(line);
  }

  void on_violation(std::string_view message) override {
    std::string line = "{\"ev\":\"violation\",\"msg\":\"";
    jsonl_detail::append_escaped(line, message);
    line += "\"}";
    write(line);
  }

  void on_stuck(std::string_view message) override {
    std::string line = "{\"ev\":\"stuck\",\"msg\":\"";
    jsonl_detail::append_escaped(line, message);
    line += "\"}";
    write(line);
  }

  void on_run_end(std::int64_t total_steps, bool quiescent) override {
    write("{\"ev\":\"run_end\",\"steps\":" + std::to_string(total_steps) +
          ",\"quiescent\":" + (quiescent ? "true" : "false") + "}");
  }

 private:
  void write(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mu_);
    *out_ << line << '\n';
  }

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

namespace jsonl_detail {

/// Extracts the number following `"key":` in `line`; `found=false` (and 0)
/// when the key is absent.
inline std::int64_t int_field(std::string_view line, std::string_view key,
                              bool& found) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) {
    found = false;
    return 0;
  }
  found = true;
  return std::strtoll(line.data() + at + pat.size(), nullptr, 10);
}

inline std::int64_t int_field_or_throw(std::string_view line,
                                       std::string_view key) {
  bool found = false;
  const std::int64_t v = int_field(line, key, found);
  if (!found) {
    throw SimError("parse_trace_jsonl: missing field \"" + std::string(key) +
                   "\" in: " + std::string(line));
  }
  return v;
}

/// Extracts the string following `"key":"` up to the closing quote,
/// unescaping the writer's escapes.
inline std::string string_field(std::string_view line, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":\"";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) {
    throw SimError("parse_trace_jsonl: missing field \"" + std::string(key) +
                   "\" in: " + std::string(line));
  }
  std::string out;
  for (std::size_t i = at + pat.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') {
      return out;
    }
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= line.size()) {
      break;
    }
    switch (line[i]) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'r':
        out += '\r';
        break;
      case 'u':
        if (i + 4 < line.size()) {
          out += static_cast<char>(
              std::strtol(std::string(line.substr(i + 1, 4)).c_str(), nullptr,
                          16));
          i += 4;
        }
        break;
      default:
        out += line[i];  // \" and \\ (and anything else, verbatim)
    }
  }
  throw SimError("parse_trace_jsonl: unterminated string in: " +
                 std::string(line));
}

/// Extracts the `[v1,v2,...]` array following `"key":`; more values than a
/// history tuple holds (`ValueTuple::kCapacity`) throw `SimError`.
inline ValueTuple tuple_field(std::string_view line, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":[";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) {
    throw SimError("parse_trace_jsonl: missing field \"" + std::string(key) +
                   "\" in: " + std::string(line));
  }
  Value values[ValueTuple::kCapacity] = {};
  std::size_t n = 0;
  const char* p = line.data() + at + pat.size();
  const char* end = line.data() + line.size();
  while (p < end && *p != ']') {
    if (n == ValueTuple::kCapacity) {
      throw SimError("parse_trace_jsonl: more than " +
                     std::to_string(ValueTuple::kCapacity) + " values in \"" +
                     std::string(key) + "\" of: " + std::string(line));
    }
    char* after = nullptr;
    values[n++] = std::strtoll(p, &after, 10);
    if (after == p) {
      throw SimError("parse_trace_jsonl: bad value array in: " +
                     std::string(line));
    }
    p = after;
    if (p < end && *p == ',') {
      ++p;
    }
  }
  return ValueTuple(std::span<const Value>(values, n));
}

/// The integer field `key` of an invoke or respond line, which must lie in
/// [0, `limit`). A handle is an index into its source History, so it stays
/// below the number of invoke events read so far; a time `"t"` is its
/// History's clock, which ticks once per invoke and respond, so it stays
/// below the number of both read so far (this line's included in each).
inline std::int64_t bounded_field(std::string_view line, std::string_view key,
                                  std::int64_t limit) {
  const std::int64_t v = int_field_or_throw(line, key);
  if (v < 0 || v >= limit) {
    throw SimError("parse_trace_jsonl: \"" + std::string(key) + "\" " +
                   std::to_string(v) + " outside [0, " +
                   std::to_string(limit) + ") in: " + std::string(line));
  }
  return v;
}

}  // namespace jsonl_detail

/// Parses a JSONL trace produced by `JsonlTraceWriter`. History entries are
/// rebuilt by matching respond events to invoke events via their handles
/// (handles are per-source-History; traces interleaving several histories
/// merge into one, which is what the renderer wants anyway). The trace is
/// outside input, so indices and sizes are checked before use: a handle or
/// time `"t"` outside the range its history could have produced (see
/// `bounded_field`; the writer must have been attached before its
/// history's first invoke), a response timed before its invocation, and an
/// op or response of more than `ValueTuple::kCapacity` values throw
/// `SimError`.
inline ParsedTrace parse_trace_jsonl(const std::string& text) {
  namespace jd = jsonl_detail;
  ParsedTrace out;
  // source handle -> index in out.history (parallel to HistoryRecorder).
  std::vector<std::size_t> handle_map;
  std::int64_t invokes = 0;
  std::int64_t events = 0;  // invokes and responds
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const std::string ev = jd::string_field(line, "ev");
    if (ev == "run_begin") {
      ++out.runs;
    } else if (ev == "step") {
      ++out.steps;
    } else if (ev == "choose") {
      ++out.chooses;
    } else if (ev == "crash") {
      ++out.crashes;
      out.crash_events.push_back(
          CrashEvent{static_cast<int>(jd::int_field_or_throw(line, "pid")),
                     jd::int_field_or_throw(line, "step")});
    } else if (ev == "recover") {
      ++out.recoveries;
      out.recover_events.push_back(
          RecoverEvent{static_cast<int>(jd::int_field_or_throw(line, "pid")),
                       jd::int_field_or_throw(line, "step")});
    } else if (ev == "invoke") {
      HistoryEntry e;
      e.pid = static_cast<int>(jd::int_field_or_throw(line, "pid"));
      e.invoked_at = jd::bounded_field(line, "t", ++events);
      e.op = jd::tuple_field(line, "op");
      const auto handle = static_cast<std::size_t>(
          jd::bounded_field(line, "handle", ++invokes));
      if (handle_map.size() <= handle) {
        handle_map.resize(handle + 1, static_cast<std::size_t>(-1));
      }
      handle_map[handle] = out.history.restore(std::move(e));
    } else if (ev == "respond") {
      const auto handle =
          static_cast<std::size_t>(jd::bounded_field(line, "handle", invokes));
      if (handle >= handle_map.size() ||
          handle_map[handle] == static_cast<std::size_t>(-1)) {
        throw SimError("parse_trace_jsonl: respond without invoke: " + line);
      }
      // Completing a restored entry: rebuild it in place with the recorded
      // response and timestamp.
      HistoryEntry e = out.history.entries()[handle_map[handle]];
      e.response = jd::tuple_field(line, "resp");
      e.responded_at = jd::bounded_field(line, "t", ++events);
      if (e.responded_at <= e.invoked_at) {
        throw SimError("parse_trace_jsonl: response before its invocation: " +
                       line);
      }
      out.history.amend(handle_map[handle], std::move(e));
    } else if (ev == "violation") {
      out.violations.push_back(jd::string_field(line, "msg"));
    } else if (ev == "stuck") {
      out.stuck.push_back(jd::string_field(line, "msg"));
    } else if (ev == "run_end") {
      out.total_steps = jd::int_field_or_throw(line, "steps");
      out.quiescent = line.find("\"quiescent\":true") != std::string::npos;
    } else {
      throw SimError("parse_trace_jsonl: unknown event \"" + ev +
                     "\" in: " + line);
    }
  }
  return out;
}

}  // namespace subc
