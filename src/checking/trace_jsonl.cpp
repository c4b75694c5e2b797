#include "subc/checking/trace_jsonl.hpp"

#include <climits>
#include <sstream>

#include "json_line.hpp"

namespace subc {
namespace {

void append_values(std::string& out, std::span<const Value> vs) {
  out += '[';
  for (std::size_t i = 0; i < vs.size(); ++i) {
    if (i) {
      out += ',';
    }
    out += std::to_string(vs[i]);
  }
  out += ']';
}

const char* kind_name(AccessKind kind) {
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

/// The integer field `key` of an invoke or respond line, which must lie in
/// [0, `limit`): see `parse_trace_jsonl` for why a handle and a time do.
std::int64_t bounded_field(const json_line::Line& line, std::string_view key,
                           std::int64_t limit) {
  const auto v = static_cast<std::int64_t>(line.number(key, INT64_MAX));
  if (v >= limit) {
    line.fail(std::string("\"").append(key) + "\" " + std::to_string(v) +
              " outside [0, " + std::to_string(limit) + ")");
  }
  return v;
}

}  // namespace

void JsonlTraceWriter::on_run_begin(int num_processes) {
  write("{\"ev\":\"run_begin\",\"procs\":" + std::to_string(num_processes) +
        "}");
}

void JsonlTraceWriter::on_step(const StepEvent& event) {
  std::string line = "{\"ev\":\"step\",\"pid\":" + std::to_string(event.pid) +
                     ",\"step\":" + std::to_string(event.step) +
                     ",\"obj\":" + std::to_string(event.access.object) +
                     ",\"kind\":\"";
  line += kind_name(event.access.kind);
  line += "\"}";
  write(line);
}

void JsonlTraceWriter::on_choose(int pid, std::uint32_t arity,
                                 std::uint32_t chosen) {
  write("{\"ev\":\"choose\",\"pid\":" + std::to_string(pid) +
        ",\"arity\":" + std::to_string(arity) +
        ",\"chosen\":" + std::to_string(chosen) + "}");
}

void JsonlTraceWriter::on_crash(int pid, std::int64_t step) {
  write("{\"ev\":\"crash\",\"pid\":" + std::to_string(pid) +
        ",\"step\":" + std::to_string(step) + "}");
}

void JsonlTraceWriter::on_recover(int pid, std::int64_t step) {
  write("{\"ev\":\"recover\",\"pid\":" + std::to_string(pid) +
        ",\"step\":" + std::to_string(step) + "}");
}

void JsonlTraceWriter::on_invoke(int pid, std::size_t handle,
                                 std::int64_t time,
                                 std::span<const Value> op) {
  std::string line = "{\"ev\":\"invoke\",\"pid\":" + std::to_string(pid) +
                     ",\"handle\":" + std::to_string(handle) +
                     ",\"t\":" + std::to_string(time) + ",\"op\":";
  append_values(line, op);
  line += '}';
  write(line);
}

void JsonlTraceWriter::on_respond(int pid, std::size_t handle,
                                  std::int64_t time,
                                  std::span<const Value> response) {
  std::string line = "{\"ev\":\"respond\",\"pid\":" + std::to_string(pid) +
                     ",\"handle\":" + std::to_string(handle) +
                     ",\"t\":" + std::to_string(time) + ",\"resp\":";
  append_values(line, response);
  line += '}';
  write(line);
}

void JsonlTraceWriter::on_violation(std::string_view message) {
  std::string line = "{\"ev\":\"violation\",\"msg\":\"";
  json_line::append_escaped(line, message);
  line += "\"}";
  write(line);
}

void JsonlTraceWriter::on_stuck(std::string_view message) {
  std::string line = "{\"ev\":\"stuck\",\"msg\":\"";
  json_line::append_escaped(line, message);
  line += "\"}";
  write(line);
}

void JsonlTraceWriter::on_run_end(std::int64_t total_steps, bool quiescent) {
  write("{\"ev\":\"run_end\",\"steps\":" + std::to_string(total_steps) +
        ",\"quiescent\":" + (quiescent ? "true" : "false") + "}");
}

void JsonlTraceWriter::write(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  *out_ << line << '\n';
}

ParsedTrace parse_trace_jsonl(const std::string& text) {
  ParsedTrace out;
  // source handle -> index in out.history (parallel to HistoryRecorder).
  std::vector<std::size_t> handle_map;
  std::int64_t invokes = 0;
  std::int64_t events = 0;  // invokes and responds
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    if (raw.empty()) {
      continue;
    }
    const json_line::Line line(raw, "parse_trace_jsonl");
    const auto pid = [&line] {
      return static_cast<int>(line.number("pid", INT_MAX));
    };
    const auto step = [&line] {
      return static_cast<std::int64_t>(line.number("step", INT64_MAX));
    };
    const std::string ev = line.text("ev");
    if (ev == "run_begin") {
      ++out.runs;
    } else if (ev == "step") {
      ++out.steps;
    } else if (ev == "choose") {
      ++out.chooses;
    } else if (ev == "crash") {
      ++out.crashes;
      out.crash_events.push_back(CrashEvent{pid(), step()});
    } else if (ev == "recover") {
      ++out.recoveries;
      out.recover_events.push_back(RecoverEvent{pid(), step()});
    } else if (ev == "invoke") {
      HistoryEntry e;
      e.pid = pid();
      e.invoked_at = bounded_field(line, "t", ++events);
      e.op = line.values("op");
      const auto handle =
          static_cast<std::size_t>(bounded_field(line, "handle", ++invokes));
      if (handle_map.size() <= handle) {
        handle_map.resize(handle + 1, static_cast<std::size_t>(-1));
      }
      handle_map[handle] = out.history.restore(std::move(e));
    } else if (ev == "respond") {
      const auto handle =
          static_cast<std::size_t>(bounded_field(line, "handle", invokes));
      if (handle >= handle_map.size() ||
          handle_map[handle] == static_cast<std::size_t>(-1)) {
        throw SimError("parse_trace_jsonl: respond without invoke: " + raw);
      }
      // Completing a restored entry: rebuild it in place with the recorded
      // response and timestamp.
      HistoryEntry e = out.history.entries()[handle_map[handle]];
      e.response = line.values("resp");
      e.responded_at = bounded_field(line, "t", ++events);
      if (e.responded_at <= e.invoked_at) {
        throw SimError("parse_trace_jsonl: response before its invocation: " +
                       raw);
      }
      out.history.amend(handle_map[handle], std::move(e));
    } else if (ev == "violation") {
      out.violations.push_back(line.text("msg"));
    } else if (ev == "stuck") {
      out.stuck.push_back(line.text("msg"));
    } else if (ev == "run_end") {
      out.total_steps =
          static_cast<std::int64_t>(line.number("steps", INT64_MAX));
      out.quiescent = line.flag("quiescent");
    } else {
      throw SimError("parse_trace_jsonl: unknown event \"" + ev +
                     "\" in: " + raw);
    }
  }
  return out;
}

}  // namespace subc
