#include "subc/checking/checkpoint.hpp"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "json_line.hpp"
#include "subc/runtime/value.hpp"

namespace subc {
namespace {

/// The state line's counts in file order: the key, the Tally member it
/// holds, and whether older snapshots omit it (it then reads back as 0).
struct CountField {
  const char* key;
  std::int64_t Explorer::Tally::*member;
  bool optional;
};

constexpr CountField kCountFields[] = {
    {"executions", &Explorer::Tally::executions, false},
    {"pruned", &Explorer::Tally::pruned_subtrees, false},
    {"reduced", &Explorer::Tally::reduced_subtrees, false},
    {"crashed", &Explorer::Tally::crashed_executions, false},
    {"recovered", &Explorer::Tally::recovered_executions, true},
    {"stuck", &Explorer::Tally::stuck_executions, false},
    {"stateful_cuts", &Explorer::Tally::stateful_cuts, true},
};

}  // namespace

std::string encode_decisions(std::span<const ReplayDriver::Decision> trace) {
  std::string out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) {
      out += ' ';
    }
    out += std::to_string(trace[i].chosen);
    out += '/';
    out += std::to_string(trace[i].arity);
    out += '/';
    out += std::to_string(trace[i].enabled);
    out += '/';
    out += std::to_string(trace[i].sleep);
    out += '/';
    out += trace[i].crash ? '1' : '0';
    out += '/';
    out += trace[i].recover ? '1' : '0';
    out += '/';
    out += std::to_string(trace[i].explored);
    out += '/';
    if (trace[i].listed == 0) {
      out += '-';
    }
    for (std::uint8_t k = 0; k < trace[i].listed; ++k) {
      out += "0123456789abcdef"[trace[i].list[k]];
    }
  }
  return out;
}

std::vector<ReplayDriver::Decision> decode_decisions(const std::string& text) {
  std::vector<ReplayDriver::Decision> out;
  const char* p = text.c_str();
  const auto number = [&p, &text](std::uint64_t max) {
    return json_line::read_unsigned(p, max, "decode_decisions", text);
  };
  const auto slash = [&p, &text] {
    if (*p != '/') {
      throw SimError("decode_decisions: malformed decision token in: " + text);
    }
    ++p;
  };
  while (*p != '\0') {
    while (*p == ' ') {
      ++p;
    }
    if (*p == '\0') {
      break;
    }
    ReplayDriver::Decision d;
    d.chosen = static_cast<std::uint32_t>(number(UINT32_MAX));
    slash();
    d.arity = static_cast<std::uint32_t>(number(UINT32_MAX));
    slash();
    d.enabled = number(UINT64_MAX);
    slash();
    d.sleep = number(UINT64_MAX);
    slash();
    if (*p != '0' && *p != '1') {
      throw SimError("decode_decisions: bad crash flag in: " + text);
    }
    d.crash = *p == '1';
    ++p;
    // Recovery flag: optional sixth field, absent in five-field tokens
    // from pre-recovery snapshots (which read back as recover = false).
    if (*p == '/') {
      ++p;
      if (*p != '0' && *p != '1') {
        throw SimError("decode_decisions: bad recover flag in: " + text);
      }
      d.recover = *p == '1';
      ++p;
    }
    if (*p == '/') {
      // Source-set fields: the explored set and the backtrack list.
      ++p;
      d.explored = number(UINT64_MAX);
      slash();
      if (*p == '-') {
        ++p;
      }
      while (std::isxdigit(static_cast<unsigned char>(*p)) != 0) {
        if (d.listed == ReplayDriver::kMaxListed) {
          throw SimError("decode_decisions: backtrack list too long in: " +
                         text);
        }
        const char c = *p++;
        d.list[d.listed++] = static_cast<std::uint8_t>(
            c <= '9' ? c - '0' : std::tolower(c) - 'a' + 10);
      }
    }
    // A backtrack list holds distinct options of a decision with at most
    // kMaxListed of them, the chosen one among them.
    bool listed_ok = d.listed == 0;
    std::uint32_t seen = 0;
    for (std::uint8_t k = 0; k < d.listed; ++k) {
      listed_ok = listed_ok || d.list[k] == d.chosen;
      if (d.list[k] >= d.arity || (seen >> d.list[k] & 1) != 0) {
        listed_ok = false;
        break;
      }
      seen |= std::uint32_t{1} << d.list[k];
    }
    if (d.listed > 0 && d.arity > ReplayDriver::kMaxListed) {
      listed_ok = false;
    }
    if (d.arity < 1 || d.chosen >= d.arity || !listed_ok) {
      throw SimError("decode_decisions: inconsistent decision in: " + text);
    }
    out.push_back(d);
  }
  return out;
}

void save_snapshot(const std::string& path, const ExplorerSnapshot& snap) {
  std::string text = "{\"kind\":\"header\",\"version\":1,\"max_executions\":" +
                     std::to_string(snap.max_executions) +
                     ",\"max_crashes\":" + std::to_string(snap.max_crashes) +
                     ",\"max_recoveries\":" +
                     std::to_string(snap.max_recoveries) +
                     ",\"step_quota\":" + std::to_string(snap.step_quota) +
                     ",\"reduction\":\"";
  text += snap.reduction ? "sleep" : "none";
  text += "\",\"stateful\":";
  text += snap.stateful ? "true" : "false";
  text += "}\n";
  text += "{\"kind\":\"state\"";
  for (const CountField& f : kCountFields) {
    text += ",\"";
    text += f.key;
    text += "\":" + std::to_string(snap.result.*f.member);
  }
  text += ",\"done\":";
  text += snap.done ? "true" : "false";
  text += ",\"complete\":";
  text += snap.result.complete ? "true" : "false";
  if (snap.result.violation) {
    text += ",\"violation\":\"";
    json_line::append_escaped(text, *snap.result.violation);
    text += "\",\"violating_trace\":\"";
    text += encode_decisions(snap.result.violating_trace);
    text += '"';
  }
  if (snap.result.first_stuck) {
    text += ",\"stuck_message\":\"";
    json_line::append_escaped(text, snap.result.first_stuck->message);
    text += "\",\"stuck_trace\":\"";
    text += encode_decisions(snap.result.first_stuck->trace);
    text += '"';
  }
  text += ",\"prefix\":\"";
  text += encode_decisions(snap.prefix);
  text += "\"}\n";

  const std::string tmp = path + ".tmp";
  constexpr int kAttempts = 3;
  constexpr int kBackoffMs[kAttempts] = {1, 4, 16};
  const char* stage = "open";
  int saved_errno = 0;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    errno = 0;
    stage = "open";
    bool ok = false;
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (out) {
        stage = "write";
        out << text;
        out.flush();
        ok = static_cast<bool>(out);
      }
      saved_errno = errno;
    }
    if (ok) {
      stage = "rename";
      errno = 0;
      if (std::rename(tmp.c_str(), path.c_str()) == 0) {
        return;
      }
      saved_errno = errno;
    }
    if (attempt < kAttempts) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kBackoffMs[attempt - 1]));
    }
  }
  throw SimError("save_snapshot: " + path + " failed after " +
                 std::to_string(kAttempts) + " attempts (stage: " + stage +
                 ", errno: " + std::to_string(saved_errno) + " — " +
                 std::strerror(saved_errno) + ")");
}

ExplorerSnapshot load_snapshot(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw SimError("load_snapshot: cannot open " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ExplorerSnapshot snap;
  bool saw_header = false;
  bool saw_state = false;
  std::string text;
  while (std::getline(buffer, text)) {
    if (text.empty()) {
      continue;
    }
    const json_line::Line line(text, "load_snapshot");
    const std::string kind = line.text("kind");
    if (kind == "header") {
      const std::uint64_t version = line.number("version", INT64_MAX);
      if (version != 1) {
        throw SimError("load_snapshot: unsupported snapshot version " +
                       std::to_string(version));
      }
      snap.max_executions =
          static_cast<std::int64_t>(line.number("max_executions", INT64_MAX));
      snap.max_crashes = static_cast<int>(line.number("max_crashes", INT_MAX));
      // Absent in pre-recovery snapshots: reads back as 0.
      snap.max_recoveries = static_cast<int>(
          line.number("max_recoveries", INT_MAX, /*optional=*/true));
      snap.step_quota =
          static_cast<std::int64_t>(line.number("step_quota", INT64_MAX));
      snap.reduction = line.text("reduction") == "sleep";
      // Absent in pre-stateful snapshots: reads back as false.
      snap.stateful = line.flag("stateful");
      saw_header = true;
    } else if (kind == "state") {
      for (const CountField& f : kCountFields) {
        snap.result.*f.member = static_cast<std::int64_t>(
            line.number(f.key, INT64_MAX, f.optional));
      }
      snap.done = line.flag("done");
      snap.result.complete = line.flag("complete");
      if (line.has("violation")) {
        snap.result.violation = line.text("violation");
        snap.result.violating_trace =
            decode_decisions(line.text("violating_trace"));
      }
      if (line.has("stuck_message")) {
        snap.result.first_stuck =
            StuckExecution{line.text("stuck_message"),
                           decode_decisions(line.text("stuck_trace"))};
      }
      snap.prefix = decode_decisions(line.text("prefix"));
      saw_state = true;
    } else {
      throw SimError("load_snapshot: unknown line kind \"" + kind + "\" in " +
                     path);
    }
  }
  if (!saw_header || !saw_state) {
    throw SimError("load_snapshot: truncated snapshot in " + path);
  }
  // A violation ends the search, so only a finished snapshot records one;
  // resuming an unfinished one would stop at a violation it never found.
  if (!snap.done && snap.result.violation) {
    throw SimError("load_snapshot: unfinished snapshot records a violation "
                   "in " + path);
  }
  return snap;
}

}  // namespace subc
