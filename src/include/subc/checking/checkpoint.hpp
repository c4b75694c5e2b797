// Explorer campaign snapshots: durable checkpoint/resume for long searches.
//
// A multi-hour exhaustive campaign that dies at 90% must be resumable. The
// explorer (runtime/explorer.hpp) periodically serializes its progress — the
// canonical-prefix watermark (tallies over every canonical event completed so
// far), the decision prefix the search continues from, and the first stuck
// diagnostic — into a two-line JSONL snapshot:
//
//   {"kind":"header","version":1,"max_executions":N,"max_crashes":F,
//    "step_quota":Q,"reduction":"sleep","stateful":false}
//   {"kind":"state","executions":N,"pruned":N,"reduced":N,"crashed":N,
//    "stuck":N,"stateful_cuts":N,"done":false,"complete":false,
//    "prefix":"0/3/7/0/0/0/0/0 1/4/0/0/1/0/0/-"}
//
// `Explorer::resume(body, path, opts)` reloads a snapshot and continues the
// search from the watermark, producing the bit-identical final `Result` an
// uninterrupted run reports (see docs/explorer.md). Snapshots are written
// atomically (temp file + rename, with a bounded retry on transient
// filesystem failure), so a crash mid-write leaves the previous snapshot
// intact. Decision strings are encoded one token per decision,
// "chosen/arity/enabled/sleep/crashflag/recoverflag/explored/list",
// preserving the reduction metadata, crash/recovery flags and source-set
// backtrack lists replay and backtracking depend on. `list` holds one hex
// digit per listed option in insertion order, or "-" for a full-branching
// decision. Five-field tokens from pre-recovery snapshots read back with
// recoverflag = 0; five- and six-field tokens from before source sets read
// back as full-branching decisions.
#pragma once

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "subc/checking/trace_jsonl.hpp"
#include "subc/runtime/scheduler.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// A serializable picture of an exploration in flight (or finished). The
/// option echo pins the search parameters: resuming under different options
/// would silently change what "the rest of the tree" means, so
/// `Explorer::resume` rejects mismatches.
struct ExplorerSnapshot {
  // --- option echo ---
  std::int64_t max_executions = 0;
  int max_crashes = 0;
  /// Recovery branching bound (Explorer::Options::max_recoveries). Absent
  /// in pre-recovery snapshots, which read back as 0.
  int max_recoveries = 0;
  std::int64_t step_quota = 0;
  bool reduction = false;  ///< sleep-set reduction on?
  /// Stateful exploration on? Echoed (and matched on resume) because the
  /// visited set itself is *not* serialized: a resumed stateful search
  /// restarts with a cold set (the documented cold-restart rule, see
  /// docs/explorer.md) — still sound and verdict-identical, but its
  /// execution tallies may exceed the uninterrupted run's. Snapshots from
  /// before this field read back as false.
  bool stateful = false;

  // --- tallies over the completed canonical prefix of the search ---
  std::int64_t executions = 0;
  std::int64_t pruned = 0;
  std::int64_t reduced = 0;
  std::int64_t crashed = 0;
  /// Executions with >= 1 recovery over the completed prefix (0 for
  /// pre-recovery snapshots, which omit the field).
  std::int64_t recovered = 0;
  std::int64_t stuck = 0;
  /// Stateful cuts over the completed prefix (0 for pre-stateful
  /// snapshots, which omit the field).
  std::int64_t stateful_cuts = 0;

  /// True when the search finished (tree exhausted, budget spent, or a
  /// violation found); `prefix` is empty and meaningless then.
  bool done = false;
  bool complete = false;
  std::optional<std::string> violation;
  std::vector<ReplayDriver::Decision> violating_trace;
  std::optional<std::string> stuck_message;
  std::vector<ReplayDriver::Decision> stuck_trace;
  /// The decision prefix the search continues from (the next prefix the
  /// serial restart-DFS would run). Empty when `done`.
  std::vector<ReplayDriver::Decision> prefix;
};

/// Renders a decision string as snapshot tokens
/// ("chosen/arity/enabled/sleep/crashflag/recoverflag/explored/list",
/// space-separated).
inline std::string encode_decisions(
    std::span<const ReplayDriver::Decision> trace) {
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

/// Parses `encode_decisions` output. Throws `SimError` on malformed tokens.
inline std::vector<ReplayDriver::Decision> decode_decisions(
    const std::string& text) {
  std::vector<ReplayDriver::Decision> out;
  const char* p = text.c_str();
  const auto expect_slash = [&text](const char* at) {
    if (*at != '/') {
      throw SimError("decode_decisions: malformed decision token in: " + text);
    }
  };
  while (*p != '\0') {
    while (*p == ' ') {
      ++p;
    }
    if (*p == '\0') {
      break;
    }
    ReplayDriver::Decision d;
    char* after = nullptr;
    d.chosen = static_cast<std::uint32_t>(std::strtoul(p, &after, 10));
    expect_slash(after);
    p = after + 1;
    d.arity = static_cast<std::uint32_t>(std::strtoul(p, &after, 10));
    expect_slash(after);
    p = after + 1;
    d.enabled = std::strtoull(p, &after, 10);
    expect_slash(after);
    p = after + 1;
    d.sleep = std::strtoull(p, &after, 10);
    expect_slash(after);
    p = after + 1;
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
      d.explored = std::strtoull(p + 1, &after, 10);
      expect_slash(after);
      p = after + 1;
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

namespace checkpoint_detail {

inline bool bool_field(std::string_view line, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":true";
  return line.find(pat) != std::string_view::npos;
}

inline bool has_field(std::string_view line, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  return line.find(pat) != std::string_view::npos;
}

}  // namespace checkpoint_detail

/// Serializes `snap` to `path` atomically: the snapshot is staged as
/// `<path>.tmp` and renamed over `path`, so readers (and a resume after a
/// crash mid-write) always see a complete snapshot. Transient filesystem
/// failures (open, write, or rename) are retried with bounded backoff —
/// three attempts, sleeping 1/4/16 ms between them — before a `SimError`
/// carrying a structured diagnostic (attempts made, failing stage, errno)
/// is thrown. The explorer catches failures of *periodic* snapshots so an
/// exploration campaign survives a briefly unwritable checkpoint directory;
/// the final snapshot's failure still propagates.
inline void save_snapshot(const std::string& path,
                          const ExplorerSnapshot& snap) {
  namespace jd = jsonl_detail;
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
  text += "{\"kind\":\"state\",\"executions\":" +
          std::to_string(snap.executions) +
          ",\"pruned\":" + std::to_string(snap.pruned) +
          ",\"reduced\":" + std::to_string(snap.reduced) +
          ",\"crashed\":" + std::to_string(snap.crashed) +
          ",\"recovered\":" + std::to_string(snap.recovered) +
          ",\"stuck\":" + std::to_string(snap.stuck) +
          ",\"stateful_cuts\":" + std::to_string(snap.stateful_cuts) +
          ",\"done\":";
  text += snap.done ? "true" : "false";
  text += ",\"complete\":";
  text += snap.complete ? "true" : "false";
  if (snap.violation) {
    text += ",\"violation\":\"";
    jd::append_escaped(text, *snap.violation);
    text += "\",\"violating_trace\":\"";
    text += encode_decisions(snap.violating_trace);
    text += '"';
  }
  if (snap.stuck_message) {
    text += ",\"stuck_message\":\"";
    jd::append_escaped(text, *snap.stuck_message);
    text += "\",\"stuck_trace\":\"";
    text += encode_decisions(snap.stuck_trace);
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

/// Loads a snapshot written by `save_snapshot`. Throws `SimError` when the
/// file is missing or malformed.
inline ExplorerSnapshot load_snapshot(const std::string& path) {
  namespace jd = jsonl_detail;
  namespace cd = checkpoint_detail;
  std::ifstream in(path);
  if (!in) {
    throw SimError("load_snapshot: cannot open " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  ExplorerSnapshot snap;
  bool saw_header = false;
  bool saw_state = false;
  std::string line;
  while (std::getline(buffer, line)) {
    if (line.empty()) {
      continue;
    }
    const std::string kind = jd::string_field(line, "kind");
    if (kind == "header") {
      const std::int64_t version = jd::int_field_or_throw(line, "version");
      if (version != 1) {
        throw SimError("load_snapshot: unsupported snapshot version " +
                       std::to_string(version));
      }
      snap.max_executions = jd::int_field_or_throw(line, "max_executions");
      snap.max_crashes =
          static_cast<int>(jd::int_field_or_throw(line, "max_crashes"));
      // Absent in pre-recovery snapshots: reads back as 0.
      if (cd::has_field(line, "max_recoveries")) {
        snap.max_recoveries =
            static_cast<int>(jd::int_field_or_throw(line, "max_recoveries"));
      }
      snap.step_quota = jd::int_field_or_throw(line, "step_quota");
      snap.reduction = jd::string_field(line, "reduction") == "sleep";
      // Absent in pre-stateful snapshots: reads back as false.
      snap.stateful = cd::bool_field(line, "stateful");
      saw_header = true;
    } else if (kind == "state") {
      snap.executions = jd::int_field_or_throw(line, "executions");
      snap.pruned = jd::int_field_or_throw(line, "pruned");
      snap.reduced = jd::int_field_or_throw(line, "reduced");
      snap.crashed = jd::int_field_or_throw(line, "crashed");
      if (cd::has_field(line, "recovered")) {
        snap.recovered = jd::int_field_or_throw(line, "recovered");
      }
      snap.stuck = jd::int_field_or_throw(line, "stuck");
      if (cd::has_field(line, "stateful_cuts")) {
        snap.stateful_cuts = jd::int_field_or_throw(line, "stateful_cuts");
      }
      snap.done = cd::bool_field(line, "done");
      snap.complete = cd::bool_field(line, "complete");
      if (cd::has_field(line, "violation")) {
        snap.violation = jd::string_field(line, "violation");
        snap.violating_trace =
            decode_decisions(jd::string_field(line, "violating_trace"));
      }
      if (cd::has_field(line, "stuck_message")) {
        snap.stuck_message = jd::string_field(line, "stuck_message");
        snap.stuck_trace =
            decode_decisions(jd::string_field(line, "stuck_trace"));
      }
      snap.prefix = decode_decisions(jd::string_field(line, "prefix"));
      saw_state = true;
    } else {
      throw SimError("load_snapshot: unknown line kind \"" + kind +
                     "\" in " + path);
    }
  }
  if (!saw_header || !saw_state) {
    throw SimError("load_snapshot: truncated snapshot in " + path);
  }
  return snap;
}

}  // namespace subc
