// Explorer campaign snapshots: durable checkpoint/resume for long searches.
//
// A multi-hour exhaustive campaign that dies at 90% must be resumable. The
// explorer (runtime/explorer.hpp) periodically serializes its progress — the
// canonical-prefix watermark (tallies over every canonical event completed so
// far), the decision prefix the search continues from, and the first stuck
// diagnostic — into a two-line JSONL snapshot:
//
//   {"kind":"header","version":1,"max_executions":N,"max_crashes":F,
//    "max_recoveries":R,"step_quota":Q,"reduction":"sleep","stateful":false}
//   {"kind":"state","executions":N,"pruned":N,"reduced":N,"crashed":N,
//    "recovered":N,"stuck":N,"stateful_cuts":N,"done":false,"complete":false,
//    "prefix":"0/3/7/0/0/0/0/0 1/4/0/0/1/0/0/-"}
//
// The state line adds "violation"/"violating_trace" when a violation was
// found and "stuck_message"/"stuck_trace" when an execution got stuck.
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
// back as full-branching decisions. A snapshot is outside input: counts,
// option echoes and decision-token numbers must be unsigned decimals in
// range for their fields, or loading throws `SimError`.
#pragma once

#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
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
#include "subc/runtime/explorer.hpp"
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

  /// True when the search finished (tree exhausted, budget spent, or a
  /// violation found); `prefix` is empty and meaningless then.
  bool done = false;
  /// The watermark while the search runs: the tallies over its completed
  /// canonical prefix and the first stuck diagnostic. Once `done`, the
  /// search's final Result, which `Explorer::resume` returns as it stands.
  /// `stateful_states` is not saved and reads back as 0.
  Explorer::Result result;
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

namespace checkpoint_detail {

/// Reads the unsigned decimal at `p` and moves `p` past it: one or more
/// digits, no sign, at most `max`. Anything else throws `SimError`, naming
/// `who` and quoting `text`.
inline std::uint64_t read_unsigned(const char*& p, std::uint64_t max,
                                   const char* who, const std::string& text) {
  const char* const start = p;
  std::uint64_t v = 0;
  for (; *p >= '0' && *p <= '9'; ++p) {
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    if (v > (max - digit) / 10) {
      break;  // out of range: the digit left at `p` reports it below
    }
    v = v * 10 + digit;
  }
  if (p == start || (*p >= '0' && *p <= '9')) {
    throw SimError(std::string(who) +
                   ": expected an unsigned integer of at most " +
                   std::to_string(max) + " in: " + text);
  }
  return v;
}

/// The unsigned integer following `"key":` in `line`, at most `max`. An
/// absent key throws when `required`, and reads as 0 otherwise.
inline std::int64_t unsigned_field(const std::string& line,
                                   std::string_view key, std::int64_t max,
                                   bool required) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) {
    if (required) {
      throw SimError("load_snapshot: missing field \"" + std::string(key) +
                     "\" in: " + line);
    }
    return 0;
  }
  const char* p = line.c_str() + at + pat.size();
  return static_cast<std::int64_t>(read_unsigned(
      p, static_cast<std::uint64_t>(max), "load_snapshot", line));
}

inline bool bool_field(std::string_view line, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":true";
  return line.find(pat) != std::string_view::npos;
}

inline bool has_field(std::string_view line, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  return line.find(pat) != std::string_view::npos;
}

/// The state line's counts in file order: the key, the Tally member it
/// holds, and whether older snapshots omit it (it then reads back as 0).
struct CountField {
  const char* key;
  std::int64_t Explorer::Tally::*member;
  bool optional;
};

inline constexpr CountField kCountFields[] = {
    {"executions", &Explorer::Tally::executions, false},
    {"pruned", &Explorer::Tally::pruned_subtrees, false},
    {"reduced", &Explorer::Tally::reduced_subtrees, false},
    {"crashed", &Explorer::Tally::crashed_executions, false},
    {"recovered", &Explorer::Tally::recovered_executions, true},
    {"stuck", &Explorer::Tally::stuck_executions, false},
    {"stateful_cuts", &Explorer::Tally::stateful_cuts, true},
};

}  // namespace checkpoint_detail

/// Parses `encode_decisions` output. Throws `SimError` on malformed tokens.
inline std::vector<ReplayDriver::Decision> decode_decisions(
    const std::string& text) {
  std::vector<ReplayDriver::Decision> out;
  const char* p = text.c_str();
  const auto number = [&p, &text](std::uint64_t max) {
    return checkpoint_detail::read_unsigned(p, max, "decode_decisions", text);
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
  namespace cd = checkpoint_detail;
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
  for (const cd::CountField& f : cd::kCountFields) {
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
    jd::append_escaped(text, *snap.result.violation);
    text += "\",\"violating_trace\":\"";
    text += encode_decisions(snap.result.violating_trace);
    text += '"';
  }
  if (snap.result.first_stuck) {
    text += ",\"stuck_message\":\"";
    jd::append_escaped(text, snap.result.first_stuck->message);
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
      snap.max_executions =
          cd::unsigned_field(line, "max_executions", INT64_MAX, true);
      snap.max_crashes = static_cast<int>(
          cd::unsigned_field(line, "max_crashes", INT_MAX, true));
      // Absent in pre-recovery snapshots: reads back as 0.
      snap.max_recoveries = static_cast<int>(
          cd::unsigned_field(line, "max_recoveries", INT_MAX, false));
      snap.step_quota = cd::unsigned_field(line, "step_quota", INT64_MAX, true);
      snap.reduction = jd::string_field(line, "reduction") == "sleep";
      // Absent in pre-stateful snapshots: reads back as false.
      snap.stateful = cd::bool_field(line, "stateful");
      saw_header = true;
    } else if (kind == "state") {
      for (const cd::CountField& f : cd::kCountFields) {
        snap.result.*f.member =
            cd::unsigned_field(line, f.key, INT64_MAX, !f.optional);
      }
      snap.done = cd::bool_field(line, "done");
      snap.result.complete = cd::bool_field(line, "complete");
      if (cd::has_field(line, "violation")) {
        snap.result.violation = jd::string_field(line, "violation");
        snap.result.violating_trace =
            decode_decisions(jd::string_field(line, "violating_trace"));
      }
      if (cd::has_field(line, "stuck_message")) {
        snap.result.first_stuck = StuckExecution{
            jd::string_field(line, "stuck_message"),
            decode_decisions(jd::string_field(line, "stuck_trace"))};
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
  // A violation ends the search, so only a finished snapshot records one;
  // resuming an unfinished one would stop at a violation it never found.
  if (!snap.done && snap.result.violation) {
    throw SimError("load_snapshot: unfinished snapshot records a violation "
                   "in " + path);
  }
  return snap;
}

}  // namespace subc
