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

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "subc/runtime/explorer.hpp"
#include "subc/runtime/scheduler.hpp"

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
std::string encode_decisions(std::span<const ReplayDriver::Decision> trace);

/// Parses `encode_decisions` output. Throws `SimError` on malformed tokens.
std::vector<ReplayDriver::Decision> decode_decisions(const std::string& text);

/// Serializes `snap` to `path` atomically: the snapshot is staged as
/// `<path>.tmp` and renamed over `path`, so readers (and a resume after a
/// crash mid-write) always see a complete snapshot. Transient filesystem
/// failures (open, write, or rename) are retried with bounded backoff —
/// three attempts, sleeping 1/4/16 ms between them — before a `SimError`
/// carrying a structured diagnostic (attempts made, failing stage, errno)
/// is thrown. The explorer catches failures of *periodic* snapshots so an
/// exploration campaign survives a briefly unwritable checkpoint directory;
/// the final snapshot's failure still propagates.
void save_snapshot(const std::string& path, const ExplorerSnapshot& snap);

/// Loads a snapshot written by `save_snapshot`. Throws `SimError` when the
/// file is missing or malformed.
ExplorerSnapshot load_snapshot(const std::string& path);

}  // namespace subc
