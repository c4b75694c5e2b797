// ASCII space-time diagrams of operation histories.
//
// Renders a History as one lane per process on a logical-time axis
// (invocation/response timestamps), the standard picture used in the papers'
// linearizability discussions:
//
//   p0 |--1sWRN(0,100)->⊥--------|
//   p1      |--1sWRN(1,101)->102------------|
//   p2                   |--1sWRN(2,102)->100--|
//
// Used by examples/adversary_lab and handy when a linearizability test
// fails (pair with History::dump()).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "subc/runtime/history.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

struct TraceVizOptions {
  /// Label printed inside each operation box; defaults to "op(args)->resp".
  int columns_per_tick = 3;
  /// Operation name used in labels (e.g. "1sWRN").
  std::string op_name = "op";
  /// Crash marks as (pid, step) pairs — e.g. `ParsedTrace::crash_events`
  /// from trace_jsonl.hpp. Each crashed pid's lane is annotated with
  /// "X crashed@step", and a crashed process gets a lane even when it
  /// completed no operation, so crashes render instead of disappearing.
  std::vector<std::pair<int, std::int64_t>> crashes;
};

/// Renders `history` as an ASCII space-time diagram. The horizontal scale
/// adapts so every operation box fits its label (boxes stay proportional to
/// logical duration beyond that minimum).
inline std::string render_history(const History& history,
                                  TraceVizOptions options = {}) {
  const auto& entries = history.entries();
  if (entries.empty() && options.crashes.empty()) {
    return "(empty history)\n";
  }

  const auto label_of = [&options](const HistoryEntry& e) {
    std::string label = options.op_name + "(";
    for (std::size_t a = 0; a < e.op.size(); ++a) {
      label.append(a ? "," : "").append(to_string(e.op[a]));
    }
    label += ")->";
    if (e.pending()) {
      label += "?";
    } else if (e.response.empty()) {
      label += "()";
    } else {
      for (std::size_t a = 0; a < e.response.size(); ++a) {
        label.append(a ? "," : "").append(to_string(e.response[a]));
      }
    }
    return label;
  };

  std::int64_t horizon = 0;
  std::map<int, std::vector<std::size_t>> lanes;  // pid -> entry indices
  int cpt = options.columns_per_tick;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const HistoryEntry& e = entries[i];
    lanes[e.pid].push_back(i);
    const std::int64_t stop_tick =
        e.pending() ? e.invoked_at + 2 : e.responded_at;
    horizon = std::max(horizon, stop_tick);
    // Widen the scale until this op's label fits its box interior.
    const auto duration = std::max<std::int64_t>(1, stop_tick - e.invoked_at);
    const auto needed =
        (static_cast<std::int64_t>(label_of(e).size()) + 2 + duration - 1) /
        duration;
    cpt = std::max<int>(cpt, static_cast<int>(needed));
  }
  const int width = static_cast<int>(horizon + 1) * cpt + 4;

  // Crashed processes render even when they never completed an operation.
  for (const auto& mark : options.crashes) {
    lanes[mark.first];
  }

  std::ostringstream os;
  for (const auto& [pid, indices] : lanes) {
    std::string lane(static_cast<std::size_t>(width), ' ');
    for (const std::size_t i : indices) {
      const HistoryEntry& e = entries[i];
      const int start = static_cast<int>(e.invoked_at) * cpt;
      const int stop = e.pending()
                           ? width - 1
                           : static_cast<int>(e.responded_at) * cpt;
      const std::string label = label_of(e);
      lane[static_cast<std::size_t>(start)] = '|';
      for (int c = start + 1; c < stop; ++c) {
        lane[static_cast<std::size_t>(c)] = '-';
      }
      if (!e.pending()) {
        lane[static_cast<std::size_t>(stop)] = '|';
      }
      // Overlay the label, clipped to the box interior.
      const int room = std::max(0, stop - start - 1);
      const int len = std::min<int>(static_cast<int>(label.size()), room);
      for (int c = 0; c < len; ++c) {
        lane[static_cast<std::size_t>(start + 1 + c)] =
            label[static_cast<std::size_t>(c)];
      }
    }
    // Trim trailing spaces.
    const auto end = lane.find_last_not_of(' ');
    lane.resize(end == std::string::npos ? 0 : end + 1);
    for (const auto& [cpid, cstep] : options.crashes) {
      if (cpid == pid) {
        if (!lane.empty()) {
          lane += ' ';
        }
        lane += "X crashed@" + std::to_string(cstep);
      }
    }
    os << 'p' << pid << ' ' << lane << '\n';
  }
  return os.str();
}

}  // namespace subc
