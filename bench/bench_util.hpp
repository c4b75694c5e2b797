// Shared helpers for the experiment binaries: machine-readable JSON result
// files (BENCH_<ID>.json, written into the current working directory), the
// one cell that carries the explorer tallies of the searches a bench ran, a
// stopwatch for the timings benches print, and the worker-thread count used
// when benches drive the parallel explorer.
//
// An artifact records only facts that repeat on any host and at any thread
// count: verdicts, schedule counts, step costs and search tallies.
// `scripts/refresh_bench_results.sh --check` diffs every value exactly
// against the committed bench-results/. Wall clock, allocation counters and
// host facts stay out of the artifacts; perfbench/ measures time.
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

#include "subc/runtime/explorer.hpp"

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

/// Stamps `tally`, the summed Explorer::Tally of the exhaustive searches a
/// bench (or one cell of it) ran and reads, as one nested `search` cell
/// keyed by the Tally's member names. Benches whose work reads no
/// Explorer::Result stamp none. Ratios derivable from the counts (reduction
/// factor, hit rates) are left to the reader.
inline void set_search_tally(Json& json, const subc::Explorer::Tally& tally) {
  Json cell;
  cell.set("executions", tally.executions)
      .set("pruned_subtrees", tally.pruned_subtrees)
      .set("reduced_subtrees", tally.reduced_subtrees)
      .set("stateful_cuts", tally.stateful_cuts)
      .set("crashed_executions", tally.crashed_executions)
      .set("recovered_executions", tally.recovered_executions)
      .set("stuck_executions", tally.stuck_executions);
  json.set("search", cell);
}

/// Writes `json` to `path` (+ trailing newline). Returns false on IO error.
inline bool write_json(const std::string& path, const Json& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string body = json.str() + "\n";
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

/// Monotonic wall-clock stopwatch in milliseconds, for printed timings only.
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
