#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

namespace perfbench {

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  samples_.reserve(capacity);
}

void Reservoir::add(double v) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(v);
    return;
  }
  const std::uint64_t slot = rng_.below(static_cast<std::uint64_t>(seen_));
  if (slot < capacity_) {
    samples_[slot] = v;
  }
}

double Reservoir::percentile(double p) const {
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

void IntervalRates::start(std::int64_t count, std::int64_t at_ns) {
  last_count_ = count;
  last_ns_ = at_ns;
  rates_.clear();
}

void IntervalRates::tick(std::int64_t count, std::int64_t at_ns) {
  const std::int64_t span = at_ns - last_ns_;
  if (span < interval_ns_) {
    return;
  }
  rates_.push_back(static_cast<double>(count - last_count_) * 1e9 /
                   static_cast<double>(span));
  last_count_ = count;
  last_ns_ = at_ns;
}

double IntervalRates::percentile(double p) const {
  std::vector<double> sorted = rates_;
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

IntervalPercentiles::IntervalPercentiles(std::int64_t interval_ns,
                                         std::size_t per_interval,
                                         std::uint64_t seed)
    : interval_ns_(interval_ns), per_interval_(per_interval), rng_(seed) {}

void IntervalPercentiles::start(std::int64_t start_ns, std::int64_t window_ns) {
  const std::size_t n =
      static_cast<std::size_t>(std::max<std::int64_t>(1, window_ns / interval_ns_));
  start_ns_ = start_ns;
  samples_.assign(n * per_interval_, 0.0F);
  seen_.assign(n, 0);
}

void IntervalPercentiles::add(std::int64_t at_ns, double v) {
  if (seen_.empty()) {
    return;
  }
  const std::int64_t last = static_cast<std::int64_t>(seen_.size()) - 1;
  const std::int64_t bin =
      std::clamp<std::int64_t>((at_ns - start_ns_) / interval_ns_, 0, last);
  const std::int64_t seen = ++seen_[static_cast<std::size_t>(bin)];
  std::uint64_t slot = static_cast<std::uint64_t>(seen - 1);
  if (slot >= per_interval_) {
    slot = rng_.below(static_cast<std::uint64_t>(seen));
    if (slot >= per_interval_) {
      return;
    }
  }
  samples_[static_cast<std::size_t>(bin) * per_interval_ + slot] =
      static_cast<float>(v);
}

double IntervalPercentiles::across(double p, double q) const {
  std::vector<double> per_bin;
  std::vector<double> sorted;
  for (std::size_t bin = 0; bin < seen_.size(); ++bin) {
    const auto kept = static_cast<std::size_t>(std::min<std::int64_t>(
        seen_[bin], static_cast<std::int64_t>(per_interval_)));
    if (kept == 0) {
      continue;
    }
    const auto first = samples_.begin() +
                       static_cast<std::ptrdiff_t>(bin * per_interval_);
    sorted.assign(first, first + static_cast<std::ptrdiff_t>(kept));
    std::sort(sorted.begin(), sorted.end());
    per_bin.push_back(percentile_sorted(sorted, p));
  }
  std::sort(per_bin.begin(), per_bin.end());
  return percentile_sorted(per_bin, q);
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kClaim: return "claim";
    case Layer::kExplore: return "explore";
    case Layer::kShrink: return "shrink";
    case Layer::kWorld: return "world";
    case Layer::kBuild: return "build";
    case Layer::kRun: return "run";
    case Layer::kPick: return "pick";
    case Layer::kChoose: return "choose";
    case Layer::kCheck: return "check";
    case Layer::kTeardown: return "teardown";
    case Layer::kRequest: return "request";
    case Layer::kOpen: return "open";
    case Layer::kSubmit: return "submit";
    case Layer::kCallback: return "callback";
    case Layer::kAudit: return "audit";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t span_capacity) : capacity_(span_capacity) {
  spans_.reserve(span_capacity);
}

void Tracer::begin_at(Layer layer, std::int64_t start_ns) {
  Open& open = stack_.at(static_cast<std::size_t>(depth_));
  open.layer = layer;
  open.start_ns = start_ns;
  open.child_ns = 0;
  open.index = -1;
  if (spans_.size() < capacity_) {
    open.index = static_cast<std::int32_t>(spans_.size());
    Record rec;
    rec.start_ns = start_ns;
    rec.op = op_;
    rec.layer = layer;
    rec.parent = depth_ > 0 ? stack_[static_cast<std::size_t>(depth_ - 1)].index
                            : -1;
    spans_.push_back(rec);
  } else {
    ++dropped_;
  }
  ++depth_;
}

void Tracer::end_at(std::int64_t end_ns) {
  --depth_;
  const Open& open = stack_[static_cast<std::size_t>(depth_)];
  const std::int64_t dur = end_ns - open.start_ns;
  Total& t = totals_[static_cast<std::size_t>(open.layer)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - open.child_ns;
  if (depth_ > 0) {
    stack_[static_cast<std::size_t>(depth_ - 1)].child_ns += dur;
  }
  if (open.index >= 0) {
    spans_[static_cast<std::size_t>(open.index)].end_ns = end_ns;
  }
}

void Tracer::leaf(Layer layer, std::int64_t ns) noexcept {
  Total& t = totals_[static_cast<std::size_t>(layer)];
  ++t.count;
  t.total_ns += ns;
  t.self_ns += ns;
  if (depth_ > 0) {
    stack_[static_cast<std::size_t>(depth_ - 1)].child_ns += ns;
  }
}

void write_spans(std::ostream& out, const char* thread,
                 const std::vector<Tracer::Record>& spans,
                 std::int64_t origin_ns, std::size_t line_offset,
                 const std::function<std::int64_t(std::int64_t)>&
                     cross_parent) {
  for (const Tracer::Record& s : spans) {
    std::int64_t parent = -1;
    if (s.parent >= 0) {
      parent = static_cast<std::int64_t>(line_offset) + s.parent;
    } else if (cross_parent) {
      parent = cross_parent(s.op);
    }
    out << "{\"thread\":\"" << thread << "\",\"name\":\""
        << layer_name(s.layer) << "\",\"start_ns\":" << s.start_ns - origin_ns
        << ",\"end_ns\":" << s.end_ns - origin_ns << ",\"parent\":" << parent
        << ",\"op\":" << s.op << "}\n";
  }
}

void Report::fail(std::string what, std::int64_t count) {
  if (count <= 0) {
    return;
  }
  failed += count;
  correct = false;
  if (errors.size() < 8) {
    errors.push_back(std::move(what));
  }
}

void Report::e2e(std::string name, double value, std::string unit,
                 std::int64_t samples) {
  end_to_end.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void Report::info(std::string name, double value, std::string unit,
                  std::int64_t samples) {
  also.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void Report::layer(std::string name, double value, std::string unit,
                   std::int64_t samples) {
  per_layer.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

double max_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

double peak_rss_mb(double launcher_kib) {
  // ru_maxrss is max(launcher's peak, ours): exec keeps the peak of the
  // image this process replaced. Once it has grown past the launcher's it
  // is exactly our own peak. Below that, fall back to VmHWM, which is ours
  // alone but can miss a short-lived peak (a freed 16 MiB visited set).
  const double kib = max_rss_kib();
  if (kib > launcher_kib) {
    return kib / 1024.0;
  }
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double hwm = 0.0;
      status >> hwm;
      return hwm / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return kib / 1024.0;
}

}  // namespace perfbench
