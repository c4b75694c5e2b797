// Shared pieces of the wall-clock benchmark: the clock, fixed-size sample
// reservoirs, the span tracer used by traced runs, and the report every
// workload fills in. Everything here is the benchmark's own bookkeeping; it
// is sized once up front so peak RSS measures the program, not the harness.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the seeded stream behind every random choice the benchmark
/// makes (request shapes, arrivals, samples). Kept apart from the
/// library's own mix64 so a library change never changes the inputs.
inline std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept { return state_ = mix(state_); }
  std::uint64_t below(std::uint64_t bound) noexcept { return next() % bound; }
  /// Uniform in (0, 1].
  double unit() noexcept {
    return (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Linear interpolation between order statistics of `sorted`.
double percentile_sorted(const std::vector<double>& sorted, double p);

/// Fixed-capacity uniform sample of a stream (Algorithm R). Below capacity
/// it holds every value, so percentiles are exact.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);

  void add(double v);
  [[nodiscard]] std::int64_t count() const noexcept { return seen_; }
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<double> samples_;
  std::size_t capacity_;
  std::int64_t seen_ = 0;
  Rng rng_;
};

/// Per-interval throughput: call `tick(count)` often with a running count;
/// each time an interval of at least `interval_ns` has passed, the rate
/// over it is recorded. A percentile of the rates ignores a single stall.
class IntervalRates {
 public:
  /// Room for 4096 intervals is reserved up front: an allocation at a
  /// time-dependent point of the run would make the heap layout, and with
  /// it the program's peak RSS, differ from run to run.
  explicit IntervalRates(std::int64_t interval_ns) : interval_ns_(interval_ns) {
    rates_.reserve(4096);
  }

  void start(std::int64_t count, std::int64_t at_ns);
  void tick(std::int64_t count, std::int64_t at_ns);
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] std::size_t intervals() const noexcept {
    return rates_.size();
  }

 private:
  std::int64_t interval_ns_;
  std::int64_t last_count_ = 0;
  std::int64_t last_ns_ = 0;
  std::vector<double> rates_;
};

/// Per-interval percentiles of a timestamped stream. Values are binned by
/// time into intervals of `interval_ns`; each bin keeps a uniform sample of
/// up to `per_interval` values (Algorithm R). `across(p, q)` is the q-th
/// percentile, over the intervals, of each interval's p-th percentile: a
/// host stall that spoils some intervals moves it by their number of ranks
/// at most, where it drags a whole-run percentile into the stall as soon
/// as it covers the run's tail.
class IntervalPercentiles {
 public:
  IntervalPercentiles(std::int64_t interval_ns, std::size_t per_interval,
                      std::uint64_t seed);

  /// Sizes the bins for a window of `window_ns` from `start_ns`. Allocates,
  /// so call it before anything is timed; `add` never allocates.
  void start(std::int64_t start_ns, std::int64_t window_ns);
  /// Bins `v` by `at_ns`; times outside the window go to the nearest bin.
  void add(std::int64_t at_ns, double v);
  [[nodiscard]] double across(double p, double q) const;

 private:
  std::int64_t interval_ns_;
  std::size_t per_interval_;
  std::int64_t start_ns_ = 0;
  std::vector<float> samples_;
  std::vector<std::int64_t> seen_;
  Rng rng_;
};

/// Layers a span can be charged to. Harness layers (op, claim, world,
/// request) are the benchmark's own glue; their self time is the part of an
/// operation that no library layer covers.
enum class Layer : std::uint8_t {
  kOp,         // one timed operation (harness)
  kClaim,      // one check of the claims table (harness)
  kExplore,    // Explorer::explore / Explorer::replay
  kShrink,     // Explorer::shrink
  kWorld,      // one ExecutionBody call (harness)
  kBuild,      // Runtime + objects + add_process/add_stepped
  kRun,        // Runtime::run
  kPick,       // SchedulePolicy::pick (counted, not a span)
  kChoose,     // SchedulePolicy::choose (counted, not a span)
  kCheck,      // the world's validation after run
  kTeardown,   // ~Runtime and the world's objects
  kRequest,    // due time -> end of the decide callback (harness)
  kOpen,       // ShardedService::open
  kSubmit,     // ShardedService::submit
  kCallback,   // the decide callback
  kAudit,      // validity/agreement/Wing-Gong audit inside the callback
  kCount
};

const char* layer_name(Layer layer);

/// Nested spans on one thread. Each `end` charges the span's duration to
/// its layer and to its parent's covered time, so self time (duration minus
/// children) is kept exactly while the spans themselves go to a
/// fixed-capacity buffer that is written out when the run ends. `leaf`
/// charges a measured call without recording a span (picks and chooses are
/// too many to keep one span each).
class Tracer {
 public:
  struct Total {
    std::int64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  struct Record {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t op = 0;
    std::int32_t parent = -1;
    Layer layer = Layer::kOp;
  };

  explicit Tracer(std::size_t span_capacity);

  void set_op(std::int64_t op) noexcept { op_ = op; }
  void begin(Layer layer) { begin_at(layer, now_ns()); }
  void begin_at(Layer layer, std::int64_t start_ns);
  void end() { end_at(now_ns()); }
  void end_at(std::int64_t end_ns);
  void leaf(Layer layer, std::int64_t ns) noexcept;

  [[nodiscard]] const Total& total(Layer layer) const noexcept {
    return totals_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] const std::vector<Record>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }

 private:
  struct Open {
    Layer layer = Layer::kOp;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::int32_t index = -1;
  };

  std::array<Open, 16> stack_{};
  int depth_ = 0;
  std::int64_t op_ = 0;
  std::vector<Record> spans_;
  std::size_t capacity_;
  std::int64_t dropped_ = 0;
  std::array<Total, static_cast<std::size_t>(Layer::kCount)> totals_{};
};

/// RAII span; a null tracer makes it free, so one code path serves traced
/// and untraced operations.
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->begin(layer);
    }
  }
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->end();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Writes `spans` as JSON lines: thread, name, start/end (ns since
/// `origin_ns`), parent (line index in the file, -1 for a root) and
/// operation id. `line_offset` is the file line of `spans[0]`; a span
/// without a parent on its own thread gets `cross_parent(op)` (a line on
/// another thread, or -1) when that is given.
void write_spans(std::ostream& out, const char* thread,
                 const std::vector<Tracer::Record>& spans,
                 std::int64_t origin_ns, std::size_t line_offset,
                 const std::function<std::int64_t(std::int64_t)>&
                     cross_parent = {});

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;
};

/// What one run reports: operations, failures and metrics. `errors` holds
/// the first few failure descriptions for the human-readable report.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  /// Printed beside the end-to-end metrics but not part of the result:
  /// measured every run, too noisy on a shared host to gate on.
  std::vector<Metric> also;
  std::vector<Metric> per_layer;
  /// Human-readable lines printed above the result (trace breakdowns).
  std::vector<std::string> notes;

  /// Counts `count` failed operations described by `what`.
  void fail(std::string what, std::int64_t count = 1);
  void e2e(std::string name, double value, std::string unit,
           std::int64_t samples);
  void info(std::string name, double value, std::string unit,
            std::int64_t samples);
  void layer(std::string name, double value, std::string unit,
             std::int64_t samples = 0);
};

/// getrusage's ru_maxrss of this process, in KiB.
double max_rss_kib();

/// Peak resident set of this process image in MiB, given `max_rss_kib()`
/// read first thing in main (the peak inherited from the launcher).
double peak_rss_mb(double launcher_kib);

/// Options every workload receives.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its spans to ("" = do not write).
  std::string trace_dir;
};

/// One named workload: `setup` is everything before the first timed
/// operation (it is what `setup_s` times, in fresh processes); `measure`
/// runs the timed phase and fills `report`.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual void measure(const RunConfig& config, Report& report) = 0;
  /// Writes the spans a traced `measure` kept, as JSON lines.
  virtual void write_trace(std::ostream& out) const = 0;
};

}  // namespace perfbench
