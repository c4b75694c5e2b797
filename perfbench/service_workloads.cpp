// The service workloads: one ShardedService shard at default
// ServiceOptions (the single-node baseline) fed by one producer thread.
//
//   serve-paced  open loop: seeded exponential inter-arrivals at a fixed
//                mean rate near a quarter of the shard's capacity; latency
//                runs from each request's due time to its decide callback.
//   serve-flood  the same request stream sent as fast as inbox
//                backpressure allows.
//
// Both report latency and throughput per 250 ms interval of the timed
// window and gate on robust statistics of the intervals: the 10th
// percentile of the interval p90 latencies and of the interval rates.
// While a run measures, an idle-priority thread keeps the worker's CPU from
// halting (CpuKeeper below).
//
// Requests are drawn like the F8 soak: 3..6 weighted validators out of 16,
// all three instance kinds, about 1/16 of validators offline (so some
// requests cannot reach quorum and time out) and about 1/64 of requests
// replaying an earlier one under its original request fingerprint. Every
// decision is audited inside the decide callback; a seeded share of 1sWRN
// instances also goes through the Wing-Gong checker.
//
// The producer records each request's due time in a fixed-size ledger
// indexed by its service id before calling open; the decide callback (on
// the shard's worker thread) reads it back. With one producer the service
// assigns ids 1, 2, 3, ... in open order, which the producer verifies on
// every open.
#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "subc/checking/linearizability.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/service.hpp"

namespace perfbench {
namespace {

using namespace subc;

constexpr int kValidators = 16;
constexpr unsigned kWeights[kValidators] = {180, 140, 120, 100, 90, 80, 70,
                                            60,  45,  35,  25,  20, 15, 10,
                                            6,   4};
constexpr int kMaxOps = 6;

/// serve-paced's mean arrival rate (requests per second).
constexpr double kPacedRate = 60'000.0;
/// Load before the timed window, so table blocks and arena chunks are
/// carved before anything is timed.
constexpr std::int64_t kWarmupNs = 1'000'000'000;
constexpr std::int64_t kRateIntervalNs = 250'000'000;
/// Latencies kept per interval for its p90 (a uniform sample beyond that).
constexpr std::size_t kIntervalSample = 4096;
constexpr std::size_t kLedgerSlots = std::size_t{1} << 18;
constexpr std::size_t kSampleCapacity = std::size_t{1} << 18;
/// One traced request in this many keeps its spans.
constexpr std::uint64_t kSpanSampleEvery = 64;
/// One 1sWRN decision in this many also goes through Wing-Gong.
constexpr std::uint64_t kLinearizeEvery = 8;
/// The worker's CPU clock is read on one traced decision in this many.
constexpr std::int64_t kCpuSampleEvery = 256;
/// A request counts as promptly submitted when its last submit returned
/// within this long of the start of its open. The shard times an instance
/// out 40 ticks after draining its open and an op may be scheduled 25 ticks
/// after its own drain, so its ops must be drained within 15 ticks of the
/// open. While one producer is between open and its last submit, nothing
/// else enters the inbox: the worker ticks at most once per message of that
/// request (at most 6) plus once per 200 us of idle wait, so 1 ms keeps it
/// under 11 ticks. A request whose producer stalled longer may time out
/// legitimately; those are counted, not failed.
constexpr std::int64_t kPromptNs = 1'000'000;

struct Request {
  OpenSpec spec;
  OpSpec ops[kMaxOps];
  int nops = 0;
  /// The online validators' weight reaches the quorum rule.
  bool quorum = false;
};

/// The seeded request stream: fresh requests plus replays drawn from a
/// fixed reservoir of earlier ones.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed)
      : rng_(mix(seed ^ 0x5e7e5e7eULL)), salt_(mix(seed)) {}

  /// The next request; `fresh` is false for a replay.
  const Request& next(bool& fresh) {
    if (filled_ > 0 && rng_.below(64) == 0) {
      fresh = false;
      return reservoir_[rng_.below(filled_)];
    }
    fresh = true;
    make(current_);
    if (filled_ < reservoir_.size()) {
      reservoir_[filled_++] = current_;
    } else if (rng_.below(4) == 0) {
      reservoir_[rng_.below(filled_)] = current_;
    }
    return current_;
  }

  /// Exponential inter-arrival gap at `rate` requests per second.
  std::int64_t gap_ns(double rate) {
    return static_cast<std::int64_t>(-std::log(rng_.unit()) / rate * 1e9);
  }

 private:
  void make(Request& req) {
    req = Request{};
    const int participants = 3 + static_cast<int>(rng_.below(4));
    int chosen[kMaxOps] = {};
    int got = 0;
    while (got < participants) {
      const int v = static_cast<int>(rng_.below(kValidators));
      if (std::find(chosen, chosen + got, v) == chosen + got) {
        chosen[got++] = v;
      }
    }
    const std::uint64_t kind = rng_.below(3);
    if (kind == 0) {
      req.spec.kind = InstanceKind::kOneShotWrn;
      req.spec.a = participants;
      req.spec.spec_k = participants;
    } else if (kind == 1) {
      const int level = static_cast<int>(rng_.below(3));
      req.spec.kind = InstanceKind::kGac;
      req.spec.a = participants;
      req.spec.b = level;
      req.spec.spec_k = level + 1;
    } else {
      const int k = 1 + static_cast<int>(rng_.below(
                            static_cast<std::uint64_t>(participants) - 1));
      req.spec.kind = InstanceKind::kSetConsensus;
      req.spec.a = participants + 1;
      req.spec.b = k;
      req.spec.spec_k = k;
    }
    const ServiceOptions defaults;
    unsigned online = 0;
    for (int c = 0; c < participants; ++c) {
      const int validator = chosen[c];
      req.spec.total_weight += kWeights[validator];
      if (rng_.below(16) == 0) {
        continue;  // offline
      }
      OpSpec& op = req.ops[req.nops++];
      op.validator = validator;
      op.weight = kWeights[validator];
      op.slot = c;
      op.value = static_cast<Value>(1000 + validator);
      op.delay_ticks = 1 + static_cast<int>(rng_.below(
                               static_cast<std::uint64_t>(
                                   defaults.horizon_ticks)));
      online += op.weight;
    }
    req.quorum = static_cast<std::uint64_t>(online) * defaults.quorum_den >=
                 static_cast<std::uint64_t>(req.spec.total_weight) *
                     defaults.quorum_num;
    const std::uint64_t fp = mix(salt_ ^ ++seq_);
    req.spec.request_fp = fp == 0 ? 1 : fp;
  }

  Rng rng_;
  std::uint64_t salt_;
  std::uint64_t seq_ = 0;
  Request current_;
  std::vector<Request> reservoir_ = std::vector<Request>(128);
  std::size_t filled_ = 0;
};

enum SlotFlag : std::uint32_t {
  kFresh = 1,
  kQuorum = 2,
  kTimed = 4,    // due inside the timed window
  kTraced = 8,   // sent in the traced phase
  kSampled = 16,  // traced and keeps its spans
  kPrompt = 32,   // all ops submitted within kPromptNs of the open
  kDecided = 64   // set by the decide callback
};

/// One ledger entry, written by the producer before open and read by the
/// decide callback. Seqlock-style: the id is cleared first and published
/// last, so a reader that sees the same id before and after reading the
/// payload read a consistent entry.
struct Slot {
  std::atomic<std::uint64_t> id{0};
  std::atomic<std::int64_t> due_ns{0};
  std::atomic<std::uint32_t> flags{0};
};

/// Decide-callback state. Touched only by the shard's worker thread until
/// stop() joins it.
struct WorkerSide {
  explicit WorkerSide(std::uint64_t seed)
      : latency_ms{Reservoir(kSampleCapacity, seed + 11),
                   Reservoir(kSampleCapacity, seed + 12)},
        window_latency_ms(kRateIntervalNs, kIntervalSample, seed + 13) {}

  Reservoir latency_ms[2];  // [traced phase]
  /// Untraced latencies binned by due time, for the gated interval p90s.
  IntervalPercentiles window_latency_ms;
  std::int64_t decided_fresh_quorum = 0;
  std::int64_t decided_fresh_no_quorum = 0;
  std::int64_t decided_replays = 0;
  std::int64_t ledger_misses = 0;
  std::int64_t audit_violations = 0;
  std::int64_t linearized = 0;
  std::string first_violation;
  // Traced phase.
  Tracer tracer{std::size_t{1} << 17};
  std::int64_t callbacks = 0;
  std::int64_t callback_ns = 0;
  std::int64_t audit_ns = 0;
  std::int64_t cpu_first_ns = -1;
  std::int64_t cpu_last_ns = 0;
  std::int64_t wall_first_ns = 0;
  std::int64_t wall_last_ns = 0;
};

/// Keeps one CPU from idling: an idle-priority (SCHED_IDLE) thread pinned
/// there spins until destroyed, and any other thread that becomes runnable
/// on that CPU preempts it at once. In a virtual machine an idle vCPU
/// halts, and waking it goes through the hypervisor, which on a busy host
/// takes up to milliseconds (counted as steal time). The parked shard
/// worker is woken for nearly every paced request, so without this the
/// latency would measure the host's wake-up delay rather than the service
/// (BENCHMARK.md, Noise). It never spins at normal priority: if the thread
/// cannot be pinned or demoted, it exits.
class CpuKeeper {
 public:
  explicit CpuKeeper(int cpu) {
    if (cpu >= 0) {
      thread_ = std::thread([this, cpu] { spin(cpu); });
    }
  }
  ~CpuKeeper() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  CpuKeeper(const CpuKeeper&) = delete;
  CpuKeeper& operator=(const CpuKeeper&) = delete;

 private:
  void spin(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu), &set);
    sched_param param{};
    if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0 ||
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
      return;
    }
    // A plain load, no pause instruction: a pause loop can make the
    // hypervisor deschedule the vCPU, which is what this thread prevents.
    while (!stop_.load(std::memory_order_relaxed)) {
    }
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The CPU shard 0's worker pins itself to under default ServiceOptions,
/// or -1 when there is no other CPU left for the producer.
int worker_cpu() {
  const std::vector<int> cpus = usable_cpus();
  return cpus.size() >= 2 ? cpus.front() : -1;
}

/// Steal time of every CPU so far in ms, indexed by CPU number (from
/// `/proc/stat`; empty where there is none): how long the hypervisor kept
/// each virtual CPU from running while it had work.
std::vector<double> steal_ms() {
  std::vector<double> out;
  std::ifstream stat("/proc/stat");
  const double ms_per_tick =
      1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::string line;
  while (std::getline(stat, line)) {
    if (line.size() < 4 || line.compare(0, 3, "cpu") != 0 || line[3] == ' ') {
      continue;  // the aggregate line, or not a cpu line
    }
    std::istringstream fields(line.substr(3));
    std::size_t cpu = 0;
    double v[8] = {};  // user nice system idle iowait irq softirq steal
    fields >> cpu;
    for (double& x : v) {
      fields >> x;
    }
    if (fields && cpu < 4096) {
      out.resize(std::max(out.size(), cpu + 1), 0.0);
      out[cpu] = v[7] * ms_per_tick;
    }
  }
  return out;
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Validity and agreement of one decision: the decided value is the first
/// response, every response was proposed (1sWRN may also answer bottom),
/// and at most spec_k distinct values were returned. `linearize` adds the
/// Wing-Gong check of a 1sWRN instance's history.
bool audit(const DecidedView& view, bool linearize) {
  const bool wrn = view.block->kind == InstanceKind::kOneShotWrn;
  const std::vector<Value>& responses = *view.responses;
  const std::vector<Value>& proposals = *view.proposals;
  if (responses.empty() || view.decided != responses.front()) {
    return false;
  }
  Value distinct[kMaxOps];
  int ndistinct = 0;
  for (const Value r : responses) {
    if (r == kBottom) {
      if (!wrn) {
        return false;
      }
      continue;
    }
    if (std::find(proposals.begin(), proposals.end(), r) == proposals.end()) {
      return false;
    }
    if (std::find(distinct, distinct + ndistinct, r) == distinct + ndistinct) {
      if (ndistinct == kMaxOps) {
        return false;
      }
      distinct[ndistinct++] = r;
    }
  }
  if (ndistinct > view.spec_k) {
    return false;
  }
  if (wrn && linearize) {
    return check_linearizable(OneShotWrnSpec{view.block->wrn.k},
                              view.block->history.entries())
        .linearizable;
  }
  return true;
}

double hist_percentile(const std::vector<std::int64_t>& hist, double p) {
  std::int64_t total = 0;
  for (const std::int64_t n : hist) {
    total += n;
  }
  if (total == 0) {
    return 0.0;
  }
  const auto target =
      static_cast<std::int64_t>(p * static_cast<double>(total - 1) + 0.5);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < hist.size(); ++i) {
    seen += hist[i];
    if (seen > target) {
      return static_cast<double>(i);
    }
  }
  return static_cast<double>(hist.size() - 1);
}

class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(bool paced, std::uint64_t seed)
      : paced_(paced),
        seed_(seed),
        stream_(seed),
        ledger_(kLedgerSlots),
        worker_(seed),
        open_ns_(kSampleCapacity, seed + 21),
        submit_ns_(kSampleCapacity, seed + 22),
        lag_us_(kSampleCapacity, seed + 23) {}

  ~ServiceWorkload() override {
    if (svc_) {
      svc_->stop();
    }
  }
  ServiceWorkload(const ServiceWorkload&) = delete;
  ServiceWorkload& operator=(const ServiceWorkload&) = delete;

  /// Construction until the service accepts the first open.
  void setup() override {
    svc_ = std::make_unique<ShardedService>(
        ServiceOptions{},
        [this](const DecidedView& view) { on_decided(view); });
    const std::int64_t now = now_ns();
    send(now, now, 0);
  }

  void measure(const RunConfig& config, Report& report) override {
    const std::int64_t start = now_ns();
    const std::int64_t window_start = start + kWarmupNs;
    const std::int64_t window_end =
        window_start + static_cast<std::int64_t>(config.seconds * 1e9);
    // A traced run measures the first half of the window untraced and the
    // second half traced; the difference is the tracing overhead.
    const std::int64_t trace_start =
        config.trace ? window_start + (window_end - window_start) / 2
                     : std::numeric_limits<std::int64_t>::max();
    IntervalRates rates[2] = {IntervalRates(kRateIntervalNs),
                              IntervalRates(kRateIntervalNs)};
    worker_.window_latency_ms.start(
        window_start, std::min(trace_start, window_end) - window_start);
    const std::vector<double> steal_before = steal_ms();
    std::unique_ptr<CpuKeeper> keeper =
        std::make_unique<CpuKeeper>(worker_cpu());
    int phase = -1;  // -1 warmup, 0 untraced window, 1 traced window
    std::int64_t next_due = start;
    for (std::int64_t now = start; now < window_end;) {
      const int want = now < window_start ? -1 : now < trace_start ? 0 : 1;
      const std::int64_t decided = decided_.load(std::memory_order_relaxed);
      if (want != phase) {
        phase = want;
        if (phase >= 0) {
          rates[phase].start(decided, now);
        }
      } else if (phase >= 0) {
        rates[phase].tick(decided, now);
      }
      std::int64_t due = now;
      if (paced_) {
        due = next_due;
        next_due += stream_.gap_ns(kPacedRate);
        while (now < due) {
          now = now_ns();
        }
      }
      std::uint32_t flags = 0;
      if (phase >= 0) {
        flags |= kTimed;
        if (phase == 1) {
          flags |= kTraced;
        }
      }
      send(due, now, flags);
      now = now_ns();
    }
    const int producer_cpu = sched_getcpu();
    keeper.reset();
    const std::int64_t stop_start = now_ns();
    svc_->stop();
    const std::int64_t stop_end = now_ns();
    check(report);
    note_steal(report, steal_before, producer_cpu);
    if (!config.trace) {
      const Reservoir& lat = worker_.latency_ms[0];
      const auto intervals = static_cast<std::int64_t>(rates[0].intervals());
      // Gated: the 10th percentile over the intervals of the interval p90
      // latency, and the p10 interval rate. Whole-run percentiles move
      // severalfold with the share of the run the host steals the worker's
      // or the producer's CPU for (BENCHMARK.md, Noise); they are printed,
      // not gated.
      report.e2e("op_ms_p90", worker_.window_latency_ms.across(0.9, 0.1), "ms",
                 lat.count());
      report.e2e("ops_per_s_p10", rates[0].percentile(0.1), "1/s", intervals);
      report.info("op_ms_p50", lat.percentile(0.5), "ms", lat.count());
      report.info("op_ms_p90_run", lat.percentile(0.9), "ms", lat.count());
      report.info("op_ms_p99", lat.percentile(0.99), "ms", lat.count());
      report.info("ops_per_s_p50", rates[0].percentile(0.5), "1/s", intervals);
      return;
    }
    report_layers(report, rates, stop_end - stop_start, stop_end - start);
  }

  void write_trace(std::ostream& out) const override {
    // Worker spans first; each producer span's parent is the request span
    // of the same id.
    const auto& worker = worker_.tracer.spans();
    const auto& producer = producer_tracer_.spans();
    std::int64_t origin = std::numeric_limits<std::int64_t>::max();
    for (const auto* spans : {&worker, &producer}) {
      if (!spans->empty()) {
        origin = std::min(origin, spans->front().start_ns);
      }
    }
    std::unordered_map<std::int64_t, std::int64_t> request_line;
    for (std::size_t i = 0; i < worker.size(); ++i) {
      if (worker[i].layer == Layer::kRequest) {
        request_line[worker[i].op] = static_cast<std::int64_t>(i);
      }
    }
    write_spans(out, "worker", worker, origin, 0);
    write_spans(out, "producer", producer, origin, worker.size(),
                [&](std::int64_t op) {
                  const auto it = request_line.find(op);
                  return it == request_line.end() ? std::int64_t{-1}
                                                  : it->second;
                });
  }

 private:
  /// Sends the stream's next request: ledger entry, open, then its ops.
  void send(std::int64_t due, std::int64_t now, std::uint32_t flags) {
    bool fresh = false;
    const Request& req = stream_.next(fresh);
    const std::uint64_t seq = ++sent_;
    if (fresh) {
      flags |= kFresh;
      ++fresh_;
      if (req.quorum) {
        flags |= kQuorum;
        ++fresh_quorum_;
      }
    }
    const bool traced = (flags & kTraced) != 0;
    if (traced && mix(seed_ ^ seq) % kSpanSampleEvery == 0) {
      flags |= kSampled;
    }
    Slot& slot = ledger_[seq % kLedgerSlots];
    settle(slot);
    slot.id.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    slot.due_ns.store(due, std::memory_order_relaxed);
    slot.flags.store(flags, std::memory_order_relaxed);
    slot.id.store(seq, std::memory_order_release);
    if ((flags & kTimed) != 0) {
      lag_us_.add(static_cast<double>(now - due) / 1e3);
    }

    Tracer* spans = (flags & kSampled) != 0 ? &producer_tracer_ : nullptr;
    producer_tracer_.set_op(static_cast<std::int64_t>(seq));
    const std::int64_t open_start = now_ns();
    std::int64_t t0 = open_start;
    ServiceId id = 0;
    {
      const Span span(spans, Layer::kOpen);
      id = svc_->open(req.spec);
    }
    if (traced) {
      const std::int64_t t1 = now_ns();
      open_ns_.add(static_cast<double>(t1 - t0));
      t0 = t1;
    }
    if (id != seq) {
      ++id_mismatches_;
    }
    for (int i = 0; i < req.nops; ++i) {
      {
        const Span span(spans, Layer::kSubmit);
        svc_->submit(id, req.ops[i]);
      }
      if (traced) {
        const std::int64_t t1 = now_ns();
        submit_ns_.add(static_cast<double>(t1 - t0));
        t0 = t1;
      }
    }
    if ((flags & kQuorum) != 0) {
      if (now_ns() - open_start <= kPromptNs) {
        slot.flags.fetch_or(kPrompt, std::memory_order_relaxed);
      } else {
        ++stalled_quorum_;
      }
    }
  }

  /// Accounts for the request a ledger slot last held: a fresh, promptly
  /// submitted request that reached quorum must have decided.
  void settle(const Slot& slot) {
    const std::uint32_t flags = slot.flags.load(std::memory_order_relaxed);
    constexpr std::uint32_t kMustDecide = kFresh | kQuorum | kPrompt;
    if ((flags & kMustDecide) == kMustDecide && (flags & kDecided) == 0) {
      ++undecided_prompt_;
    }
  }

  /// Runs on the shard's worker thread for every decided instance.
  void on_decided(const DecidedView& view) {
    const std::int64_t entry = now_ns();
    decided_.store(decided_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    WorkerSide& w = worker_;
    Slot& slot = ledger_[view.id % kLedgerSlots];
    const std::uint64_t before = slot.id.load(std::memory_order_acquire);
    const std::int64_t due = slot.due_ns.load(std::memory_order_relaxed);
    const std::uint32_t flags = slot.flags.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t after = slot.id.load(std::memory_order_relaxed);
    const bool known = before == view.id && after == view.id;
    const bool traced = known && (flags & kTraced) != 0;
    const bool sampled = known && (flags & kSampled) != 0;
    if (!known) {
      ++w.ledger_misses;
    } else if ((flags & kFresh) == 0) {
      ++w.decided_replays;
    } else {
      slot.flags.fetch_or(kDecided, std::memory_order_relaxed);
      if ((flags & kQuorum) != 0) {
        ++w.decided_fresh_quorum;
      } else {
        ++w.decided_fresh_no_quorum;
      }
      if ((flags & kTimed) != 0) {
        const double ms = static_cast<double>(entry - due) / 1e6;
        w.latency_ms[traced ? 1 : 0].add(ms);
        if (!traced) {
          w.window_latency_ms.add(due, ms);
        }
      }
    }

    if (sampled) {
      w.tracer.set_op(static_cast<std::int64_t>(view.id));
      w.tracer.begin_at(Layer::kRequest, due);
      w.tracer.begin_at(Layer::kCallback, entry);
    }
    const std::int64_t audit_start = traced ? now_ns() : 0;
    const bool linearize = mix(seed_ ^ view.id) % kLinearizeEvery == 0;
    std::int64_t audit_end = 0;
    {
      const Span span(sampled ? &w.tracer : nullptr, Layer::kAudit);
      if (!audit(view, linearize)) {
        ++w.audit_violations;
        if (w.first_violation.empty()) {
          w.first_violation = std::string("audit violation on ") +
                              to_string(view.block->kind) + " instance " +
                              std::to_string(view.id);
        }
      }
      audit_end = traced ? now_ns() : 0;
    }
    if (linearize && view.block->kind == InstanceKind::kOneShotWrn) {
      ++w.linearized;
    }
    if (!traced) {
      return;
    }
    const std::int64_t end = now_ns();
    ++w.callbacks;
    w.callback_ns += end - entry;
    w.audit_ns += audit_end - audit_start;
    if (w.callbacks % kCpuSampleEvery == 1) {
      const std::int64_t cpu = thread_cpu_ns();
      if (w.cpu_first_ns < 0) {
        w.cpu_first_ns = cpu;
        w.wall_first_ns = end;
      }
      w.cpu_last_ns = cpu;
      w.wall_last_ns = end;
    }
    if (sampled) {
      w.tracer.end_at(end);
      w.tracer.end_at(end);
    }
  }

  /// Output checks after stop(): every fresh, promptly submitted request
  /// that reached quorum decided, no audit violation, no hung op, every
  /// table drained.
  void check(Report& report) {
    const WorkerSide& w = worker_;
    for (const Slot& slot : ledger_) {
      settle(slot);
    }
    report.attempted = fresh_;
    report.fail(std::to_string(undecided_prompt_) +
                    " fresh requests reached quorum but never decided",
                undecided_prompt_);
    report.fail(std::to_string(w.decided_fresh_no_quorum) +
                    " fresh requests decided without quorum",
                w.decided_fresh_no_quorum);
    report.fail(w.first_violation + " (" +
                    std::to_string(w.audit_violations) + " in total)",
                w.audit_violations);
    report.fail(std::to_string(id_mismatches_) +
                    " opens returned an unexpected id",
                id_mismatches_);
    report.fail(std::to_string(w.ledger_misses) +
                    " decisions outran the ledger",
                w.ledger_misses);
    for (const ShardStats& st : svc_->stats()) {
      report.fail("shard " + std::to_string(st.shard) + ": " +
                      std::to_string(st.hung_ops) + " hung ops",
                  st.hung_ops);
      if (st.live_at_exit != 0) {
        report.correct = false;
        report.errors.push_back("shard " + std::to_string(st.shard) + ": " +
                                std::to_string(st.live_at_exit) +
                                " instances live at exit");
      }
    }
    report.notes.push_back(
        "requests " + std::to_string(sent_) + " (fresh " +
        std::to_string(fresh_) + ", reaching quorum " +
        std::to_string(fresh_quorum_) + ", of them " +
        std::to_string(stalled_quorum_) + " submitted late and " +
        std::to_string(fresh_quorum_ - w.decided_fresh_quorum) +
        " undecided), decided replays " + std::to_string(w.decided_replays) +
        ", Wing-Gong checked " + std::to_string(w.linearized));
  }

  /// Notes how long the hypervisor kept the worker's and the producer's
  /// CPUs from running during the run: the usual cause of a slow tail.
  void note_steal(Report& report, const std::vector<double>& before,
                  int producer_cpu) const {
    const std::vector<double> after = steal_ms();
    const auto stolen = [&](int cpu) {
      const auto i = static_cast<std::size_t>(cpu);
      return cpu >= 0 && i < before.size() && i < after.size()
                 ? after[i] - before[i]
                 : 0.0;
    };
    const ShardStats& worker = svc_->stats().front();
    const int worker_on = worker.pinned ? worker.cpu : -1;
    char line[160];
    std::snprintf(line, sizeof line,
                  "steal during the run: worker cpu %d %.0f ms, producer cpu "
                  "%d %.0f ms",
                  worker_on, stolen(worker_on), producer_cpu,
                  stolen(producer_cpu));
    report.notes.emplace_back(line);
  }

  void report_layers(Report& report, const IntervalRates* rates,
                     std::int64_t stop_ns, std::int64_t wall_ns) {
    const WorkerSide& w = worker_;
    const std::vector<ShardStats>& stats = svc_->stats();
    ShardStats sum;
    std::vector<std::int64_t> hist;
    for (const ShardStats& st : stats) {
      sum.ticks += st.ticks;
      sum.gc_sweeps += st.gc_sweeps;
      sum.timed_out += st.timed_out;
      sum.dedup_hits += st.dedup_hits;
      sum.orphan_ops += st.orphan_ops;
      sum.skipped_ops += st.skipped_ops;
      sum.blocks_carved += st.blocks_carved;
      sum.block_reuses += st.block_reuses;
      sum.peak_live = std::max(sum.peak_live, st.peak_live);
      sum.inbox_peak = std::max(sum.inbox_peak, st.inbox_peak);
      hist.resize(std::max(hist.size(), st.latency_hist.size()), 0);
      for (std::size_t i = 0; i < st.latency_hist.size(); ++i) {
        hist[i] += st.latency_hist[i];
      }
    }
    const auto count = [](std::int64_t v) { return static_cast<double>(v); };
    const auto per = [](double total, std::int64_t n) {
      return n == 0 ? 0.0 : total / static_cast<double>(n);
    };
    report.layer("service.open_ns_p50", open_ns_.percentile(0.5), "ns",
                 open_ns_.count());
    report.layer("service.open_ns_p99", open_ns_.percentile(0.99), "ns",
                 open_ns_.count());
    report.layer("service.submit_ns_p50", submit_ns_.percentile(0.5), "ns",
                 submit_ns_.count());
    report.layer("service.submit_ns_p99", submit_ns_.percentile(0.99), "ns",
                 submit_ns_.count());
    report.layer("service.worker_busy_share",
                 w.wall_last_ns > w.wall_first_ns
                     ? count(w.cpu_last_ns - w.cpu_first_ns) /
                           count(w.wall_last_ns - w.wall_first_ns)
                     : 0.0,
                 "ratio", w.callbacks / kCpuSampleEvery);
    report.layer("service.callback_us", per(count(w.callback_ns) / 1e3,
                                            w.callbacks),
                 "us", w.callbacks);
    report.layer("checking.audit_us", per(count(w.audit_ns) / 1e3, w.callbacks),
                 "us", w.callbacks);
    report.layer("service.ticks", count(sum.ticks), "count");
    report.layer("service.tick_us", per(count(wall_ns) / 1e3, sum.ticks), "us",
                 sum.ticks);
    report.layer("service.latency_ticks_p50", hist_percentile(hist, 0.5),
                 "ticks");
    report.layer("service.latency_ticks_p99", hist_percentile(hist, 0.99),
                 "ticks");
    report.layer("service.inbox_peak", count(static_cast<std::int64_t>(
                                           sum.inbox_peak)),
                 "count");
    report.layer("service.peak_live", count(sum.peak_live), "count");
    report.layer("service.gc_sweeps", count(sum.gc_sweeps), "count");
    report.layer("service.timed_out", count(sum.timed_out), "count");
    report.layer("service.dedup_hits", count(sum.dedup_hits), "count");
    report.layer("service.orphan_ops", count(sum.orphan_ops), "count");
    report.layer("service.skipped_ops", count(sum.skipped_ops), "count");
    report.layer("instance.blocks_carved", count(sum.blocks_carved), "count");
    report.layer("instance.block_reuses", count(sum.block_reuses), "count");
    report.layer("service.memo_slots",
                 count(static_cast<std::int64_t>(svc_->memo().slot_count())),
                 "count");
    report.layer("service.stop_ms", count(stop_ns) / 1e6, "ms");
    report.layer("load.lag_us_p99", lag_us_.percentile(0.99), "us",
                 lag_us_.count());

    // Overhead: paced compares latency, flood compares throughput.
    double overhead = 0.0;
    if (paced_) {
      const double plain = w.latency_ms[0].percentile(0.5);
      overhead = plain > 0 ? (w.latency_ms[1].percentile(0.5) / plain - 1.0) *
                                 100.0
                           : 0.0;
    } else {
      const double traced = rates[1].percentile(0.5);
      overhead = traced > 0 ? (rates[0].percentile(0.5) / traced - 1.0) * 100.0 : 0.0;
    }
    report.layer("tracing.overhead_pct", overhead, "%", w.callbacks);

    // Self times per sampled request: the request span runs from its due
    // time to the end of its decide callback; open and submit run on the
    // producer, the callback and its audit on the worker. What they leave
    // uncovered is the wait in the inbox and for virtual ticks.
    struct Parts {
      std::int64_t request = 0, open = 0, submit = 0, callback = 0, audit = 0;
    };
    std::unordered_map<std::int64_t, Parts> parts;
    for (const Tracer::Record& s : w.tracer.spans()) {
      if (s.end_ns == 0) {
        continue;
      }
      Parts& p = parts[s.op];
      const std::int64_t d = s.end_ns - s.start_ns;
      (s.layer == Layer::kRequest    ? p.request
       : s.layer == Layer::kCallback ? p.callback
                                     : p.audit) += d;
    }
    for (const Tracer::Record& s : producer_tracer_.spans()) {
      const auto it = parts.find(s.op);
      if (it == parts.end() || s.end_ns == 0) {
        continue;  // the request never decided (no quorum)
      }
      (s.layer == Layer::kOpen ? it->second.open : it->second.submit) +=
          s.end_ns - s.start_ns;
    }
    Parts sums;
    std::int64_t n = 0;
    for (const auto& [op, p] : parts) {
      if (p.request == 0) {
        continue;
      }
      ++n;
      sums.request += p.request;
      sums.open += p.open;
      sums.submit += p.submit;
      sums.callback += p.callback;
      sums.audit += p.audit;
    }
    const auto us = [&](std::int64_t ns) { return per(count(ns) / 1e3, n); };
    const double uncovered =
        us(sums.request) - us(sums.open) - us(sums.submit) - us(sums.callback);
    report.layer("trace.op_us", us(sums.request), "us", n);
    report.layer("self.open_us", us(sums.open), "us", n);
    report.layer("self.submit_us", us(sums.submit), "us", n);
    report.layer("self.callback_us", us(sums.callback - sums.audit), "us", n);
    report.layer("self.audit_us", us(sums.audit), "us", n);
    report.layer("self.uncovered_us", uncovered, "us", n);
    char line[256];
    std::snprintf(line, sizeof line,
                  "traced request %.2f us = open %.2f + submit %.2f + "
                  "callback %.2f + audit %.2f + uncovered (waiting) %.2f",
                  us(sums.request), us(sums.open), us(sums.submit),
                  us(sums.callback - sums.audit), us(sums.audit), uncovered);
    report.notes.emplace_back(line);
  }

  bool paced_;
  std::uint64_t seed_;
  RequestStream stream_;
  std::vector<Slot> ledger_;
  WorkerSide worker_;
  /// Decisions so far, for the producer's per-interval rates.
  std::atomic<std::int64_t> decided_{0};
  // Producer side.
  std::uint64_t sent_ = 0;
  std::int64_t fresh_ = 0;
  std::int64_t fresh_quorum_ = 0;
  std::int64_t stalled_quorum_ = 0;
  std::int64_t undecided_prompt_ = 0;
  std::int64_t id_mismatches_ = 0;
  Reservoir open_ns_;
  Reservoir submit_ns_;
  Reservoir lag_us_;
  Tracer producer_tracer_{std::size_t{1} << 18};
  /// Declared last: its worker thread calls back into the members above.
  std::unique_ptr<ShardedService> svc_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_paced(std::uint64_t seed) {
  return std::make_unique<ServiceWorkload>(true, seed);
}

std::unique_ptr<Workload> make_serve_flood(std::uint64_t seed) {
  return std::make_unique<ServiceWorkload>(false, seed);
}

}  // namespace perfbench
