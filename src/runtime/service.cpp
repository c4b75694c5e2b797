#include "subc/runtime/service.hpp"

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "subc/runtime/bounded_queue.hpp"

namespace subc {

std::vector<int> usable_cpus(bool* probe_ok) {
  if (probe_ok != nullptr) {
    *probe_ok = false;
  }
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        out.push_back(cpu);
      }
    }
  }
  if (!out.empty()) {
    if (probe_ok != nullptr) {
      *probe_ok = true;
    }
    return out;
  }
  // The probe itself failed (or yielded an empty mask — equally unusable):
  // fall back to every hardware thread rather than disabling pinning. A
  // fallback core the process may not run on just makes that shard's
  // pthread_setaffinity_np fail, which already degrades to unpinned per
  // shard.
  const unsigned hw = std::thread::hardware_concurrency();
  for (unsigned cpu = 0; cpu < hw; ++cpu) {
    out.push_back(static_cast<int>(cpu));
  }
  return out;
#else
  return {};
#endif
}

// --- DecisionMemo ---------------------------------------------------------

DecisionMemo::DecisionMemo(std::size_t window)
    : partition_window_(
          (detail::checked_table_keys(window, "DecisionMemo window") +
           kPartitions - 1) /
          kPartitions),
      gen_slots_(detail::table_slots(partition_window_)),
      slots_(kPartitions * 2 * gen_slots_) {}

std::size_t DecisionMemo::probe(std::size_t gen,
                                std::uint64_t key) const noexcept {
  const std::size_t mask = gen_slots_ - 1;
  for (std::size_t i = key & mask;; i = (i + 1) & mask) {
    const std::uint64_t cur = slots_[gen + i].key;
    if (cur == key || cur == 0) {
      return gen + i;
    }
  }
}

std::optional<Value> DecisionMemo::lookup(std::uint64_t key) const {
  key += (key == 0);
  const std::size_t p = partition_of(key);
  Partition& part = parts_[p];
  const std::lock_guard<std::mutex> lock(part.mu);
  for (const int gen : {part.current, 1 - part.current}) {
    const Slot& slot = slots_[probe((2 * p + gen) * gen_slots_, key)];
    if (slot.key == key) {
      return slot.value;
    }
  }
  return std::nullopt;
}

bool DecisionMemo::record(std::uint64_t key, Value decided) {
  key += (key == 0);
  const std::size_t p = partition_of(key);
  Partition& part = parts_[p];
  const std::lock_guard<std::mutex> lock(part.mu);
  const std::size_t older = (2 * p + 1 - part.current) * gen_slots_;
  std::size_t at = probe((2 * p + part.current) * gen_slots_, key);
  if (slots_[at].key == key || slots_[probe(older, key)].key == key) {
    return false;  // held: the first recording stands
  }
  if (part.held[part.current] == partition_window_) {
    // Rotate: the older generation ages out and takes the new keys.
    std::memset(&slots_[older], 0, gen_slots_ * sizeof(Slot));
    part.current = 1 - part.current;
    part.held[part.current] = 0;
    at = probe(older, key);
  }
  slots_[at] = Slot{key, decided};
  ++part.held[part.current];
  return true;
}

std::int64_t DecisionMemo::size() const {
  std::size_t held = 0;
  for (Partition& part : parts_) {
    const std::lock_guard<std::mutex> lock(part.mu);
    held += part.held[0] + part.held[1];
  }
  return static_cast<std::int64_t>(held);
}

// --- ShardedService -------------------------------------------------------

/// One inbox message: a flat union of the open and op shapes (one message
/// type keeps the ring homogeneous, like the explorer's WorkItem).
struct ShardedService::Msg {
  enum class Kind : std::uint8_t { kNone, kOpen, kOp };
  Kind kind = Kind::kNone;
  ServiceId id = 0;
  // kOpen
  InstanceKind ikind = InstanceKind::kOneShotWrn;
  int a = 0;
  int b = 0;
  std::uint64_t request_fp = 0;
  unsigned total_weight = 0;
  int spec_k = 0;
  // kOp
  int validator = 0;
  unsigned weight = 0;
  int slot = 0;
  Value value = kBottom;
  int delay = 1;
};

struct ShardedService::Shard {
  explicit Shard(std::size_t inbox_capacity) : inbox(inbox_capacity) {}

  BoundedQueue<Msg> inbox;
  std::mutex mutex;
  std::condition_variable cv;
  /// Worker is parked on `cv`; producers only take the lock to wake when
  /// this is set (the 200 µs wait backstop bounds any lost wakeup).
  std::atomic<bool> parked{false};
  std::thread worker;
};

namespace {

/// `opts`, once every field has passed validation; runs before any member
/// that depends on the options is built.
const ServiceOptions& validated(const ServiceOptions& opts) {
  if (opts.shards < 1) {
    throw SimError("ServiceOptions::shards must be >= 1");
  }
  if (opts.drain_batch < 1) {
    throw SimError("ServiceOptions::drain_batch must be >= 1");
  }
  if (opts.horizon_ticks < 1 || opts.timeout_ticks < 1 ||
      opts.linger_ticks < 0) {
    throw SimError(
        "ServiceOptions ticks: horizon >= 1, timeout >= 1, linger >= 0");
  }
  if (opts.quorum_num < 1 || opts.quorum_den < 1) {
    throw SimError("ServiceOptions quorum must be a positive fraction");
  }
  detail::checked_table_keys(opts.dedup_capacity,
                             "ServiceOptions::dedup_capacity");
  return opts;
}

}  // namespace

ShardedService::ShardedService(const ServiceOptions& opts,
                               DecidedCallback on_decided)
    : opts_(validated(opts)),
      on_decided_(std::move(on_decided)),
      memo_(opts_.dedup_capacity),
      cpus_(usable_cpus(&cpu_probe_ok_)) {
  stats_.resize(static_cast<std::size_t>(opts_.shards));
  shards_.reserve(static_cast<std::size_t>(opts_.shards));
  for (int s = 0; s < opts_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(opts_.inbox_capacity));
  }
  for (int s = 0; s < opts_.shards; ++s) {
    shards_[static_cast<std::size_t>(s)]->worker =
        std::thread([this, s] { worker_main(s); });
  }
}

ShardedService::~ShardedService() { stop(); }

void ShardedService::enqueue(int shard, Msg&& msg) {
  if (stopping_.load(std::memory_order_acquire)) {
    throw SimError("sharded service: open/submit after stop()");
  }
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  // Producer backpressure, frontier-ring style: a full inbox makes the
  // producer absorb the pressure. Accepted messages are never dropped.
  while (!sh.inbox.try_push(std::move(msg))) {
    if (sh.parked.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lk(sh.mutex);
      sh.cv.notify_one();
    }
    std::this_thread::yield();
  }
  if (sh.parked.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(sh.mutex);
    sh.cv.notify_one();
  }
}

ServiceId ShardedService::open(const OpenSpec& spec) {
  InstanceTable::validate_open(spec.kind, spec.a, spec.b);
  if (spec.total_weight == 0) {
    throw SimError("OpenSpec::total_weight must be > 0");
  }
  const ServiceId id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Msg msg;
  msg.kind = Msg::Kind::kOpen;
  msg.id = id;
  msg.ikind = spec.kind;
  msg.a = spec.a;
  msg.b = spec.b;
  msg.request_fp = spec.request_fp;
  msg.total_weight = spec.total_weight;
  msg.spec_k = spec.spec_k;
  enqueue(shard_of(id), std::move(msg));
  return id;
}

void ShardedService::submit(ServiceId id, const OpSpec& op) {
  Msg msg;
  msg.kind = Msg::Kind::kOp;
  msg.id = id;
  msg.validator = op.validator;
  msg.weight = op.weight;
  msg.slot = op.slot;
  msg.value = op.value;
  msg.delay = op.delay_ticks < 1 ? 1
              : op.delay_ticks > opts_.horizon_ticks ? opts_.horizon_ticks
                                                     : op.delay_ticks;
  enqueue(shard_of(id), std::move(msg));
}

void ShardedService::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    // Someone else is stopping / stopped; wait for the joins to finish.
    while (!stopped_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return;
  }
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mutex);
    sh->cv.notify_all();
  }
  for (auto& sh : shards_) {
    if (sh->worker.joinable()) {
      sh->worker.join();
    }
  }
  stopped_.store(true, std::memory_order_release);
}

const std::vector<ShardStats>& ShardedService::stats() const {
  if (!stopped()) {
    throw SimError("sharded service: stats() before stop()");
  }
  return stats_;
}

namespace {

/// An op waiting in a delay lane. It keeps the id, not the block: a block
/// reclaimed and reopened under a new id before the op's tick misses.
struct PendingOp {
  ServiceId id = 0;
  int validator = 0;
  unsigned weight = 0;
  int slot = 0;
  Value value = kBottom;
};

/// Entries waiting for a virtual tick, in lanes indexed by tick modulo the
/// lane count. The lanes share one node pool: a lane is a FIFO list through
/// the pool, and a drained lane's nodes go to a free list. So the wheel
/// allocates only when more entries wait at once than ever before, however
/// they spread over the lanes (a vector per lane grows until every lane has
/// seen its own peak).
template <typename T>
class DelayWheel {
 public:
  explicit DelayWheel(std::size_t lanes) : lanes_(lanes) {}

  void push(std::size_t lane, const T& item) {
    std::uint32_t n = free_;
    if (n == kNil) {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{item, kNil});
    } else {
      free_ = nodes_[n].next;
      nodes_[n] = Node{item, kNil};
    }
    Lane& l = lanes_[lane];
    if (l.head == kNil) {
      l.head = n;
    } else {
      nodes_[l.tail].next = n;
    }
    l.tail = n;
    ++waiting_;
  }

  /// Calls `f` on each entry of `lane` in push order and frees the lane.
  /// `f` must not push into this wheel.
  template <typename F>
  void drain(std::size_t lane, F&& f) {
    Lane& l = lanes_[lane];
    for (std::uint32_t n = l.head; n != kNil;) {
      f(nodes_[n].item);
      const std::uint32_t next = nodes_[n].next;
      nodes_[n].next = free_;
      free_ = n;
      n = next;
      --waiting_;
    }
    l = Lane{};
  }

  [[nodiscard]] std::size_t waiting() const noexcept { return waiting_; }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  struct Node {
    T item;
    std::uint32_t next;
  };
  struct Lane {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  std::vector<Node> nodes_;
  std::vector<Lane> lanes_;
  std::uint32_t free_ = kNil;
  std::size_t waiting_ = 0;
};

void note_callback_failure(ShardStats& st, const char* what) {
  if (st.callback_failures++ == 0) {
    st.first_callback_error = what;
  }
}

}  // namespace

void ShardedService::worker_main(int shard) {
  ShardStats st;
  st.shard = shard;
  st.affinity_probe_ok = cpu_probe_ok_;
#ifdef __linux__
  if (opts_.pin_workers && !cpus_.empty()) {
    const int cpu =
        cpus_[static_cast<std::size_t>(shard) % cpus_.size()];
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu), &set);
    if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0) {
      st.pinned = true;
      st.cpu = cpu;
    }
  }
#endif

  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  // The table holds every live instance's object state, history and quorum
  // bookkeeping; one probe of its id index finds all three.
  InstanceTable table;
  // Time-ordered lanes over the virtual clock, ring-indexed by tick — the
  // same shape as the pre-sharding soak harness. Every schedule offset
  // (op delay ≤ horizon, deadline = timeout, GC = linger) fits in R.
  const std::size_t ring =
      static_cast<std::size_t>(opts_.horizon_ticks + opts_.timeout_ticks +
                               opts_.linger_ticks + 2);
  DelayWheel<PendingOp> op_lanes(ring);
  DelayWheel<ServiceId> gc_lanes(ring);
  DelayWheel<ServiceId> deadline_lanes(ring);
  st.latency_hist.assign(static_cast<std::size_t>(opts_.timeout_ticks) + 1,
                         0);

  std::int64_t tick = 0;
  const auto lane = [&](std::int64_t at) {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(at) % ring);
  };

  const auto handle = [&](const Msg& msg) {
    if (msg.kind == Msg::Kind::kOpen) {
      ++st.msgs_open;
      if (msg.request_fp != 0) {
        // Cross-shard dedup: a recorded decision for this logical request
        // short-circuits the whole instance.
        if (memo_.lookup(detail::fp_request_domain(msg.request_fp))
                .has_value()) {
          ++st.dedup_hits;
          return;
        }
      }
      InstanceBlock& block =
          table.open_block(msg.id, msg.ikind, msg.a, msg.b, tick);
      ++st.opened;
      block.total_weight = msg.total_weight;
      block.spec_k = msg.spec_k;
      block.request_fp = msg.request_fp;
      deadline_lanes.push(lane(tick + opts_.timeout_ticks), msg.id);
      return;
    }
    ++st.msgs_op;
    InstanceBlock* block = table.find(msg.id);
    if (block == nullptr) {
      ++st.orphan_ops;  // dedup'd open, or instance already reclaimed
      return;
    }
    block->proposals.push_back(msg.value);
    op_lanes.push(
        lane(tick + msg.delay),
        PendingOp{msg.id, msg.validator, msg.weight, msg.slot, msg.value});
  };

  for (;;) {
    const std::size_t occupancy = sh.inbox.approx_size();
    if (occupancy > st.inbox_peak) {
      st.inbox_peak = occupancy;
    }
    int drained = 0;
    Msg msg;
    while (drained < opts_.drain_batch && sh.inbox.try_pop(msg)) {
      handle(msg);
      ++drained;
    }

    if (drained == 0) {
      if (stopping_.load(std::memory_order_acquire)) {
        // Drain-out mode: exit once the inbox is empty and every pending
        // instance has decided+lingered or timed out; tick freely until
        // then — virtual time needs no pacing once admission has stopped.
        if (table.stats().live == 0) {
          if (!sh.inbox.try_pop(msg)) {
            break;
          }
          handle(msg);
        }
      } else {
        // Input-starved while live: park instead of spinning the virtual
        // clock ahead of the producers (on saturated hosts the producers
        // need this core — racing ticks here would time instances out
        // before their ops ever get pushed). A push notifies when parked;
        // the wait backstop bounds any lost wakeup AND paces the clock to
        // at most ~1 tick per 200 µs of silence, so deadlines still fire
        // for instances whose producers went quiet for good.
        {
          std::unique_lock<std::mutex> lk(sh.mutex);
          sh.parked.store(true, std::memory_order_release);
          sh.cv.wait_for(lk, std::chrono::microseconds(200));
          sh.parked.store(false, std::memory_order_release);
        }
        if (table.stats().live == 0) {
          continue;  // nothing to tick until input arrives
        }
      }
    }

    // One virtual tick: apply this tick's ops, then the GC lane, then the
    // deadline lane — the pre-sharding soak order, per shard.
    ++tick;
    ++st.ticks;

    op_lanes.drain(lane(tick), [&](const PendingOp& op) {
      InstanceBlock* block = table.find(op.id);
      if (block == nullptr) {
        ++st.skipped_ops;  // reclaimed between scheduling and arrival
        return;
      }
      bool hung = false;
      Value out = kBottom;
      try {
        out = table.apply(
            *block, op.validator, op.slot, op.value,
            detail::mix64(op.id ^ static_cast<std::uint64_t>(op.validator)),
            &hung);
      } catch (const SimError&) {
        // The core refused the op's parameters (a 1sWRN slot outside
        // [0, k), a ⊥ value): only this worker knows the instance's shape,
        // so it counts the op as one the core refused and keeps serving.
        hung = true;
      }
      ++st.ops;
      if (hung) {
        ++st.hung_ops;
        return;
      }
      block->responses.push_back(out);
      block->served_weight += op.weight;
      if (block->phase == InstancePhase::kDecided ||
          static_cast<std::uint64_t>(block->served_weight) *
                  opts_.quorum_den <
              static_cast<std::uint64_t>(block->total_weight) *
                  opts_.quorum_num) {
        return;
      }
      table.decide(*block, tick);
      ++st.decided;
      const std::int64_t latency = tick - block->opened_at;
      const auto bucket = static_cast<std::size_t>(
          latency < 0 ? 0
          : latency >= static_cast<std::int64_t>(st.latency_hist.size())
              ? st.latency_hist.size() - 1
              : static_cast<std::size_t>(latency));
      ++st.latency_hist[bucket];
      const Value decided_value = block->responses.front();
      if (block->request_fp != 0 &&
          memo_.record(detail::fp_request_domain(block->request_fp),
                       decided_value)) {
        ++st.dedup_records;
      }
      if (on_decided_) {
        DecidedView view;
        view.shard = shard;
        view.id = op.id;
        view.block = block;
        view.proposals = &block->proposals;
        view.responses = &block->responses;
        view.spec_k = block->spec_k;
        view.decided = decided_value;
        view.latency_ticks = latency;
        view.world_fp = block->world_fingerprint();
        // A throwing callback must not end the worker: the instance still
        // lingers and is reclaimed, so stop()'s drain-out ends.
        try {
          on_decided_(view);
        } catch (const std::exception& e) {
          note_callback_failure(st, e.what());
        } catch (...) {
          note_callback_failure(st, "a non-standard exception");
        }
      }
      gc_lanes.push(lane(tick + opts_.linger_ticks), op.id);
    });

    gc_lanes.drain(lane(tick), [&](ServiceId id) {
      if (table.gc(id)) {
        ++st.gc_sweeps;
      }
    });

    deadline_lanes.drain(lane(tick), [&](ServiceId id) {
      const InstanceBlock* block = table.find(id);
      if (block == nullptr || block->phase == InstancePhase::kDecided) {
        return;  // already reclaimed, or decided and waiting out linger
      }
      table.gc(id);
      ++st.gc_sweeps;
      ++st.timed_out;
    });
  }

  // Ops still waiting in a lane belong to instances already reclaimed (the
  // loop exits only with the table empty): a timed-out instance whose late
  // op was scheduled past its deadline. Count them as the tick that would
  // have reached them does.
  st.skipped_ops += static_cast<std::int64_t>(op_lanes.waiting());
  st.peak_live = table.stats().peak_live;
  st.live_at_exit = table.stats().live;
  st.blocks_carved = table.stats().blocks_carved;
  st.block_reuses = table.stats().block_reuses;
  stats_[static_cast<std::size_t>(shard)] = std::move(st);
}

}  // namespace subc
