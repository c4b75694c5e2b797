// The sharded agreement service: one InstanceTable per worker thread.
//
// The instance layer (runtime/instance.hpp) serves thousands of concurrent
// agreement instances from ONE thread — the table is single-threaded by
// design, exactly like one Runtime per explorer worker. `ShardedService`
// scales that out without ever sharing a table: N worker threads, each
// owning one `InstanceTable` over its own `ArenaLease`, fed through
// per-shard MPSC inboxes built on the Vyukov `bounded_queue.hpp` ring. A
// client op routes to shard `mix64(instance_id) % shards`; ids are assigned
// from one process-wide counter at submit time, so routing is a pure
// function of the id and the shard's worker is the only thread that ever
// touches its table or its arena.
//
// Cost per request: the worker keeps each instance's quorum state (served
// weight, proposals, responses) in the instance's own table block, so one
// probe of the table's id index finds an op's instance when the op is
// drained and one more when it is applied; deciding, the callback and GC
// scheduling reuse that block. Blocks, their histories' entry lists and the
// delay lanes keep their capacity, so once a shard has warmed up a request costs
// its worker no heap allocation.
//
// Backpressure mirrors the explorer's frontier ring: `try_push` failing on
// a full inbox makes the *producer* absorb the pressure (spin-yield until a
// slot frees) — an op, once accepted by `open`/`submit`, is never dropped.
//
// Cross-shard dedup: every open may carry a client-supplied logical-request
// fingerprint (`request_fp` — e.g. a hash of the request's origin and
// sequence number). When an instance decides, its shard records
// (fp_request_domain(request_fp) → decided value) in a shared
// `DecisionMemo`, a window over the most recent `dedup_capacity` decisions
// split into 64 locked partitions of two rotating generations each. A
// replayed request — routed to ANY shard, since a replay gets a fresh id —
// probes the memo first and short-circuits to the recorded decision instead
// of re-running agreement. Soundness: the memo is an at-most-once *record*
// of a decision, never a requirement — a lookup miss (never recorded, or
// aged out of the window) just runs agreement again, and the partition
// lock lets exactly one recording of a held key win, so while a key is
// held every replay that hits observes the one recorded decision. The
// memo's memory is fixed by `dedup_capacity` (4 MiB at the default) at any
// run length, and dedup works for as long as the service runs.
//
// Placement: workers are pinned to distinct usable cores
// (`pthread_setaffinity_np`, topology probed from the process affinity
// mask at startup; `ServiceOptions::pin_workers = false` opts out; non-
// Linux builds degrade to unpinned). docs/explorer.md "Sharded agreement
// service".
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "subc/runtime/hashing.hpp"
#include "subc/runtime/instance.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// Service-level instance identity: globally unique across all shards
/// (one process-wide counter), assigned at submit time so the client knows
/// the route before the worker sees the message. Never 0, never reused.
using ServiceId = InstanceId;

/// CPUs this process may run on (the sched_getaffinity mask, in index
/// order). Shard worker i pins to `usable_cpus()[i % size]`. Degrades
/// gracefully: when `sched_getaffinity` itself fails (or yields an empty
/// mask), falls back to all hardware threads `0..N-1` instead of disabling
/// pinning outright, and reports the degradation through `probe_ok` (set
/// false; true on a clean probe). Empty result only on non-Linux builds
/// (where `probe_ok` is also false — there is no probe).
[[nodiscard]] std::vector<int> usable_cpus(bool* probe_ok = nullptr);

/// The window of recent decided requests: 64-bit request-domain key →
/// recorded decision, holding about the last `window` recorded decisions in
/// fixed memory. Keys split over `kPartitions` partitions by their top
/// bits; each partition holds two generations of open-addressed `{key,
/// value}` slots (0-sentinel empty keys, 0 remapped to 1, linear probing)
/// under one lock. New keys go to the current generation; once it holds
/// `partition_window()` records, the next record clears the older
/// generation and makes it current. So a key stays for at least the next
/// `partition_window()` records of its partition, and for fewer than twice
/// that.
/// Under the partition lock exactly one recorder wins per key while the key
/// is held, and no rotation races a record or a lookup. A miss (never
/// recorded, or aged out) is sound: the caller just runs agreement itself.
/// The slots are lazily zeroed (SlotStorage), so the memo costs resident
/// memory only for the generations it has filled.
class DecisionMemo {
 public:
  static constexpr int kPartitionBits = 6;
  static constexpr std::size_t kPartitions = std::size_t{1} << kPartitionBits;

  /// `window` = recent decisions to keep, in [1, kMaxTableKeys]; each
  /// partition keeps ceil(window / kPartitions) per generation, in
  /// `table_slots` of that count.
  explicit DecisionMemo(std::size_t window);

  DecisionMemo(const DecisionMemo&) = delete;
  DecisionMemo& operator=(const DecisionMemo&) = delete;

  /// The recorded decision for `key`, or nullopt when unknown (never
  /// recorded, or aged out of the window).
  [[nodiscard]] std::optional<Value> lookup(std::uint64_t key) const;

  /// Records `decided` for `key`. Returns true iff this call recorded it;
  /// false when the key is already held (recorded by any caller and not yet
  /// aged out).
  bool record(std::uint64_t key, Value decided);

  /// Keys held now, over both generations of every partition: at most
  /// 2 × kPartitions × partition_window().
  [[nodiscard]] std::int64_t size() const;
  /// Records a generation takes before its partition rotates.
  [[nodiscard]] std::size_t partition_window() const noexcept {
    return partition_window_;
  }
  /// Total slots over every partition and generation (fixed).
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }
  /// The partition `key` belongs to: its top bits.
  [[nodiscard]] static std::size_t partition_of(std::uint64_t key) noexcept {
    key += (key == 0);
    return static_cast<std::size_t>(key >> (64 - kPartitionBits));
  }

 private:
  struct Slot {
    std::uint64_t key;
    Value value;
  };
  struct alignas(64) Partition {
    std::mutex mu;
    int current = 0;               ///< the generation new keys go to
    std::size_t held[2] = {0, 0};  ///< keys in each generation
  };

  /// Index of the slot holding `key` in the generation starting at slot
  /// `gen`, or of the empty slot it would take. Caller holds the lock.
  [[nodiscard]] std::size_t probe(std::size_t gen,
                                  std::uint64_t key) const noexcept;

  std::size_t partition_window_;
  std::size_t gen_slots_;  ///< slots per generation (a power of two)
  /// Partition p's generation g starts at slot (2p + g) × gen_slots_.
  detail::SlotStorage<Slot> slots_;
  mutable std::array<Partition, kPartitions> parts_;
};

struct ServiceOptions {
  /// Worker threads — one InstanceTable each.
  int shards = 1;
  /// Per-shard inbox ring capacity (rounded up to a power of two).
  std::size_t inbox_capacity = 8192;
  /// Max inbox messages a worker absorbs per virtual tick. This is the
  /// admission throttle: it bounds how many instances can go live per tick,
  /// which bounds each shard's live set regardless of producer speed.
  int drain_batch = 512;
  /// Pin shard workers to distinct usable cores (opt-out flag). Pin
  /// failures degrade to unpinned, recorded per shard in `ShardStats`.
  bool pin_workers = true;
  /// Quorum rule: an instance decides once the served participant weight
  /// reaches `total_weight * quorum_num / quorum_den`.
  unsigned quorum_num = 2;
  unsigned quorum_den = 3;
  /// Max op arrival delay in virtual ticks (the jitter window).
  int horizon_ticks = 25;
  /// Undecided past this many ticks after open → timed out, reclaimed.
  int timeout_ticks = 40;
  /// Decided instances stay in the table (auditable) this many ticks.
  int linger_ticks = 5;
  /// Dedup window: the shared cross-shard `DecisionMemo` keeps about this
  /// many of the most recent recorded decisions, in [1, 2^40]. Each key
  /// stays for at least the next `dedup_capacity / 64` (rounded up)
  /// decisions recorded in its partition of 64; a replay older than that
  /// misses and runs agreement again. The memo's memory is fixed by this
  /// knob alone, about 64 bytes per decision of window (4 MiB at the
  /// default), however long the service runs.
  std::size_t dedup_capacity = std::size_t{1} << 16;
};

/// What a shard worker hands the decide callback — pointers are worker-
/// owned and valid only for the duration of the callback.
struct DecidedView {
  int shard = 0;
  ServiceId id = 0;
  /// The decided instance: kind, object state, per-instance history segment
  /// (feeds the linearizability checker directly).
  const InstanceBlock* block = nullptr;
  /// Every value submitted for this instance / every response served.
  const std::vector<Value>* proposals = nullptr;
  const std::vector<Value>* responses = nullptr;
  /// The agreement bound the opener declared (audit: ≤ spec_k distinct).
  int spec_k = 0;
  /// The recorded decision (first response served).
  Value decided = kBottom;
  std::int64_t latency_ticks = 0;
  /// The instance's world fingerprint at decision (domain-folded — never
  /// aliases across instances or shards).
  std::uint64_t world_fp = 0;
};

/// Per-shard telemetry, snapshotted by the worker as it exits; read via
/// `stats()` after `stop()`.
struct ShardStats {
  int shard = 0;
  bool pinned = false;
  int cpu = -1;  ///< core the worker pinned to (-1 when unpinned)
  /// False when the startup topology probe (`usable_cpus`) degraded to the
  /// all-cpus fallback — pinning then targets cores the process may not be
  /// allowed on (failures still degrade per shard via `pinned`).
  bool affinity_probe_ok = false;
  std::int64_t ticks = 0;
  std::int64_t msgs_open = 0;  ///< open messages drained
  std::int64_t msgs_op = 0;    ///< op messages drained
  std::int64_t opened = 0;     ///< instances opened (msgs_open − dedup hits)
  std::int64_t ops = 0;        ///< operations applied through the table
  /// Ops whose instance this shard never opened (dedup'd open) or had
  /// already reclaimed when the op message arrived.
  std::int64_t orphan_ops = 0;
  /// Scheduled ops whose instance was reclaimed before their arrival tick.
  std::int64_t skipped_ops = 0;
  std::int64_t hung_ops = 0;  ///< ops the object core refused (illegal)
  std::int64_t decided = 0;
  std::int64_t timed_out = 0;
  std::int64_t dedup_hits = 0;     ///< opens short-circuited by the memo
  std::int64_t dedup_records = 0;  ///< decisions this shard recorded
  std::int64_t gc_sweeps = 0;      ///< instances reclaimed (either lane)
  std::int64_t peak_live = 0;
  std::int64_t live_at_exit = 0;
  std::int64_t blocks_carved = 0;
  std::int64_t block_reuses = 0;
  std::size_t inbox_peak = 0;  ///< max sampled inbox occupancy
  /// Decision-latency histogram: index = latency in ticks (clamped to the
  /// timeout), value = decisions. Percentiles merge across shards exactly.
  std::vector<std::int64_t> latency_hist;
  /// Decide callbacks that threw. The worker catches the exception and goes
  /// on; the instance lingers and is reclaimed as usual.
  std::int64_t callback_failures = 0;
  /// `what()` of the first callback exception (empty when none threw).
  std::string first_callback_error;
};

/// What an open request declares about its instance.
struct OpenSpec {
  InstanceKind kind = InstanceKind::kOneShotWrn;
  int a = 0;  ///< per-kind meaning, see InstanceTable::open
  int b = 0;
  /// Logical-request fingerprint for cross-shard dedup; 0 = no dedup.
  std::uint64_t request_fp = 0;
  /// Full participant weight quorum is judged against (> 0).
  unsigned total_weight = 0;
  /// Agreement bound for audits (k for 1sWRN/set-consensus, i+1 for GAC).
  int spec_k = 0;
};

/// One client operation against an open instance.
struct OpSpec {
  int validator = 0;    ///< submitting participant (history pid)
  unsigned weight = 0;  ///< its quorum weight
  int slot = 0;         ///< 1sWRN index; ignored by the other kinds
  Value value = kBottom;
  /// Virtual-tick arrival delay, clamped to [1, horizon_ticks].
  int delay_ticks = 1;
};

class ShardedService {
 public:
  /// Called by the deciding shard's worker thread, instance still live. An
  /// exception it throws is caught and counted in the shard's stats
  /// (`callback_failures`), never rethrown.
  using DecidedCallback = std::function<void(const DecidedView&)>;

  explicit ShardedService(const ServiceOptions& opts,
                          DecidedCallback on_decided = {});
  ~ShardedService();  // stops (drains and joins) if still running

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// The routing rule: `mix64(id) % shards`, a pure function of the id.
  [[nodiscard]] static int shard_of(ServiceId id, int shards) noexcept {
    return static_cast<int>(detail::mix64(id) %
                            static_cast<std::uint64_t>(shards));
  }
  [[nodiscard]] int shard_of(ServiceId id) const noexcept {
    return shard_of(id, opts_.shards);
  }

  /// Admits a new instance: assigns its globally-unique id, validates the
  /// shape client-side, and enqueues the open on its shard. Thread-safe.
  /// Throws SimError on a bad shape, zero total_weight, or after stop().
  ServiceId open(const OpenSpec& spec);

  /// Enqueues one operation on `id`'s shard. Thread-safe. Throws after
  /// stop(). Ops for ids the shard does not know (dedup'd or already
  /// reclaimed) are counted as orphans and dropped by the worker.
  void submit(ServiceId id, const OpSpec& op);

  /// Stops admission, lets every worker drain its inbox and tick its table
  /// to quiescence (all instances decided+lingered or timed out, hence
  /// GC'd), then joins. Callers must stop producing first: open/submit
  /// concurrent with stop() throw. Idempotent.
  void stop();
  [[nodiscard]] bool stopped() const noexcept {
    return stopped_.load(std::memory_order_acquire);
  }

  /// Per-shard telemetry; valid after stop() (throws before).
  [[nodiscard]] const std::vector<ShardStats>& stats() const;

  [[nodiscard]] const DecisionMemo& memo() const noexcept { return memo_; }
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return opts_;
  }

 private:
  struct Shard;
  struct Msg;

  void enqueue(int shard, Msg&& msg);
  void worker_main(int shard);

  ServiceOptions opts_;
  DecidedCallback on_decided_;
  DecisionMemo memo_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// sched_getaffinity probe outcome. Declared before `cpus_`, whose
  /// initializer writes it: declared after, its own `= false` would run
  /// later and overwrite the outcome.
  bool cpu_probe_ok_ = false;
  std::vector<int> cpus_;  ///< topology probe result at startup
  std::atomic<ServiceId> next_id_{1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::vector<ShardStats> stats_;
};

}  // namespace subc
