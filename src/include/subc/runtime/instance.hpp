// The instance layer: many logical agreement instances over one arena.
//
// A `Runtime` is one simulated world — one process set, one schedule, one
// history. Production traffic has the opposite shape: one process serving
// thousands of concurrent *logical instances* (a consensus round, a 1sWRN
// round, a set-consensus decision), each with its own tiny object state,
// its own operation history, and its own lifecycle (open → decided → GC).
// The `InstanceTable` provides that layer. It sits *beside* the Runtime,
// not inside it: both consume the same object cores (`one_shot_wrn_commit`,
// `gac_propose`, `set_consensus_propose` — objects/), which take an
// explicit state-block pointer and a context template parameter, so the
// exact same commit body runs
//   * inside a simulated world (Context / StepContext, exploration), and
//   * against an InstanceTable block (InstanceOpContext, service traffic).
//
// Memory: instance state blocks are carved from the table's `ArenaLease`
// (runtime/arena.hpp) and recycled through a free list on GC — a
// long-running service churning millions of instances reuses a bounded set
// of blocks instead of growing the arena monotonically. A recycled block
// keeps the capacity of everything it grew: its object-state vectors, its
// history's entry list (entries hold their value tuples inline), and the
// service's quorum bookkeeping (proposals, responses). Once the blocks have
// served the shapes a workload uses, opening, serving and reclaiming an
// instance costs no heap allocation. Telemetry lands in `alloc_counters()`
// (`instance_blocks_carved` / `instance_block_reuses`).
//
// Lookup: live ids sit in one open-addressed index (linear probing, deletion
// by backward shift, no tombstones) that maps an id to its block. Its home
// slot comes from the block's fingerprint domain, not from the router's
// `mix64(id)`: the sharded service routes `mix64(id) % shards`, which at a
// power-of-two shard count fixes the low bits of `mix64(id)` within a
// shard, so masking those bits would crowd a shard's ids into 1/shards of
// the home slots.
//
// Fingerprint domains: every instance owns the domain term
// `fp_instance_domain(id) = mix64(id ^ kFpInstanceSalt)` (hashing.hpp).
// Operation effects fold into a per-instance *local* fingerprint (identical
// local histories ⇒ identical local fingerprints — that is what audits
// compare); `world_fingerprint` additionally folds the domain term, so two
// instances with identical local histories can never alias in a shared
// memo or visited set. docs/explorer.md "Multi-instance runtime".
#pragma once

#include <cstdint>
#include <vector>

#include "subc/objects/onk.hpp"
#include "subc/objects/set_consensus_object.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/arena.hpp"
#include "subc/runtime/hashing.hpp"
#include "subc/runtime/history.hpp"
#include "subc/runtime/runtime.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// Identity of one logical instance: 64-bit, dense, assigned by the table
/// in open order, never reused (so a stale id reliably misses).
using InstanceId = std::uint64_t;

/// Which object core an instance runs.
enum class InstanceKind : std::uint8_t { kOneShotWrn, kGac, kSetConsensus };

[[nodiscard]] const char* to_string(InstanceKind kind) noexcept;

/// Lifecycle phase. GC removes the block entirely, so there is no third
/// phase — a reclaimed id is simply absent from the table.
enum class InstancePhase : std::uint8_t { kOpen, kDecided };

/// One logical instance: object state for every kind (exactly one is live,
/// per `kind` — one block shape keeps the free list homogeneous), a
/// per-instance history segment, the fingerprint accumulators, and the
/// quorum bookkeeping a sharded-service worker keeps per instance. Every
/// field is reset when the table opens an instance on the block; vectors are
/// cleared, not freed, so a recycled block reuses their capacity.
struct InstanceBlock {
  InstanceId id = 0;
  InstanceKind kind = InstanceKind::kOneShotWrn;
  InstancePhase phase = InstancePhase::kOpen;

  /// Domain term: fp_instance_domain(id).
  std::uint64_t fp_domain = 0;
  /// Running fold of operation effects (observe/commit reports), domain-free.
  std::uint64_t fp_local = 0;

  /// Per-instance history segment: ops recorded exactly as the matching
  /// sequential spec encodes them (1sWRN: op = {index, value}, response =
  /// {returned}), so a decided instance's segment feeds straight into the
  /// linearizability checker.
  History history;

  /// Object identity for `commit_fp` reports made through this block.
  ObjectId oid;

  OneShotWrnState wrn;
  GacState gac;
  SetConsensusState setc;

  std::int64_t opened_at = 0;
  std::int64_t decided_at = -1;

  /// Quorum bookkeeping (runtime/service.hpp). The table resets these on
  /// open and never reads them; the service's worker fills them in. The
  /// decided flag is `phase` and the opened tick is `opened_at`.
  unsigned total_weight = 0;   ///< weight quorum is judged against
  unsigned served_weight = 0;  ///< weight of the ops served so far
  int spec_k = 0;              ///< agreement bound the opener declared
  std::uint64_t request_fp = 0;  ///< logical-request fingerprint; 0 = none
  std::vector<Value> proposals;  ///< every value submitted, in drain order
  std::vector<Value> responses;  ///< every response served, in apply order

  /// `fp_local` folded with the domain term (InstanceTable::world_fingerprint).
  [[nodiscard]] std::uint64_t world_fingerprint() const noexcept {
    return detail::mix64(fp_domain ^ fp_local);
  }
};

/// Minimal context for driving the object cores against an InstanceBlock
/// outside any simulated world. Exposes the same surface the cores consume
/// from `Context`/`StepContext` (fingerprinting / observe_fp / commit_fp /
/// choose / hang / decide / pid), with service semantics:
///  * fingerprint reports fold into the block's local fingerprint,
///  * `choose` resolves nondeterminism from a splitmix64 stream seeded per
///    operation (deterministic given the seed),
///  * `hang` records the flag and returns — the service turns an illegal
///    invocation into a structured per-op outcome instead of a stuck fiber.
class InstanceOpContext {
 public:
  InstanceOpContext(InstanceBlock* block, std::uint64_t choice_seed,
                    int pid) noexcept
      : block_(block), rng_(choice_seed), pid_(pid) {}

  [[nodiscard]] int pid() const noexcept { return pid_; }
  [[nodiscard]] bool fingerprinting() const noexcept { return true; }

  void observe_fp(std::uint64_t v) noexcept {
    block_->fp_local =
        detail::mix64(block_->fp_local ^ detail::kFpObserveSalt ^ v);
  }
  void commit_fp(const ObjectId& /*obj*/, std::uint64_t state_hash) noexcept {
    block_->fp_local =
        detail::mix64(block_->fp_local ^ detail::kFpObjectSalt ^ state_hash);
  }

  std::uint32_t choose(std::uint32_t arity) {
    if (arity == 0) {
      throw SimError("choose(0) has no options");
    }
    rng_ = detail::mix64(rng_);
    return static_cast<std::uint32_t>(rng_ % arity);
  }

  void hang() noexcept { hung_ = true; }
  [[nodiscard]] bool hung() const noexcept { return hung_; }

  void decide(Value v) noexcept { decided_ = v; }
  [[nodiscard]] Value decided() const noexcept { return decided_; }

 private:
  InstanceBlock* block_;
  std::uint64_t rng_;
  int pid_;
  bool hung_ = false;
  Value decided_ = kBottom;
};

/// The table of live instances: open/apply/decide/GC lifecycle over
/// arena-carved, free-list-recycled blocks. Not thread-safe — one table per
/// service shard (the sharding story runs one table per worker, exactly
/// like one Runtime per explorer worker today).
class InstanceTable {
 public:
  struct Stats {
    std::int64_t opened = 0;    ///< instances ever opened
    std::int64_t decided = 0;   ///< instances marked decided
    std::int64_t gcd = 0;       ///< instances reclaimed
    std::int64_t live = 0;      ///< currently in the table (open or decided)
    std::int64_t peak_live = 0;
    std::int64_t blocks_carved = 0;  ///< fresh arena carves
    std::int64_t block_reuses = 0;   ///< opens served from the free list
    std::int64_t ops = 0;            ///< core applications through `apply`
  };

  InstanceTable() = default;
  ~InstanceTable();

  InstanceTable(const InstanceTable&) = delete;
  InstanceTable& operator=(const InstanceTable&) = delete;

  /// Throws SimError when (kind, a, b) is not a valid instance shape. The
  /// sharded service calls this client-side so a malformed open request
  /// fails at the submitting thread, never inside a shard worker.
  static void validate_open(InstanceKind kind, int a, int b);

  /// Opens a fresh instance of `kind` at virtual time `now`.
  /// Parameter meaning per kind:
  ///   kOneShotWrn:   a = k (slot count), b ignored
  ///   kGac:          a = n, b = i (level)
  ///   kSetConsensus: a = n, b = k
  InstanceId open(InstanceKind kind, int a, int b = 0, std::int64_t now = 0);

  /// As `open`, but under a caller-assigned id. The sharded service assigns
  /// ids from one process-wide counter so `mix64(id)` routing is stable and
  /// fingerprint domains never alias across shard tables; each table then
  /// hosts a sparse slice of the id space. Throws when `id` is 0 or already
  /// live in this table. Mixing with auto-id `open` stays safe: the
  /// auto-assign cursor is bumped past every assigned id.
  InstanceId open_assigned(InstanceId id, InstanceKind kind, int a, int b = 0,
                           std::int64_t now = 0);

  /// As `open_assigned`, returning the freshly reset block, so a caller
  /// that fills in the block's quorum fields needs no lookup.
  InstanceBlock& open_block(InstanceId id, InstanceKind kind, int a, int b,
                            std::int64_t now);

  /// Looks an instance up; nullptr when absent (never opened, or GC'd).
  /// One probe of the id index.
  [[nodiscard]] InstanceBlock* find(InstanceId id) noexcept;
  [[nodiscard]] const InstanceBlock* find(InstanceId id) const noexcept;

  /// As `find`, but throws SimError naming the id when absent.
  InstanceBlock& at(InstanceId id);

  /// Applies one operation through the instance's object core, recording it
  /// in the per-instance history segment and folding its effects into the
  /// local fingerprint. `slot` is the 1sWRN index (ignored by the other
  /// kinds); `choice_seed` feeds the core's `choose` stream. Returns the
  /// operation's response, or ⊥ with `*hung = true` when the core hung
  /// (capacity exceeded / index reuse) — the history records no response
  /// for a hung op, mirroring a forever-pending invocation. An op whose
  /// parameters the core refuses (a 1sWRN slot outside [0, k), a ⊥ value)
  /// throws SimError before the history records anything. The id form
  /// throws on an absent id; the block form takes a live block of this
  /// table and does no lookup.
  Value apply(InstanceId id, int pid, int slot, Value v,
              std::uint64_t choice_seed, bool* hung);
  Value apply(InstanceBlock& block, int pid, int slot, Value v,
              std::uint64_t choice_seed, bool* hung);

  /// Marks an instance decided at virtual time `now` (idempotent; the id
  /// form throws on an absent id). The block stays in the table —
  /// auditable — until GC.
  void decide(InstanceId id, std::int64_t now);
  void decide(InstanceBlock& block, std::int64_t now);

  /// Reclaims one instance: clears its history, returns the block to the
  /// free list. Decided or not — a service also GCs timed-out instances
  /// that never reached quorum. Returns false when the id is absent.
  bool gc(InstanceId id);

  /// Reclaims every decided instance with decided_at <= `decided_before`;
  /// returns how many were reclaimed. One sweep of the id index.
  std::size_t gc_decided(std::int64_t decided_before);

  /// Local fingerprint: the fold of the instance's operation effects.
  /// Identical op sequences ⇒ identical local fingerprints.
  [[nodiscard]] std::uint64_t local_fingerprint(InstanceId id);

  /// World fingerprint: the local fingerprint folded with the instance's
  /// domain term. Never aliases across instances, even for identical local
  /// histories (tests/instance_table_test.cpp pins this).
  [[nodiscard]] std::uint64_t world_fingerprint(InstanceId id);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// One slot of the id index: a live id and its block, or empty (id 0 —
  /// never a live id).
  struct IndexSlot {
    InstanceId id = 0;
    InstanceBlock* block = nullptr;
  };

  InstanceBlock* acquire_block();
  /// The slot holding `id`, or the empty slot that ends its probe run.
  [[nodiscard]] std::size_t probe(InstanceId id) const noexcept;
  /// Doubles the index and re-inserts every live id.
  void grow_index();
  /// Empties index slot `hole` by shifting the rest of its probe run back,
  /// recycles its block, and counts the reclaim.
  void release(std::size_t hole);

  ArenaLease arena_;
  /// Open-addressed id → block index: a power of two of slots, at most half
  /// full, home slot `fp_domain & (size - 1)`.
  std::vector<IndexSlot> index_ = std::vector<IndexSlot>(16);
  std::vector<InstanceBlock*> free_;
  /// Every block ever carved (for destructor runs at teardown — the arena
  /// does not destruct what it hands out).
  std::vector<InstanceBlock*> carved_;
  InstanceId next_id_ = 1;
  Stats stats_;
};

}  // namespace subc
