// Small non-cryptographic hashing primitives shared by the checker's
// fingerprint memo, spec `hash(State)` hooks (objects layer), and the
// explorer's stateful-search visited set, plus the lazily zeroed slot
// storage and sizing rule under the visited set and the sharded service's
// decision memo. Kept in the runtime layer so all of them may include it
// without a layering inversion.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "subc/runtime/value.hpp"

namespace subc::detail {

/// splitmix64 finalizer: a cheap, well-distributed 64→64 mixer.
inline constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over bytes, for hashing string memo keys.
inline constexpr std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// --- World-state fingerprinting (stateful exploration) --------------------
//
// Domain-separation salts for the kernel's incremental world fingerprint.
// Each fold event mixes one of these so that, e.g., "proc 2 took a step"
// and "proc 2 observed value 1" cannot alias. Arbitrary odd constants;
// pinned by hashing_test so they cannot drift silently (a drift would
// invalidate nothing semantically but would un-pin serial cut counts).
inline constexpr std::uint64_t kFpProcSalt = 0x1b873593a4093822ULL;
inline constexpr std::uint64_t kFpStepSalt = 0x7feb352d8a91b1d3ULL;
inline constexpr std::uint64_t kFpObserveSalt = 0x85ebca6bc2b2ae35ULL;
inline constexpr std::uint64_t kFpObjectSalt = 0x27d4eb2f165667c5ULL;
inline constexpr std::uint64_t kFpChooseSalt = 0x165667b19e3779f9ULL;
inline constexpr std::uint64_t kFpDecideSalt = 0x9e3779b185ebca87ULL;
inline constexpr std::uint64_t kFpDoneSalt = 0xc2b2ae3d27d4eb4fULL;
inline constexpr std::uint64_t kFpHungSalt = 0xd6e8feb86659fd93ULL;
inline constexpr std::uint64_t kFpCrashSalt = 0xa0761d6478bd642fULL;
/// Recovery fold (crash-and-restart exploration): a recovered process folds
/// `mix64(kFpRecoverSalt ^ incarnation)` so that worlds differing only in
/// how many times a process has restarted can never alias — each restart is
/// a distinct term, keeping stateful cuts sound across the recovery axis.
inline constexpr std::uint64_t kFpRecoverSalt = 0x2545f4914f6cdd1dULL;
inline constexpr std::uint64_t kFpSleepSalt = 0xe7037ed1a0b428dbULL;
inline constexpr std::uint64_t kFpRunSalt = 0x589965cc75374cc3ULL;
/// Instance-domain salt (multi-instance runtime, runtime/instance.hpp):
/// every logical instance folds `mix64(instance_id ^ kFpInstanceSalt)` into
/// its fingerprints, so two instances with identical local histories can
/// never alias in a shared memo or visited set.
inline constexpr std::uint64_t kFpInstanceSalt = 0x8ebc6af09c88c6e3ULL;
/// Request-domain salt (sharded agreement service, runtime/service.hpp):
/// a client-supplied logical-request fingerprint folds through this salt to
/// form its key in the cross-shard decided-request dedup memo, so request
/// keys live in their own domain and can never alias instance domains.
inline constexpr std::uint64_t kFpRequestSalt = 0x4cf5ad432745937fULL;

/// The fingerprint domain of instance `id`: the per-instance term every
/// instance-level fingerprint folds (see InstanceTable::world_fingerprint).
inline constexpr std::uint64_t fp_instance_domain(std::uint64_t id) noexcept {
  return mix64(id ^ kFpInstanceSalt);
}

/// The dedup-memo key of logical request `request_fp` (sharded service):
/// the domain-folded form every shard probes and records, mirroring
/// `fp_instance_domain` for instances.
inline constexpr std::uint64_t fp_request_domain(
    std::uint64_t request_fp) noexcept {
  return mix64(request_fp ^ kFpRequestSalt);
}

/// Value folds for object state hashes. `fp_of` is overloaded per state
/// shape; objects whose state has no overload simply do not report a
/// commit, which poisons the fingerprint for that execution (sound — the
/// explorer then takes no stateful cuts on it).
inline constexpr std::uint64_t fp_of(std::int64_t v) noexcept {
  return mix64(static_cast<std::uint64_t>(v));
}

inline std::uint64_t fp_of(const std::vector<std::int64_t>& vs) noexcept {
  std::uint64_t h = 0x6a09e667f3bcc909ULL;
  for (const std::int64_t v : vs) {
    h = mix64(h ^ static_cast<std::uint64_t>(v));
  }
  return h;
}

// --- Fingerprint-table storage ----------------------------------------------

/// The largest key count a fingerprint table may be sized for (2^40: 16 TiB
/// of VisitedSet slots, far past any host). Above it the sizing rule's
/// arithmetic would overflow and its doubling loop would never end.
inline constexpr std::size_t kMaxTableKeys = std::size_t{1} << 40;

/// Returns `keys` if it is in [1, kMaxTableKeys]; otherwise throws SimError
/// naming `field`, the option the count came from. Options that size a
/// table (`Explorer::Options::stateful_capacity`,
/// `ServiceOptions::dedup_capacity`) are checked through this before
/// anything is built.
inline std::size_t checked_table_keys(std::size_t keys,
                                      std::string_view field) {
  if (keys == 0 || keys > kMaxTableKeys) {
    throw SimError(std::string(field) + " must be in [1, 2^40], got " +
                   std::to_string(keys));
  }
  return keys;
}

/// The sizing rule VisitedSet and DecisionMemo share: the smallest power of
/// two, at least 64, that holds `keys` (checked) keys at most ~70% loaded.
inline constexpr std::size_t table_slots(std::size_t keys) noexcept {
  std::size_t slots = 64;
  while (slots * 7 < keys * 10) {
    slots *= 2;
  }
  return slots;
}

/// Anonymous zero pages of at least `bytes` bytes: mmap'ed with
/// MADV_NOHUGEPAGE where there is mmap, so a page costs resident memory
/// only once touched, on any transparent-huge-page setting; calloc
/// elsewhere. Throws std::bad_alloc on failure. (Plain calloc does not
/// guarantee this on glibc: its mmap threshold rises after a large free,
/// so a later calloc of that size may come from the heap, zero-filled by
/// hand.)
void* map_zero_pages(std::size_t bytes);
/// Releases a map_zero_pages block of `bytes` bytes.
void unmap_zero_pages(void* pages, std::size_t bytes) noexcept;

/// A fixed array of `count` slots that starts all-zero and is backed by
/// map_zero_pages: building one costs no fill, and its resident size
/// follows the slots touched, not `count`. The storage under VisitedSet
/// and DecisionMemo, whose empty slot is the all-zero one.
template <typename Slot>
class SlotStorage {
  static_assert(std::is_trivially_copyable_v<Slot> &&
                    std::is_trivially_default_constructible_v<Slot>,
                "a slot must be valid as all-zero bytes");

 public:
  explicit SlotStorage(std::size_t count)
      : slots_(static_cast<Slot*>(map_zero_pages(count * sizeof(Slot)))),
        count_(count) {}
  ~SlotStorage() { unmap_zero_pages(slots_, count_ * sizeof(Slot)); }

  SlotStorage(const SlotStorage&) = delete;
  SlotStorage& operator=(const SlotStorage&) = delete;

  Slot& operator[](std::size_t i) noexcept { return slots_[i]; }
  const Slot& operator[](std::size_t i) const noexcept { return slots_[i]; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

 private:
  Slot* slots_;
  std::size_t count_;
};

/// Fixed-capacity concurrent open-addressing set of 64-bit fingerprints —
/// the explorer's visited-(state, sleep-set) cache. The single-threaded
/// `FingerprintSet` in checking/linearizability.hpp is the shape model
/// (0-sentinel empty slots, 0 remapped to 1, linear probing); this variant
/// trades growth for lock-freedom: slots are plain words updated through
/// `std::atomic_ref`, insertion is a CAS race whose loser re-reads the
/// slot, and when the table reaches its load limit further probes report
/// "not seen" without inserting. That saturation rule is sound — the
/// explorer just stops taking cuts — and keeps the memory bound the
/// `stateful_capacity` knob promises. The slots live in SlotStorage, so a
/// search pays resident memory for the distinct states it records, not for
/// `capacity`.
class VisitedSet {
 public:
  /// `capacity` = maximum number of distinct keys the set will hold, in
  /// [1, kMaxTableKeys]; slots are sized by `table_slots`.
  explicit VisitedSet(std::size_t capacity)
      : slots_(table_slots(
            checked_table_keys(capacity, "VisitedSet capacity"))),
        max_size_(slots_.size() * 7 / 10) {}

  /// Returns true iff `key` was already present ("seen — cut here").
  /// Otherwise tries to insert it and returns false; when the table is
  /// saturated the key is dropped (still returns false: never seen).
  /// Exactly one caller wins a concurrent insert race for the same key,
  /// so two executions probing the same state cannot both cut on it.
  bool check_and_insert(std::uint64_t key) noexcept {
    key += (key == 0);
    const std::uint64_t mask = slots_.size() - 1;
    for (std::uint64_t i = key & mask;; i = (i + 1) & mask) {
      const std::atomic_ref<std::uint64_t> slot(slots_[i]);
      std::uint64_t cur = slot.load(std::memory_order_relaxed);
      if (cur == key) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      if (cur == 0) {
        if (size_.load(std::memory_order_relaxed) >= max_size_) {
          return false;  // saturated: sound, just no more cuts
        }
        if (slot.compare_exchange_strong(cur, key,
                                         std::memory_order_relaxed)) {
          size_.fetch_add(1, std::memory_order_relaxed);
          return false;
        }
        if (cur == key) {  // lost the race to an identical probe
          hits_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        // Lost to a different key: keep probing from the next slot.
      }
    }
  }

  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(size_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::int64_t hits() const noexcept {
    return static_cast<std::int64_t>(hits_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] bool saturated() const noexcept {
    return size_.load(std::memory_order_relaxed) >= max_size_;
  }

 private:
  SlotStorage<std::uint64_t> slots_;
  std::size_t max_size_ = 0;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> hits_{0};
};

}  // namespace subc::detail
