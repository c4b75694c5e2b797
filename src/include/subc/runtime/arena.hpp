// Monotonic arena allocation for the execution core.
//
// The exhaustive explorer builds and tears down a complete world (Runtime,
// processes, fibers) per execution — millions of times per search. Going to
// the global allocator for every Proc and every bookkeeping array is the
// dominant cost once context switches are cheap. A `MonotonicArena` is a
// chunked bump allocator: allocation is a pointer increment, `reset()`
// rewinds without releasing memory, and a thread-local pool (`ArenaLease`)
// recycles arenas across executions so steady-state world construction does
// not touch malloc at all.
//
// Objects placed in an arena are NOT destructed by it — the owner runs any
// non-trivial destructors before reset()/release (Runtime does this for its
// Procs).
//
// `alloc_counters()` exposes process-wide allocation telemetry (arena
// chunk growth, arena leases, fiber-stack pool traffic) that benches stamp
// into BENCH_<ID>.json, making hot-path allocation regressions visible
// across PRs. Each thread counts into cells of its own, which only it
// writes (a relaxed load and store, never a locked read-modify-write on a
// shared line); one registry sums the live threads' cells and keeps the
// totals of threads that have exited.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace subc {

/// Process-wide allocation telemetry: the sum over every thread's counters
/// (exact once concurrent work has quiesced, which is when benches read
/// them; an exited thread's counts stay in the sum).
struct AllocCounters {
  /// Arena chunks obtained from the global allocator (capacity growth).
  std::uint64_t arena_chunks = 0;
  /// Bytes handed out by arenas (requested, not padded).
  std::uint64_t arena_bytes = 0;
  /// Arena leases served from the thread-local pool (reuse hits).
  std::uint64_t arena_reuses = 0;
  /// Fiber stacks served from the thread-local stack pool (reuse hits).
  std::uint64_t fiber_stack_reuses = 0;
  /// Fiber stacks that had to be allocated fresh.
  std::uint64_t fiber_stack_allocs = 0;
  /// Stepped-engine state blocks carved from world arenas (runtime.hpp
  /// `add_stepped`).
  std::uint64_t stepped_blocks_carved = 0;
  /// Carves served from already-warm arena storage (no chunk growth) —
  /// the allocation-free steady state.
  std::uint64_t stepped_block_reuses = 0;
  /// Bytes of stepped state carved (requested, not padded).
  std::uint64_t stepped_block_bytes = 0;
  /// Instance state blocks carved fresh from an InstanceTable's arena
  /// (runtime/instance.hpp).
  std::uint64_t instance_blocks_carved = 0;
  /// Instance opens served from the table's GC free list (block recycled,
  /// no carve) — the steady state of a long-running instance churn.
  std::uint64_t instance_block_reuses = 0;
  /// Bytes of instance state carved (requested, not padded).
  std::uint64_t instance_block_bytes = 0;
};

namespace detail {

/// This thread's counters, registered with the process-wide sum on first
/// use. Only the owning thread writes them, through `bump`.
AllocCounters& register_alloc_counters();
inline thread_local AllocCounters* tl_alloc_counters = nullptr;

[[nodiscard]] inline AllocCounters& thread_alloc_counters() {
  AllocCounters* cells = tl_alloc_counters;
  return cells != nullptr ? *cells : register_alloc_counters();
}

/// Reads a counter cell. Cells are only ever accessed atomically, since
/// `alloc_counters()` reads them from other threads.
[[nodiscard]] inline std::uint64_t read(std::uint64_t& cell) noexcept {
  return std::atomic_ref<std::uint64_t>(cell).load(std::memory_order_relaxed);
}

/// Adds `n` to `cell`, one of this thread's counters. The owner is the only
/// writer, so a relaxed load and store suffice.
inline void bump(std::uint64_t& cell, std::uint64_t n = 1) noexcept {
  std::atomic_ref<std::uint64_t>(cell).store(read(cell) + n,
                                             std::memory_order_relaxed);
}

}  // namespace detail

/// Snapshot of the process-wide allocation counters.
[[nodiscard]] AllocCounters alloc_counters() noexcept;

/// The counters accumulated since `since` (field-wise difference against the
/// current snapshot). Multi-stage benches snapshot before each stage and
/// stamp per-stage deltas instead of cumulative process-wide totals, so each
/// stage's allocation behavior is attributable on its own.
[[nodiscard]] AllocCounters alloc_counters_delta(
    const AllocCounters& since) noexcept;

/// Chunked bump allocator. Not thread-safe; lease one per worker.
class MonotonicArena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  MonotonicArena() = default;
  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;
  MonotonicArena(MonotonicArena&&) = default;
  MonotonicArena& operator=(MonotonicArena&&) = default;

  /// Returns `bytes` bytes aligned to `align` (a power of two). Storage is
  /// valid until `reset()`.
  void* allocate(std::size_t bytes, std::size_t align) {
    std::size_t offset = (offset_ + align - 1) & ~(align - 1);
    if (chunk_ >= chunks_.size() || offset + bytes > chunks_[chunk_].size) {
      next_chunk(bytes + align);
      offset = (offset_ + align - 1) & ~(align - 1);
    }
    void* p = chunks_[chunk_].data.get() + offset;
    offset_ = offset + bytes;
    detail::bump(detail::thread_alloc_counters().arena_bytes, bytes);
    return p;
  }

  /// Placement-constructs a `T`. The caller owns the destructor call.
  template <class T, class... Args>
  T* create(Args&&... args) {
    return ::new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// Uninitialized storage for `n` objects of `T` (trivial types, or caller
  /// placement-constructs).
  template <class T>
  T* allocate_array(std::size_t n) {
    return static_cast<T*>(allocate(sizeof(T) * n, alignof(T)));
  }

  /// Rewinds to empty, keeping every chunk for reuse.
  void reset() noexcept {
    chunk_ = 0;
    offset_ = 0;
  }

  /// Total capacity currently held (bytes across all chunks).
  [[nodiscard]] std::size_t capacity() const noexcept {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) {
      total += c.size;
    }
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void next_chunk(std::size_t min_bytes) {
    if (chunk_ < chunks_.size()) {
      ++chunk_;
    }
    // Reuse a retained chunk when it fits; otherwise insert a fresh one
    // (doubling, so pathological worlds settle into O(log) chunk count).
    if (chunk_ >= chunks_.size() || chunks_[chunk_].size < min_bytes) {
      std::size_t size = chunks_.empty() ? kDefaultChunkBytes
                                         : chunks_.back().size * 2;
      while (size < min_bytes) {
        size *= 2;
      }
      Chunk fresh{std::make_unique<std::byte[]>(size), size};
      detail::bump(detail::thread_alloc_counters().arena_chunks);
      chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(chunk_),
                     std::move(fresh));
    }
    offset_ = 0;
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;   // index of the chunk being bumped
  std::size_t offset_ = 0;  // bump position within chunks_[chunk_]
};

/// RAII lease of a thread-pooled arena: acquires a recycled arena (or makes
/// one), returns it reset to the pool on destruction. `Runtime` holds one per
/// world, so world construction reuses the same memory execution after
/// execution.
class ArenaLease {
 public:
  ArenaLease();
  ~ArenaLease();

  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  [[nodiscard]] MonotonicArena& operator*() const noexcept { return *arena_; }
  [[nodiscard]] MonotonicArena* operator->() const noexcept { return arena_; }

 private:
  MonotonicArena* arena_;
};

}  // namespace subc
