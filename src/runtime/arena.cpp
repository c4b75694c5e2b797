#include "subc/runtime/arena.hpp"

#include <iterator>
#include <mutex>

namespace subc {

namespace {

// Every AllocCounters field, so sums and differences are one loop each.
constexpr std::uint64_t AllocCounters::*kCounterFields[] = {
    &AllocCounters::arena_chunks,
    &AllocCounters::arena_bytes,
    &AllocCounters::arena_reuses,
    &AllocCounters::fiber_stack_reuses,
    &AllocCounters::fiber_stack_allocs,
    &AllocCounters::stepped_blocks_carved,
    &AllocCounters::stepped_block_reuses,
    &AllocCounters::stepped_block_bytes,
    &AllocCounters::instance_blocks_carved,
    &AllocCounters::instance_block_reuses,
    &AllocCounters::instance_block_bytes,
};
static_assert(sizeof(AllocCounters) ==
              std::size(kCounterFields) * sizeof(std::uint64_t));

/// The counters of every live thread, and the summed counters of the
/// threads that have exited.
struct CounterRegistry {
  std::mutex mu;
  std::vector<AllocCounters*> live;
  AllocCounters exited;
};

CounterRegistry& counter_registry() {
  // Never destroyed: threads may still exit after static destruction.
  static CounterRegistry* registry = new CounterRegistry;
  return *registry;
}

// Counts a thread makes from its own exit-time destructors, after its
// counters were folded into the exited totals, land here and are dropped.
thread_local AllocCounters tl_uncounted;

/// One thread's counters: registered on the thread's first count, folded
/// into the exited totals when the thread exits.
struct ThreadCounters {
  AllocCounters counts;

  ThreadCounters() {
    CounterRegistry& registry = counter_registry();
    const std::lock_guard<std::mutex> lock(registry.mu);
    registry.live.push_back(&counts);
  }

  ThreadCounters(const ThreadCounters&) = delete;
  ThreadCounters& operator=(const ThreadCounters&) = delete;

  ~ThreadCounters() {
    CounterRegistry& registry = counter_registry();
    {
      const std::lock_guard<std::mutex> lock(registry.mu);
      for (const auto field : kCounterFields) {
        registry.exited.*field += detail::read(counts.*field);
      }
      std::erase(registry.live, &counts);
    }
    detail::tl_alloc_counters = &tl_uncounted;
  }
};

}  // namespace

namespace detail {
AllocCounters& register_alloc_counters() {
  thread_local ThreadCounters counters;
  tl_alloc_counters = &counters.counts;
  return counters.counts;
}
}  // namespace detail

AllocCounters alloc_counters() noexcept {
  CounterRegistry& registry = counter_registry();
  const std::lock_guard<std::mutex> lock(registry.mu);
  AllocCounters out = registry.exited;
  for (AllocCounters* counts : registry.live) {
    for (const auto field : kCounterFields) {
      out.*field += detail::read(counts->*field);
    }
  }
  return out;
}

AllocCounters alloc_counters_delta(const AllocCounters& since) noexcept {
  AllocCounters out = alloc_counters();
  for (const auto field : kCounterFields) {
    out.*field -= since.*field;
  }
  return out;
}

namespace {
// Arenas retained per thread for reuse across worlds. Bounded so a burst of
// nested Runtimes cannot pin memory forever; excess arenas are simply freed.
constexpr std::size_t kMaxPooledArenas = 8;

struct ArenaPool {
  std::vector<std::unique_ptr<MonotonicArena>> free;
};
thread_local ArenaPool tl_arena_pool;
}  // namespace

ArenaLease::ArenaLease() {
  ArenaPool& pool = tl_arena_pool;
  if (!pool.free.empty()) {
    arena_ = pool.free.back().release();
    pool.free.pop_back();
    detail::bump(detail::thread_alloc_counters().arena_reuses);
  } else {
    arena_ = new MonotonicArena();
  }
}

ArenaLease::~ArenaLease() {
  arena_->reset();
  ArenaPool& pool = tl_arena_pool;
  if (pool.free.size() < kMaxPooledArenas) {
    pool.free.emplace_back(arena_);
  } else {
    delete arena_;
  }
}

}  // namespace subc
