// The hot paths allocate nothing once warm. The sharded service's serve
// path: after the shard's blocks, history entry lists and delay lanes have
// grown to the workload's shapes, opening, serving, deciding and reclaiming
// an instance costs the worker thread no heap allocation. The checker: a
// warm check_linearizable allocates the same few times whatever the
// history's length. A History cleared and refilled allocates nothing. This
// binary replaces the global operator new with one that counts allocations
// per thread; the decide callback (which runs on the worker) reads the
// worker's count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "subc/checking/linearizability.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/history.hpp"
#include "subc/runtime/service.hpp"

namespace {

thread_local std::int64_t tl_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++tl_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++tl_allocations;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace subc {
namespace {

constexpr std::int64_t kWarmup = 2'000;
constexpr std::int64_t kMeasured = 20'000;

TEST(ServiceAllocations, WarmServePathAllocatesNothing) {
  std::atomic<std::int64_t> decisions{0};
  std::atomic<std::int64_t> at_warm{-1};
  std::atomic<std::int64_t> at_end{-1};
  ServiceOptions opts;
  opts.shards = 1;
  opts.pin_workers = false;
  opts.horizon_ticks = 3;
  // Unanimity, reclaimed at the deciding tick: every instance applies all
  // three of its ops and then leaves, so every use of a block for a shape
  // grows it alike, and only the current batch is live.
  opts.quorum_num = 1;
  opts.quorum_den = 1;
  opts.linger_ticks = 0;
  ShardedService svc(opts, [&](const DecidedView& /*view*/) {
    // Allocation-free: atomics only, and a read of the worker's counter.
    const std::int64_t n =
        decisions.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n == kWarmup) {
      at_warm.store(tl_allocations, std::memory_order_relaxed);
    } else if (n == kWarmup + kMeasured) {
      at_end.store(tl_allocations, std::memory_order_relaxed);
    }
  });

  // A fixed mix of shapes, each served by three unit-weight ops on distinct
  // slots and validators: every op is legal, so every instance decides.
  struct Shape {
    InstanceKind kind;
    int a;
    int b;
    int spec_k;
  };
  constexpr Shape kShapes[] = {
      {InstanceKind::kOneShotWrn, 3, 0, 3},
      {InstanceKind::kGac, 3, 0, 1},
      {InstanceKind::kSetConsensus, 4, 2, 2},
  };
  // Closed-loop batches: a batch opens only once the previous one has
  // decided, so at most kBatch instances are live and the shard carves its
  // last block early. Every block then serves every shape many times before
  // measurement starts: a recycled block keeps what its largest use grew,
  // so only a block's first use for a shape may allocate.
  constexpr std::int64_t kBatch = 32;
  std::int64_t opened = 0;
  while (decisions.load(std::memory_order_relaxed) < kWarmup + kMeasured) {
    for (std::int64_t i = 0; i < kBatch; ++i, ++opened) {
      const Shape& shape = kShapes[opened % std::size(kShapes)];
      OpenSpec spec;
      spec.kind = shape.kind;
      spec.a = shape.a;
      spec.b = shape.b;
      spec.request_fp = static_cast<std::uint64_t>(opened) + 1;
      spec.total_weight = 3;
      spec.spec_k = shape.spec_k;
      const ServiceId id = svc.open(spec);
      for (int p = 0; p < 3; ++p) {
        svc.submit(id, OpSpec{/*validator=*/p, /*weight=*/1, /*slot=*/p,
                              /*value=*/static_cast<Value>(opened * 4 + p + 1),
                              /*delay_ticks=*/static_cast<int>(
                                  1 + (p + opened) % 3)});
      }
    }
    while (decisions.load(std::memory_order_relaxed) < opened) {
      std::this_thread::yield();
    }
  }
  svc.stop();

  ASSERT_GE(at_warm.load(), 0);
  ASSERT_GE(at_end.load(), 0);
  const std::int64_t measured = at_end.load() - at_warm.load();
  EXPECT_LE(measured * 100, kMeasured)
      << measured << " worker allocations over " << kMeasured
      << " warm decisions";
  const ShardStats& st = svc.stats().front();
  EXPECT_EQ(st.live_at_exit, 0);
  EXPECT_EQ(st.hung_ops, 0);
  EXPECT_EQ(st.timed_out, 0);
  EXPECT_LE(st.peak_live, kBatch);
  EXPECT_EQ(st.blocks_carved, st.peak_live);
}

/// k overlapping 1sWRN_k ops whose responses fit only the reverse order
/// k-1, ..., 0, so the DFS tries and rejects most candidates at every depth.
History reverse_order_wrn_history(int k) {
  History h;
  std::vector<std::size_t> handles;
  for (int i = 0; i < k; ++i) {
    handles.push_back(h.invoke(i, {i, 100 + i}));
  }
  for (int i = 0; i < k; ++i) {
    h.respond(handles[static_cast<std::size_t>(i)],
              {i == k - 1 ? kBottom : static_cast<Value>(100 + i + 1)});
  }
  return h;
}

TEST(CheckerAllocations, WarmCheckAllocatesTheSameFewTimesAtEveryLength) {
  std::vector<std::int64_t> counts;
  for (const int k : {3, 6, 12}) {
    const OneShotWrnSpec spec{k};
    const History h = reverse_order_wrn_history(k);
    ASSERT_TRUE(check_linearizable(spec, h.entries()).linearizable);  // warm
    const std::int64_t before = tl_allocations;
    const LinearizationResult r = check_linearizable(spec, h.entries());
    counts.push_back(tl_allocations - before);
    ASSERT_TRUE(r.linearizable) << k;
    EXPECT_EQ(r.order.size(), static_cast<std::size_t>(k));
    EXPECT_EQ(r.order.front(), static_cast<std::size_t>(k - 1));
  }
  // The spec's initial state (two vectors) and the result's order.
  EXPECT_LE(counts[0], 3);
  EXPECT_EQ(counts[1], counts[0]);
  EXPECT_EQ(counts[2], counts[0]);
}

TEST(HistoryAllocations, ClearedAndRefilledHistoryAllocatesNothing) {
  History h;
  const auto fill = [&h] {
    for (int p = 0; p < 8; ++p) {
      const std::size_t handle = h.invoke(p, {p, 100 + p});
      h.respond(handle, {kBottom});
    }
  };
  fill();
  const std::int64_t before = tl_allocations;
  for (int round = 0; round < 1'000; ++round) {
    h.clear();
    fill();
  }
  EXPECT_EQ(tl_allocations - before, 0);
  EXPECT_EQ(h.entries().size(), 8u);
}

}  // namespace
}  // namespace subc
