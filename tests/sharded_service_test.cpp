// Unit tests for the sharded agreement service (runtime/service.hpp):
// routing determinism, shard isolation (no fingerprint aliasing across
// shard tables), the cross-shard decision memo's exactly-one-winner rule
// and its window (what it keeps, in fixed memory, across concurrent
// rotations), dedup short-circuiting of replayed requests,
// backpressured inboxes that never drop accepted ops, drained tables at
// exit, and a throwing decide callback and refused ops that are counted,
// not fatal. Run under TSan by `scripts/check.sh --tsan`.
#include "subc/runtime/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "subc/runtime/hashing.hpp"

namespace subc {
namespace {

ServiceOptions fast_options(int shards) {
  ServiceOptions opts;
  opts.shards = shards;
  opts.pin_workers = false;  // unit tests should not fight the scheduler
  opts.horizon_ticks = 5;
  opts.timeout_ticks = 12;
  opts.linger_ticks = 2;
  return opts;
}

/// Opens a GAC(3, 0) (= consensus) instance and submits a deciding quorum.
ServiceId open_consensus(ShardedService& svc, Value v,
                         std::uint64_t request_fp = 0) {
  OpenSpec spec;
  spec.kind = InstanceKind::kGac;
  spec.a = 3;
  spec.b = 0;
  spec.request_fp = request_fp;
  spec.total_weight = 3;
  spec.spec_k = 1;
  const ServiceId id = svc.open(spec);
  for (int p = 0; p < 3; ++p) {
    svc.submit(id, OpSpec{/*validator=*/p, /*weight=*/1, /*slot=*/0,
                          /*value=*/v + p, /*delay_ticks=*/1 + p});
  }
  return id;
}

template <typename Pred>
bool wait_until(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ShardedService, RoutingIsAPureFunctionOfTheId) {
  for (ServiceId id = 1; id <= 1000; ++id) {
    // One shard: everything routes to it.
    EXPECT_EQ(ShardedService::shard_of(id, 1), 0);
    // The route is deterministic and in range for every shard count.
    for (int shards : {2, 4, 8}) {
      const int s = ShardedService::shard_of(id, shards);
      EXPECT_GE(s, 0);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardedService::shard_of(id, shards));
    }
  }
  // mix64 spreads dense ids: every shard of 4 sees traffic from 1..1000.
  std::set<int> hit;
  for (ServiceId id = 1; id <= 1000; ++id) {
    hit.insert(ShardedService::shard_of(id, 4));
  }
  EXPECT_EQ(hit.size(), 4u);
}

TEST(ShardedService, DecidesAndReportsThroughTheCallback) {
  std::mutex mu;
  std::vector<DecidedView> views;  // pointers not retained past callback
  std::vector<std::size_t> proposal_counts;
  // Unanimity: the decision waits for all three ops, so the view carries
  // every proposal however the submitting thread is scheduled. Under 2/3
  // a third submit delayed by a few worker ticks lands after the decision.
  ServiceOptions opts = fast_options(2);
  opts.quorum_num = 1;
  opts.quorum_den = 1;
  ShardedService svc(opts, [&](const DecidedView& view) {
    std::lock_guard<std::mutex> lk(mu);
    views.push_back(view);
    views.back().block = nullptr;  // worker-owned; drop before returning
    views.back().proposals = nullptr;
    views.back().responses = nullptr;
    proposal_counts.push_back(view.proposals->size());
    EXPECT_NE(view.block, nullptr);
    EXPECT_EQ(view.block->kind, InstanceKind::kGac);
  });
  const ServiceId id = open_consensus(svc, 100);
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard<std::mutex> lk(mu);
    return !views.empty();
  }));
  svc.stop();

  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].id, id);
  EXPECT_EQ(views[0].shard, svc.shard_of(id));
  // GAC(3, 0) is consensus on the first arrival; delays order the arrivals.
  EXPECT_EQ(views[0].decided, 100);
  EXPECT_GE(views[0].latency_ticks, 1);
  EXPECT_EQ(proposal_counts[0], 3u);

  std::int64_t decided = 0;
  std::int64_t live = 0;
  for (const ShardStats& st : svc.stats()) {
    decided += st.decided;
    live += st.live_at_exit;
  }
  EXPECT_EQ(decided, 1);
  EXPECT_EQ(live, 0);
}

TEST(ShardedService, IdenticalHistoriesNeverAliasAcrossShards) {
  // Every instance runs the exact same op sequence — identical *local*
  // fingerprints by design — yet the world fingerprints reported at
  // decision must all differ: each id owns its own fp domain, and shard
  // tables host disjoint id slices.
  constexpr int kInstances = 200;
  std::mutex mu;
  std::vector<std::uint64_t> world_fps;
  ShardedService svc(fast_options(4), [&](const DecidedView& view) {
    std::lock_guard<std::mutex> lk(mu);
    world_fps.push_back(view.world_fp);
  });
  for (int i = 0; i < kInstances; ++i) {
    open_consensus(svc, /*v=*/500);  // same values for every instance
  }
  ASSERT_TRUE(wait_until([&] {
    std::lock_guard<std::mutex> lk(mu);
    return world_fps.size() == kInstances;
  }));
  svc.stop();

  const std::set<std::uint64_t> distinct(world_fps.begin(), world_fps.end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kInstances));
  // Traffic really did spread over multiple tables.
  int shards_used = 0;
  for (const ShardStats& st : svc.stats()) {
    shards_used += st.opened > 0 ? 1 : 0;
    EXPECT_EQ(st.live_at_exit, 0);
  }
  EXPECT_GT(shards_used, 1);
}

TEST(DecisionMemo, ExactlyOneRecorderWins) {
  DecisionMemo memo(1024);
  const std::uint64_t key = detail::fp_request_domain(0xfeedULL);
  constexpr int kThreads = 8;
  std::atomic<int> wins{0};
  std::atomic<Value> winner_value{kBottom};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (memo.record(key, /*decided=*/1000 + t)) {
        wins.fetch_add(1);
        winner_value.store(1000 + t);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(wins.load(), 1);
  const auto hit = memo.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, winner_value.load());
  EXPECT_EQ(memo.size(), 1);
  // Late recorders of the same key always lose.
  EXPECT_FALSE(memo.record(key, 42));
  EXPECT_EQ(*memo.lookup(key), winner_value.load());
}

TEST(DecisionMemo, WindowKeepsRecentKeysInFixedMemory) {
  // A 64 × 64 window fed 10× its size in distinct keys. A key is held for
  // at least the next partition_window() records of its partition and for
  // fewer than twice that; slots and size stay bounded throughout.
  constexpr std::size_t kWindow = DecisionMemo::kPartitions * 64;
  DecisionMemo memo(kWindow);
  const std::size_t per_part = memo.partition_window();
  ASSERT_EQ(per_part, 64u);
  const std::size_t slots = memo.slot_count();
  const auto value_of = [](std::uint64_t key) {
    return static_cast<Value>(key >> 1);
  };
  // The keys each partition recorded, oldest first.
  std::vector<std::vector<std::uint64_t>> recorded(DecisionMemo::kPartitions);
  const auto check_window = [&] {
    ASSERT_EQ(memo.slot_count(), slots);
    ASSERT_LE(memo.size(), static_cast<std::int64_t>(2 * kWindow));
    for (const std::vector<std::uint64_t>& keys : recorded) {
      const std::size_t from =
          keys.size() > 3 * per_part ? keys.size() - 3 * per_part : 0;
      for (std::size_t i = from; i < keys.size(); ++i) {
        const std::size_t since = keys.size() - 1 - i;
        const auto hit = memo.lookup(keys[i]);
        if (since < per_part) {
          ASSERT_TRUE(hit.has_value()) << "recorded " << since << " ago";
          ASSERT_EQ(*hit, value_of(keys[i]));
        } else if (since >= 2 * per_part) {
          ASSERT_FALSE(hit.has_value()) << "recorded " << since << " ago";
        }
      }
    }
  };
  for (std::uint64_t i = 1; i <= 10 * kWindow; ++i) {
    const std::uint64_t key = detail::mix64(i);
    ASSERT_TRUE(memo.record(key, value_of(key)));
    recorded[DecisionMemo::partition_of(key)].push_back(key);
    if (i % 512 == 0) {
      check_window();
    }
  }
  check_window();
  // The oldest key has aged out; it can be recorded again, and then hits.
  const std::uint64_t aged = recorded[0].front();
  EXPECT_FALSE(memo.lookup(aged).has_value());
  EXPECT_TRUE(memo.record(aged, 42));
  EXPECT_FALSE(memo.record(aged, 43));
  EXPECT_EQ(memo.lookup(aged), std::optional<Value>(42));
}

TEST(DecisionMemo, ConcurrentRecordersAcrossRotationsHaveOneWinnerPerKey) {
  // 8 recorders race on the same keys, batch by batch, while 2 readers look
  // keys up throughout. A batch gives every partition exactly the keys its
  // generation takes, so each batch rotates every partition once and no
  // key ages out while the batch that records it still runs: every key has
  // exactly one winner, and every hit must return that winner's value.
  constexpr int kRecorders = 8;
  constexpr int kReaders = 2;
  constexpr std::size_t kPerPartition = 8;
  constexpr std::size_t kBatch = DecisionMemo::kPartitions * kPerPartition;
  constexpr std::size_t kBatches = 24;
  constexpr std::size_t kKeys = kBatch * kBatches;
  DecisionMemo memo(kBatch);
  ASSERT_EQ(memo.partition_window(), kPerPartition);
  // Key n lands in partition n % kPartitions; its low bits are distinct.
  const auto key_of = [](std::size_t n) {
    return (std::uint64_t{n % DecisionMemo::kPartitions}
            << (64 - DecisionMemo::kPartitionBits)) |
           (detail::mix64(n) >> DecisionMemo::kPartitionBits) | 1;
  };
  const auto value_of = [](std::size_t n, int t) {
    return static_cast<Value>(n * kRecorders + static_cast<std::size_t>(t));
  };
  std::vector<std::vector<std::size_t>> wins(kRecorders);
  std::vector<std::vector<std::pair<std::size_t, Value>>> hits(kReaders);
  std::atomic<std::size_t> recorded_upto{0};
  std::atomic<bool> done{false};
  std::barrier batch_end(kRecorders, [&]() noexcept {
    recorded_upto.fetch_add(kBatch);
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kRecorders; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t b = 0; b < kBatches; ++b) {
        // Each recorder walks the batch from its own offset.
        for (std::size_t i = 0; i < kBatch; ++i) {
          const std::size_t n =
              b * kBatch + (i + static_cast<std::size_t>(t) * 61) % kBatch;
          if (memo.record(key_of(n), value_of(n, t))) {
            wins[static_cast<std::size_t>(t)].push_back(n);
          }
        }
        batch_end.arrive_and_wait();
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      std::uint64_t rng = detail::mix64(static_cast<std::uint64_t>(r) + 1);
      auto& mine = hits[static_cast<std::size_t>(r)];
      while (!done.load() && mine.size() < 200000) {
        rng = detail::mix64(rng);
        // Keys of the batch being recorded and of every earlier one.
        const std::size_t upto =
            std::min(recorded_upto.load() + kBatch, kKeys);
        const std::size_t n = rng % upto;
        if (const auto hit = memo.lookup(key_of(n))) {
          mine.emplace_back(n, *hit);
        }
      }
    });
  }
  for (int t = 0; t < kRecorders; ++t) {
    threads[static_cast<std::size_t>(t)].join();
  }
  done.store(true);
  for (std::size_t i = kRecorders; i < threads.size(); ++i) {
    threads[i].join();
  }

  std::vector<Value> winner(kKeys, kBottom);
  std::vector<std::size_t> partition_wins(DecisionMemo::kPartitions, 0);
  for (int t = 0; t < kRecorders; ++t) {
    for (const std::size_t n : wins[static_cast<std::size_t>(t)]) {
      ASSERT_EQ(winner[n], kBottom) << "key " << n << " won twice";
      winner[n] = value_of(n, t);
      ++partition_wins[DecisionMemo::partition_of(key_of(n))];
    }
  }
  for (std::size_t n = 0; n < kKeys; ++n) {
    ASSERT_NE(winner[n], kBottom) << "key " << n << " never recorded";
  }
  for (const std::size_t won : partition_wins) {
    // A partition rotates on every record after each full generation.
    EXPECT_GE((won - 1) / kPerPartition, 20u);
  }
  std::size_t hit_count = 0;
  for (const auto& mine : hits) {
    for (const auto& [n, value] : mine) {
      ASSERT_EQ(value, winner[n]) << "key " << n;
    }
    hit_count += mine.size();
  }
  EXPECT_GT(hit_count, 0u);
  EXPECT_LE(memo.size(), static_cast<std::int64_t>(2 * kBatch));
}

TEST(DecisionMemo, OversizedWindowIsRejected) {
  EXPECT_THROW(DecisionMemo memo(SIZE_MAX), SimError);
  EXPECT_THROW(DecisionMemo memo(0), SimError);
}

TEST(ShardedService, ReplayedRequestsShortCircuitToTheRecordedDecision) {
  constexpr std::uint64_t kRequestFp = 0x5eedULL;
  constexpr int kReplays = 32;
  std::atomic<int> decided_count{0};
  std::atomic<Value> decided_value{kBottom};
  ShardedService svc(fast_options(4), [&](const DecidedView& view) {
    decided_value.store(view.decided);
    decided_count.fetch_add(1);
  });
  open_consensus(svc, /*v=*/777, kRequestFp);
  // Wait for the decision to be *recorded* before replaying, so every
  // replayed open is guaranteed a memo hit.
  ASSERT_TRUE(wait_until([&] { return decided_count.load() >= 1; }));
  for (int i = 0; i < kReplays; ++i) {
    // A replay gets a fresh id, hence (very likely) a different shard —
    // the memo hit is what makes dedup *cross-shard*.
    OpenSpec spec;
    spec.kind = InstanceKind::kGac;
    spec.a = 3;
    spec.b = 0;
    spec.request_fp = kRequestFp;
    spec.total_weight = 3;
    spec.spec_k = 1;
    svc.open(spec);
  }
  svc.stop();

  EXPECT_EQ(decided_count.load(), 1);
  EXPECT_EQ(decided_value.load(), 777);
  std::int64_t dedup_hits = 0;
  std::int64_t dedup_records = 0;
  std::int64_t opened = 0;
  for (const ShardStats& st : svc.stats()) {
    dedup_hits += st.dedup_hits;
    dedup_records += st.dedup_records;
    opened += st.opened;
  }
  EXPECT_EQ(dedup_hits, kReplays);
  EXPECT_EQ(dedup_records, 1);
  EXPECT_EQ(opened, 1);
  const auto hit = svc.memo().lookup(detail::fp_request_domain(kRequestFp));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 777);
}

TEST(ShardedService, TinyBackpressuredInboxNeverDropsOps) {
  // A 4-slot inbox against 4 producer threads: producers absorb the
  // pressure (spin on try_push) and every accepted message is eventually
  // drained — the accounting identities below only hold with zero drops.
  ServiceOptions opts = fast_options(2);
  opts.inbox_capacity = 4;
  opts.drain_batch = 8;
  ShardedService svc(opts);
  constexpr int kProducers = 4;
  constexpr int kOpensPerProducer = 250;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&svc, p] {
      for (int i = 0; i < kOpensPerProducer; ++i) {
        OpenSpec spec;
        spec.kind = InstanceKind::kGac;
        spec.a = 2;
        spec.b = 0;
        spec.total_weight = 2;
        spec.spec_k = 1;
        const ServiceId id = svc.open(spec);
        svc.submit(id, OpSpec{0, 1, 0, 10 * p + 1, 1 + (i % 5)});
        svc.submit(id, OpSpec{1, 1, 0, 10 * p + 2, 1 + ((i + 3) % 5)});
      }
    });
  }
  for (auto& th : producers) {
    th.join();
  }
  svc.stop();

  std::int64_t msgs_open = 0, msgs_op = 0, opened = 0, ops = 0;
  std::int64_t orphans = 0, skipped = 0, decided = 0, timed_out = 0;
  std::int64_t gc_sweeps = 0, live = 0;
  std::size_t inbox_peak = 0;
  for (const ShardStats& st : svc.stats()) {
    msgs_open += st.msgs_open;
    msgs_op += st.msgs_op;
    opened += st.opened;
    ops += st.ops;
    orphans += st.orphan_ops;
    skipped += st.skipped_ops;
    decided += st.decided;
    timed_out += st.timed_out;
    gc_sweeps += st.gc_sweeps;
    live += st.live_at_exit;
    if (st.inbox_peak > inbox_peak) {
      inbox_peak = st.inbox_peak;
    }
  }
  // Every message submitted was drained by exactly one worker.
  EXPECT_EQ(msgs_open, kProducers * kOpensPerProducer);
  EXPECT_EQ(msgs_op, kProducers * kOpensPerProducer * 2);
  // No request_fp → no dedup: every open became a live instance.
  EXPECT_EQ(opened, msgs_open);
  // Every op message was applied, orphaned, or skipped — never lost.
  EXPECT_EQ(ops + orphans + skipped, msgs_op);
  // Every instance resolves exactly one way: decided, or timed out when
  // the tiny inbox delayed its ops past the deadline on a loaded host.
  EXPECT_EQ(decided + timed_out, opened);
  EXPECT_GT(decided, 0);
  // Drained at exit: everything opened was reclaimed.
  EXPECT_EQ(gc_sweeps, opened);
  EXPECT_EQ(live, 0);
  // The tiny ring really did cap occupancy.
  EXPECT_LE(inbox_peak, 4u);
}

TEST(ShardedService, UnreachableQuorumTimesOutAndDrainsTheTables) {
  ServiceOptions opts = fast_options(2);
  constexpr int kInstances = 64;
  ShardedService svc(opts);
  for (int i = 0; i < kInstances; ++i) {
    OpenSpec spec;
    spec.kind = InstanceKind::kGac;
    spec.a = 3;
    spec.b = 0;
    spec.total_weight = 100;  // one weight-1 op can never reach 2/3 of 100
    spec.spec_k = 1;
    const ServiceId id = svc.open(spec);
    svc.submit(id, OpSpec{0, 1, 0, 5, 1});
  }
  svc.stop();

  std::int64_t timed_out = 0;
  for (const ShardStats& st : svc.stats()) {
    timed_out += st.timed_out;
    EXPECT_EQ(st.decided, 0);
    // stop() drains to quiescence: the undecided stragglers were reclaimed
    // by the deadline lane, not leaked.
    EXPECT_EQ(st.live_at_exit, 0);
    EXPECT_EQ(st.gc_sweeps, st.opened);
  }
  EXPECT_EQ(timed_out, kInstances);
}

TEST(ShardedService, ThrowingDecideCallbackIsCountedNotFatal) {
  // An exception out of the decide callback must not leave the worker's
  // thread (that would terminate the process). The worker counts it, keeps
  // the first message, and still reclaims the instance, so stop() drains.
  std::atomic<std::int64_t> calls{0};
  ShardedService svc(fast_options(2), [&](const DecidedView& /*view*/) {
    if (calls.fetch_add(1) % 3 == 2) {
      throw std::runtime_error("audit rejected the decision");
    }
  });
  constexpr int kInstances = 60;
  for (int i = 0; i < kInstances; ++i) {
    open_consensus(svc, 100 * (i + 1));
  }
  svc.stop();

  std::int64_t decided = 0;
  std::int64_t failures = 0;
  for (const ShardStats& st : svc.stats()) {
    EXPECT_EQ(st.live_at_exit, 0);
    EXPECT_EQ(st.gc_sweeps, st.opened);
    decided += st.decided;
    failures += st.callback_failures;
    if (st.callback_failures > 0) {
      EXPECT_EQ(st.first_callback_error, "audit rejected the decision");
    } else {
      EXPECT_TRUE(st.first_callback_error.empty());
    }
  }
  EXPECT_EQ(decided, kInstances);
  EXPECT_EQ(calls.load(), decided);
  EXPECT_EQ(failures, decided / 3);
}

TEST(ShardedService, RefusedOpsAreCountedNotFatal) {
  // Only the worker knows an instance's shape, so submit() cannot reject a
  // 1sWRN slot outside [0, k) or a ⊥ proposal. The core refuses both; the
  // worker counts each as a hung op and keeps serving, so stop() drains.
  ShardedService svc(fast_options(2));
  OpenSpec wrn;
  wrn.kind = InstanceKind::kOneShotWrn;
  wrn.a = 3;
  wrn.total_weight = 3;
  wrn.spec_k = 3;
  svc.submit(svc.open(wrn), OpSpec{0, 1, /*slot=*/7, /*value=*/5, 1});
  OpenSpec gac;
  gac.kind = InstanceKind::kGac;
  gac.a = 3;
  gac.total_weight = 3;
  gac.spec_k = 1;
  svc.submit(svc.open(gac), OpSpec{0, 1, 0, kBottom, 1});
  open_consensus(svc, 100);  // a well-formed instance still decides
  svc.stop();

  std::int64_t hung = 0, ops = 0, orphans = 0, skipped = 0, msgs_op = 0;
  std::int64_t decided = 0;
  for (const ShardStats& st : svc.stats()) {
    hung += st.hung_ops;
    ops += st.ops;
    orphans += st.orphan_ops;
    skipped += st.skipped_ops;
    msgs_op += st.msgs_op;
    decided += st.decided;
    EXPECT_EQ(st.live_at_exit, 0);
    EXPECT_EQ(st.gc_sweeps, st.opened);
  }
  EXPECT_EQ(hung, 2);
  EXPECT_EQ(ops + orphans + skipped, msgs_op);
  EXPECT_EQ(decided, 1);
}

TEST(ShardedService, ClientSideValidationAndStopSemantics) {
  ShardedService svc(fast_options(1));
  // Malformed shapes fail on the submitting thread, before any enqueue.
  OpenSpec bad;
  bad.kind = InstanceKind::kOneShotWrn;
  bad.a = 1;  // 1sWRN needs k >= 2
  bad.total_weight = 1;
  EXPECT_THROW(svc.open(bad), SimError);
  OpenSpec zero_weight;
  zero_weight.kind = InstanceKind::kGac;
  zero_weight.a = 3;
  zero_weight.total_weight = 0;
  EXPECT_THROW(svc.open(zero_weight), SimError);

  svc.stop();
  EXPECT_TRUE(svc.stopped());
  OpenSpec ok;
  ok.kind = InstanceKind::kGac;
  ok.a = 3;
  ok.total_weight = 3;
  EXPECT_THROW(svc.open(ok), SimError);
  EXPECT_THROW(svc.submit(1, OpSpec{0, 1, 0, 1, 1}), SimError);
  svc.stop();  // idempotent
}

TEST(ShardedService, BadOptionsAreRejected) {
  ServiceOptions opts;
  opts.shards = 0;
  EXPECT_THROW(ShardedService svc(opts), SimError);
  opts = ServiceOptions{};
  opts.drain_batch = 0;
  EXPECT_THROW(ShardedService svc(opts), SimError);
  opts = ServiceOptions{};
  opts.horizon_ticks = 0;
  EXPECT_THROW(ShardedService svc(opts), SimError);
  opts = ServiceOptions{};
  opts.dedup_capacity = 0;
  EXPECT_THROW(ShardedService svc(opts), SimError);
}

TEST(ShardedService, OversizedDedupCapacityIsRejectedBeforeAnythingIsBuilt) {
  // Above 2^40 the sizing rule would overflow: SIZE_MAX once spun forever
  // in the memo's constructor.
  for (const std::size_t capacity : {(std::size_t{1} << 40) + 1, SIZE_MAX}) {
    ServiceOptions opts = fast_options(1);
    opts.dedup_capacity = capacity;
    try {
      ShardedService svc(opts);
      FAIL() << "dedup_capacity " << capacity << " accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("ServiceOptions::dedup_capacity"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardedService, StatsCarryTheAffinityProbeOutcome) {
  bool probe_ok = false;
  static_cast<void>(usable_cpus(&probe_ok));
  ShardedService svc(fast_options(2));
  svc.stop();
  for (const ShardStats& st : svc.stats()) {
    EXPECT_EQ(st.affinity_probe_ok, probe_ok) << "shard " << st.shard;
  }
}

TEST(ShardedService, StatsBeforeStopThrows) {
  ShardedService svc(fast_options(1));
  EXPECT_THROW(static_cast<void>(svc.stats()), SimError);
  svc.stop();
  EXPECT_EQ(svc.stats().size(), 1u);
}

}  // namespace
}  // namespace subc
