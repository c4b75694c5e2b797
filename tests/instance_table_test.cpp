// Unit tests for the instance layer (runtime/instance.hpp): lifecycle,
// arena-lease block recycling across GC churn, the id index (a shard's
// sparse slice of ids, deletion while sweeping), fingerprint-domain
// separation, and same-core agreement with the simulated object forms.
#include "subc/runtime/instance.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "subc/checking/linearizability.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/explorer.hpp"
#include "subc/runtime/runtime.hpp"
#include "subc/runtime/service.hpp"

namespace subc {
namespace {

Value apply_ok(InstanceTable& table, InstanceId id, int pid, int slot, Value v,
               std::uint64_t seed = 0) {
  bool hung = false;
  const Value out = table.apply(id, pid, slot, v, seed, &hung);
  EXPECT_FALSE(hung) << "instance " << id << " op unexpectedly hung";
  return out;
}

TEST(InstanceTable, RefusedOpThrowsBeforeTheHistoryRecordsIt) {
  // A core refuses a 1sWRN slot outside [0, k) and a ⊥ proposal. The check
  // runs before the invocation is recorded: no pending entry is left for a
  // response that never comes, and the instance keeps serving.
  InstanceTable table;
  const InstanceId wrn = table.open(InstanceKind::kOneShotWrn, /*k=*/3);
  const InstanceId gac = table.open(InstanceKind::kGac, /*n=*/3, /*i=*/0);
  const InstanceId setc = table.open(InstanceKind::kSetConsensus, 3, 1);
  bool hung = false;
  EXPECT_THROW(table.apply(wrn, 0, /*slot=*/7, 10, 0, &hung), SimError);
  EXPECT_THROW(table.apply(wrn, 0, /*slot=*/0, kBottom, 0, &hung), SimError);
  EXPECT_THROW(table.apply(gac, 0, 0, kBottom, 0, &hung), SimError);
  EXPECT_THROW(table.apply(setc, 0, 0, kBottom, 0, &hung), SimError);
  for (const InstanceId id : {wrn, gac, setc}) {
    EXPECT_TRUE(table.at(id).history.entries().empty()) << id;
  }
  EXPECT_EQ(table.stats().ops, 0);
  EXPECT_EQ(apply_ok(table, wrn, 0, 0, 10), kBottom);
  EXPECT_EQ(table.at(wrn).history.entries().size(), 1u);
  EXPECT_FALSE(table.at(wrn).history.entries().back().pending());
}

TEST(InstanceTable, OneShotWrnLifecycle) {
  InstanceTable table;
  const InstanceId id = table.open(InstanceKind::kOneShotWrn, /*k=*/3,
                                   /*b=*/0, /*now=*/7);
  ASSERT_NE(table.find(id), nullptr);
  EXPECT_EQ(table.at(id).phase, InstancePhase::kOpen);
  EXPECT_EQ(table.at(id).opened_at, 7);

  // Sequential 1sWRN semantics through the shared core: wrn(i, v) writes
  // slot i and reads slot i+1 mod k; a fresh next slot returns ⊥.
  EXPECT_EQ(apply_ok(table, id, 0, 0, 10), kBottom);
  EXPECT_EQ(apply_ok(table, id, 2, 2, 30), 10);
  EXPECT_EQ(apply_ok(table, id, 1, 1, 20), 30);

  // One-shot: slot reuse hangs — ⊥ back, history entry left pending.
  bool hung = false;
  EXPECT_EQ(table.apply(id, 0, 0, 99, 0, &hung), kBottom);
  EXPECT_TRUE(hung);
  EXPECT_TRUE(table.at(id).history.entries().back().pending());

  // The per-instance history segment feeds the linearizability checker.
  require_linearizable(OneShotWrnSpec{3}, table.at(id).history);

  table.decide(id, /*now=*/9);
  EXPECT_EQ(table.at(id).phase, InstancePhase::kDecided);
  EXPECT_EQ(table.at(id).decided_at, 9);
  table.decide(id, /*now=*/12);  // idempotent: first decision wins
  EXPECT_EQ(table.at(id).decided_at, 9);

  EXPECT_TRUE(table.gc(id));
  EXPECT_EQ(table.find(id), nullptr);
  EXPECT_THROW(table.at(id), SimError);
  EXPECT_FALSE(table.gc(id));

  EXPECT_EQ(table.stats().opened, 1);
  EXPECT_EQ(table.stats().decided, 1);
  EXPECT_EQ(table.stats().gcd, 1);
  EXPECT_EQ(table.stats().live, 0);
  EXPECT_EQ(table.stats().ops, 4);
}

TEST(InstanceTable, GacAndSetConsensusCoresServe) {
  InstanceTable table;
  // GAC(n=3, i=0) is consensus: everyone gets the first arrival.
  const InstanceId gac = table.open(InstanceKind::kGac, 3, 0);
  EXPECT_EQ(apply_ok(table, gac, 0, 0, 111), 111);
  EXPECT_EQ(apply_ok(table, gac, 1, 0, 222), 111);
  EXPECT_EQ(apply_ok(table, gac, 2, 0, 333), 111);

  // (n=4, k=2)-set-consensus: every response was proposed, ≤ 2 distinct.
  const InstanceId setc = table.open(InstanceKind::kSetConsensus, 4, 2);
  std::vector<Value> proposals{5, 6, 7};
  std::vector<Value> responses;
  for (int p = 0; p < 3; ++p) {
    responses.push_back(apply_ok(table, setc, p, 0,
                                 proposals[static_cast<std::size_t>(p)],
                                 /*seed=*/0x5e7c + static_cast<unsigned>(p)));
  }
  std::vector<Value> distinct;
  for (const Value r : responses) {
    EXPECT_NE(std::find(proposals.begin(), proposals.end(), r),
              proposals.end())
        << "response " << r << " was never proposed";
    if (std::find(distinct.begin(), distinct.end(), r) == distinct.end()) {
      distinct.push_back(r);
    }
  }
  EXPECT_LE(distinct.size(), 2u);

  EXPECT_EQ(table.stats().live, 2);
  EXPECT_EQ(table.stats().peak_live, 2);
}

TEST(InstanceTable, OpenValidatesParameters) {
  InstanceTable table;
  EXPECT_THROW(table.open(InstanceKind::kOneShotWrn, 1), SimError);
  EXPECT_THROW(table.open(InstanceKind::kGac, 0, 0), SimError);
  EXPECT_THROW(table.open(InstanceKind::kSetConsensus, 3, 0), SimError);
  EXPECT_THROW(table.open(InstanceKind::kSetConsensus, 3, 3), SimError);
  EXPECT_EQ(table.stats().live, 0);
}

TEST(InstanceTable, BlocksRecycleAcrossGcChurn) {
  InstanceTable table;
  // 10k open→serve→gc churns with ≤ 8 concurrently live: the free list must
  // bound carving at the high-water mark — block count must not grow with
  // churn count.
  std::vector<InstanceId> live;
  const auto kinds = {InstanceKind::kOneShotWrn, InstanceKind::kGac,
                      InstanceKind::kSetConsensus};
  int opened = 0;
  while (opened < 10'000) {
    for (const InstanceKind kind : kinds) {
      const InstanceId id = kind == InstanceKind::kOneShotWrn
                                ? table.open(kind, 4)
                                : table.open(kind, 4, 1);
      apply_ok(table, id, 0, 0, opened);
      live.push_back(id);
      ++opened;
    }
    if (live.size() >= 8) {
      for (const InstanceId id : live) {
        EXPECT_TRUE(table.gc(id));
      }
      live.clear();
    }
  }
  for (const InstanceId id : live) {
    table.gc(id);
  }
  EXPECT_EQ(table.stats().opened, opened);
  EXPECT_EQ(table.stats().gcd, opened);
  EXPECT_EQ(table.stats().live, 0);
  // Carving is bounded by the concurrency high-water mark (9 here: batches
  // of 3, GC at ≥ 8), never by the churn count.
  EXPECT_EQ(table.stats().blocks_carved, table.stats().peak_live);
  EXPECT_LE(table.stats().blocks_carved, 9);
  EXPECT_EQ(table.stats().block_reuses,
            table.stats().opened - table.stats().blocks_carved);
}

TEST(InstanceTable, GcDecidedSweepsByTimestamp) {
  InstanceTable table;
  const InstanceId a = table.open(InstanceKind::kOneShotWrn, 2, 0, /*now=*/1);
  const InstanceId b = table.open(InstanceKind::kOneShotWrn, 2, 0, /*now=*/1);
  const InstanceId c = table.open(InstanceKind::kOneShotWrn, 2, 0, /*now=*/1);
  table.decide(a, /*now=*/5);
  table.decide(b, /*now=*/9);
  // c stays open: the sweep must not touch undecided instances.
  EXPECT_EQ(table.gc_decided(/*decided_before=*/5), 1u);
  EXPECT_EQ(table.find(a), nullptr);
  ASSERT_NE(table.find(b), nullptr);
  ASSERT_NE(table.find(c), nullptr);
  EXPECT_EQ(table.gc_decided(/*decided_before=*/100), 1u);
  EXPECT_EQ(table.find(b), nullptr);
  ASSERT_NE(table.find(c), nullptr);
  EXPECT_EQ(table.stats().live, 1);
}

TEST(InstanceTable, FingerprintDomainsSeparateIdenticalHistories) {
  InstanceTable table;
  const InstanceId a = table.open(InstanceKind::kOneShotWrn, 3);
  const InstanceId b = table.open(InstanceKind::kOneShotWrn, 3);
  for (const InstanceId id : {a, b}) {
    apply_ok(table, id, 0, 0, 10);
    apply_ok(table, id, 1, 1, 20);
  }
  // Identical op sequences ⇒ identical local folds...
  EXPECT_NE(table.local_fingerprint(a), 0u);
  EXPECT_EQ(table.local_fingerprint(a), table.local_fingerprint(b));
  // ...but the per-instance domain term keeps world fingerprints apart, so
  // two instances can never alias in a shared memo or visited set.
  EXPECT_NE(table.world_fingerprint(a), table.world_fingerprint(b));
  EXPECT_NE(table.at(a).fp_domain, table.at(b).fp_domain);
  EXPECT_EQ(table.at(a).fp_domain, detail::fp_instance_domain(a));

  // A diverging op changes the local fold.
  apply_ok(table, b, 2, 2, 30);
  EXPECT_NE(table.local_fingerprint(a), table.local_fingerprint(b));
}

TEST(InstanceTable, RecycledBlockStartsFresh) {
  InstanceTable table;
  const InstanceId a = table.open(InstanceKind::kOneShotWrn, 3);
  apply_ok(table, a, 0, 0, 10);
  const std::uint64_t a_local = table.local_fingerprint(a);
  table.gc(a);

  // The recycled block must not leak state, history, or fingerprints.
  const InstanceId b = table.open(InstanceKind::kOneShotWrn, 3);
  EXPECT_NE(b, a);  // ids are never reused
  EXPECT_EQ(table.stats().block_reuses, 1);
  EXPECT_EQ(table.local_fingerprint(b), 0u);
  EXPECT_TRUE(table.at(b).history.entries().empty());
  EXPECT_EQ(apply_ok(table, b, 0, 0, 10), kBottom);  // slot 1 fresh again
  EXPECT_EQ(table.local_fingerprint(b), a_local)
      << "identical first op on a fresh instance must refold identically";

  // The quorum bookkeeping a service keeps in the block starts fresh too,
  // while the block keeps the capacity its vectors grew.
  InstanceBlock& used = table.at(b);
  used.total_weight = 9;
  used.served_weight = 6;
  used.spec_k = 2;
  used.request_fp = 0xfeed;
  used.proposals.assign({1, 2, 3});
  used.responses.assign({4, 5});
  const InstanceBlock* block = &used;
  table.decide(b, /*now=*/3);
  table.gc(b);
  const InstanceId c = table.open(InstanceKind::kGac, 3, 0, /*now=*/4);
  const InstanceBlock& fresh = table.at(c);
  EXPECT_EQ(&fresh, block);  // the same block, recycled
  EXPECT_EQ(fresh.phase, InstancePhase::kOpen);
  EXPECT_EQ(fresh.opened_at, 4);
  EXPECT_EQ(fresh.decided_at, -1);
  EXPECT_EQ(fresh.total_weight, 0u);
  EXPECT_EQ(fresh.served_weight, 0u);
  EXPECT_EQ(fresh.spec_k, 0);
  EXPECT_EQ(fresh.request_fp, 0u);
  EXPECT_TRUE(fresh.proposals.empty());
  EXPECT_TRUE(fresh.responses.empty());
  EXPECT_GE(fresh.proposals.capacity(), 3u);
  EXPECT_TRUE(fresh.history.entries().empty());
  EXPECT_EQ(fresh.fp_local, 0u);
  EXPECT_EQ(apply_ok(table, c, 0, 0, 7), 7);  // GAC(3, 0): first arrival
  EXPECT_EQ(fresh.history.entries().size(), 1u);
  EXPECT_EQ(fresh.history.entries()[0].invoked_at, 0);
}

TEST(InstanceTable, IdIndexServesOneShardsSliceOfIds) {
  // A shard's table sees only the ids routed to it: with 4 shards the low
  // bits of mix64(id) are fixed for every id it hosts. The index hashes ids
  // independently of the route, so such a slice probes as well as dense
  // ids. 50k opens with about 2k live, reclaimed in random order: every
  // live id finds its own block, every reclaimed id misses.
  InstanceTable table;
  std::mt19937_64 rng(0x5eed);
  std::vector<InstanceId> live;
  std::vector<InstanceId> reclaimed;
  InstanceId next = 0;
  const auto check = [&] {
    for (const InstanceId id : live) {
      const InstanceBlock* block = table.find(id);
      ASSERT_NE(block, nullptr) << "live id " << id << " missed";
      EXPECT_EQ(block->id, id);
    }
    for (const InstanceId id : reclaimed) {
      ASSERT_EQ(table.find(id), nullptr) << "reclaimed id " << id << " hit";
    }
  };
  for (int opened = 0; opened < 50'000; ++opened) {
    do {
      ++next;
    } while (ShardedService::shard_of(next, 4) != 1);
    table.open_assigned(next, InstanceKind::kGac, 3, 0);
    live.push_back(next);
    if (live.size() > 2'000) {
      const std::size_t victim = rng() % live.size();
      std::swap(live[victim], live.back());
      ASSERT_TRUE(table.gc(live.back()));
      reclaimed.push_back(live.back());
      live.pop_back();
    }
    if (opened % 10'000 == 9'999) {
      check();
    }
  }
  check();
  EXPECT_EQ(table.stats().live, static_cast<std::int64_t>(live.size()));
  EXPECT_EQ(table.stats().opened, 50'000);
  EXPECT_EQ(table.stats().blocks_carved, table.stats().peak_live);
  // Draining the rest leaves an empty index.
  for (const InstanceId id : live) {
    ASSERT_TRUE(table.gc(id));
  }
  for (const InstanceId id : live) {
    EXPECT_EQ(table.find(id), nullptr);
  }
  EXPECT_EQ(table.stats().live, 0);
}

TEST(InstanceTable, GcDecidedRemovesExactlyTheDecided) {
  // Every other instance decided: the sweep deletes from the index while it
  // walks it, and a deletion shifts later entries back into the slot just
  // visited. None of them may be skipped, and none reclaimed wrongly.
  InstanceTable table;
  std::vector<InstanceId> ids;
  for (int i = 0; i < 1'000; ++i) {
    ids.push_back(table.open(InstanceKind::kOneShotWrn, 2, 0, /*now=*/0));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    table.decide(ids[i], /*now=*/1);
  }
  EXPECT_EQ(table.gc_decided(/*decided_before=*/1), 500u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(table.find(ids[i]), nullptr) << "decided id " << ids[i];
    } else {
      ASSERT_NE(table.find(ids[i]), nullptr) << "open id " << ids[i];
      EXPECT_EQ(table.at(ids[i]).phase, InstancePhase::kOpen);
    }
  }
  EXPECT_EQ(table.stats().live, 500);
  EXPECT_EQ(table.stats().gcd, 500);
  EXPECT_EQ(table.gc_decided(/*decided_before=*/100), 0u);
}

TEST(InstanceTable, InstanceCoreMatchesSimulatedObject) {
  // The same 1sWRN op sequence served (a) by the table and (b) by the
  // simulated object must return the same values — both route through
  // one_shot_wrn_commit.
  InstanceTable table;
  const InstanceId id = table.open(InstanceKind::kOneShotWrn, 4);
  std::vector<Value> service;
  for (int i = 0; i < 4; ++i) {
    service.push_back(apply_ok(table, id, i, i, 100 + i));
  }

  std::vector<Value> simulated;
  Runtime rt;
  OneShotWrnObject wrn(4);
  rt.add_process([&](Context& ctx) {
    for (int i = 0; i < 4; ++i) {
      simulated.push_back(wrn.wrn(ctx, i, 100 + i));
    }
  });
  RoundRobinDriver driver;
  rt.run(driver);
  EXPECT_EQ(service, simulated);
}

TEST(InstanceTable, OpenAssignedHostsSparseIdSlices) {
  // The sharded service assigns ids from a process-wide counter, so each
  // shard's table sees a sparse, non-contiguous slice of the id space.
  InstanceTable table;
  EXPECT_EQ(table.open_assigned(7, InstanceKind::kGac, 3, 0), 7u);
  EXPECT_EQ(table.open_assigned(3, InstanceKind::kGac, 3, 0), 3u);
  EXPECT_EQ(table.at(7).fp_domain, detail::fp_instance_domain(7));

  // id 0 is reserved; a live id cannot be reopened; validation still runs
  // before any block is acquired (a bad shape leaks nothing).
  EXPECT_THROW(table.open_assigned(0, InstanceKind::kGac, 3, 0), SimError);
  EXPECT_THROW(table.open_assigned(7, InstanceKind::kGac, 3, 0), SimError);
  const std::int64_t carved = table.stats().blocks_carved;
  EXPECT_THROW(table.open_assigned(9, InstanceKind::kOneShotWrn, 1, 0),
               SimError);
  EXPECT_EQ(table.stats().blocks_carved, carved);

  // Mixing with auto-id open stays safe: the cursor is bumped past every
  // assigned id, so auto ids never collide with assigned ones.
  const InstanceId next = table.open(InstanceKind::kGac, 3, 0);
  EXPECT_EQ(next, 8u);
  EXPECT_EQ(table.stats().live, 3);
}

TEST(InstanceTable, ToStringCoversKinds) {
  EXPECT_STREQ(to_string(InstanceKind::kOneShotWrn), "one_shot_wrn");
  EXPECT_STREQ(to_string(InstanceKind::kGac), "gac");
  EXPECT_STREQ(to_string(InstanceKind::kSetConsensus), "set_consensus");
}

}  // namespace
}  // namespace subc
