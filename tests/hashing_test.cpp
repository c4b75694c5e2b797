// Tests for runtime/hashing.hpp: pinned mix64 / fnv1a64 values (the salts
// and mixers feed the stateful explorer's visited set and the checker's
// hashed memo — a silent drift would un-pin serial cut counts across the
// repo), an avalanche smoke check, the table sizing rule and its limits,
// and the concurrent open-addressing VisitedSet, including a
// collision-forcing probe walk mirroring linearizability_memo_test's
// approach of attacking the memo where keys alias, and its lazily zeroed
// storage.
#include "subc/runtime/hashing.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

namespace subc {
namespace {

TEST(Hashing, Mix64PinnedValues) {
  // splitmix64 finalizer — reference values. These are load-bearing: every
  // recorded fingerprint (and thus every pinned stateful cut count) folds
  // through mix64.
  EXPECT_EQ(detail::mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(detail::mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(detail::mix64(42), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(detail::mix64(~0ULL), 0xe4d971771b652c20ULL);
}

TEST(Hashing, Fnv1a64PinnedValues) {
  EXPECT_EQ(detail::fnv1a64(""), 0xcbf29ce484222325ULL);  // offset basis
  EXPECT_EQ(detail::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(detail::fnv1a64("wrn"), 0x5e6ddb194846bb26ULL);
}

TEST(Hashing, FpOfPinnedValues) {
  EXPECT_EQ(detail::fp_of(std::int64_t{7}), 0x63cbe1e459320dd7ULL);
  EXPECT_EQ(detail::fp_of(std::int64_t{-1}), 0xe4d971771b652c20ULL);
  EXPECT_EQ(detail::fp_of(std::vector<std::int64_t>{1, 2, 3}),
            0xac353cecc6b8f974ULL);
  // Empty vector folds nothing: the seed constant comes straight through.
  EXPECT_EQ(detail::fp_of(std::vector<std::int64_t>{}),
            0x6a09e667f3bcc909ULL);
}

TEST(Hashing, FpOfVectorIsOrderAndLengthSensitive) {
  using V = std::vector<std::int64_t>;
  EXPECT_NE(detail::fp_of(V{1, 2}), detail::fp_of(V{2, 1}));
  EXPECT_NE(detail::fp_of(V{1}), detail::fp_of(V{1, 0}));
}

TEST(Hashing, Mix64AvalancheSmoke) {
  // Flipping any single input bit should flip roughly half the output bits.
  // This is a smoke check, not a statistical test: require every single-bit
  // flip to change at least 16 and at most 48 of the 64 output bits across
  // a handful of base points.
  for (const std::uint64_t base :
       {0ULL, 1ULL, 0x123456789abcdef0ULL, ~0ULL}) {
    const std::uint64_t h0 = detail::mix64(base);
    for (int bit = 0; bit < 64; ++bit) {
      const std::uint64_t h1 = detail::mix64(base ^ (1ULL << bit));
      const int flipped = std::popcount(h0 ^ h1);
      EXPECT_GE(flipped, 16) << "base=" << base << " bit=" << bit;
      EXPECT_LE(flipped, 48) << "base=" << base << " bit=" << bit;
    }
  }
}

TEST(Hashing, SaltsAreDistinct) {
  const std::uint64_t salts[] = {
      detail::kFpProcSalt,   detail::kFpStepSalt,  detail::kFpObserveSalt,
      detail::kFpObjectSalt, detail::kFpChooseSalt, detail::kFpDecideSalt,
      detail::kFpDoneSalt,   detail::kFpHungSalt,  detail::kFpCrashSalt,
      detail::kFpSleepSalt,  detail::kFpRunSalt,   detail::kFpInstanceSalt,
      detail::kFpRequestSalt, detail::kFpRecoverSalt};
  for (std::size_t i = 0; i < std::size(salts); ++i) {
    for (std::size_t j = i + 1; j < std::size(salts); ++j) {
      EXPECT_NE(salts[i], salts[j]) << i << " vs " << j;
    }
  }
}

TEST(Hashing, RequestDomainMirrorsInstanceDomain) {
  // Same shape as fp_instance_domain, different salt: the dedup-memo keys
  // of the sharded service can never alias instance-domain terms.
  EXPECT_EQ(detail::fp_request_domain(7),
            detail::mix64(7ULL ^ detail::kFpRequestSalt));
  EXPECT_NE(detail::fp_request_domain(7), detail::fp_instance_domain(7));
  EXPECT_NE(detail::fp_request_domain(7), detail::fp_request_domain(8));
}

TEST(VisitedSet, InsertThenHit) {
  detail::VisitedSet set(1024);
  EXPECT_FALSE(set.check_and_insert(0xdeadbeefULL));
  EXPECT_TRUE(set.check_and_insert(0xdeadbeefULL));
  EXPECT_EQ(set.size(), 1);
  EXPECT_EQ(set.hits(), 1);
}

TEST(VisitedSet, ZeroKeyIsRemappedNotSentinel) {
  // Key 0 is the empty-slot sentinel internally; inserting it must still
  // work (remapped to 1) — and must collide with an explicit key 1, which
  // is the documented aliasing of the remap, not a bug.
  detail::VisitedSet set(64);
  EXPECT_FALSE(set.check_and_insert(0));
  EXPECT_TRUE(set.check_and_insert(0));
  EXPECT_TRUE(set.check_and_insert(1));  // aliases remapped 0
}

TEST(VisitedSet, CollisionChainProbesLinearly) {
  // Collision-forcing: keys congruent modulo the slot count all land on the
  // same home slot, so each insert walks the chain the previous ones built.
  // Every key must still be found afterwards (linear probing never loses an
  // inserted key), and distinct colliding keys must not alias each other.
  detail::VisitedSet set(64);
  const std::size_t stride = set.slot_count();
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 1; i <= 16; ++i) {
    keys.push_back(7 + i * stride);  // same home slot: 7
  }
  for (const std::uint64_t k : keys) {
    EXPECT_FALSE(set.check_and_insert(k)) << k;
  }
  EXPECT_EQ(set.size(), static_cast<std::int64_t>(keys.size()));
  for (const std::uint64_t k : keys) {
    EXPECT_TRUE(set.check_and_insert(k)) << k;
  }
  // A fresh key on the same chain is still "not seen".
  EXPECT_FALSE(set.check_and_insert(7 + 17 * stride));
}

TEST(VisitedSet, SaturationStopsInsertingButStaysSound) {
  // Tiny capacity: the load limit trips well before the slot array fills.
  // Saturated probes must report "not seen" (the explorer then takes no cut
  // — sound) and must not grow the set.
  detail::VisitedSet set(8);
  std::uint64_t key = 1;
  while (!set.saturated()) {
    set.check_and_insert(key++);
  }
  const std::int64_t size_at_saturation = set.size();
  for (std::uint64_t k = 1000; k < 1100; ++k) {
    EXPECT_FALSE(set.check_and_insert(k));
  }
  EXPECT_EQ(set.size(), size_at_saturation);
  // Keys inserted before saturation are still hits.
  EXPECT_TRUE(set.check_and_insert(1));
}

TEST(TableSizing, SharedRuleAndItsLimits) {
  EXPECT_EQ(detail::table_slots(1), 64u);
  EXPECT_EQ(detail::table_slots(44), 64u);  // 44 / 64 ≈ 69% load
  EXPECT_EQ(detail::table_slots(45), 128u);
  EXPECT_EQ(detail::table_slots(detail::kMaxTableKeys),
            detail::kMaxTableKeys * 2);
  EXPECT_EQ(detail::checked_table_keys(detail::kMaxTableKeys, "knob"),
            detail::kMaxTableKeys);
  for (const std::size_t bad :
       {std::size_t{0}, detail::kMaxTableKeys + 1, SIZE_MAX}) {
    try {
      detail::checked_table_keys(bad, "Some::knob");
      FAIL() << bad << " accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("Some::knob"), std::string::npos);
    }
  }
}

#ifdef __linux__
/// This process's resident set size in bytes, from /proc/self/statm.
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t total_pages = 0;
  std::int64_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * sysconf(_SC_PAGESIZE);
}

TEST(VisitedSet, ResidentMemoryFollowsTouchedSlotsNotCapacity) {
  // 2^21 slots = 16 MiB of table. Consecutive keys land in consecutive
  // slots, so 1,000 inserts touch a few pages; a table zero-filled at
  // construction would be resident in full.
  const std::int64_t before = resident_bytes();
  detail::VisitedSet set(std::size_t{1} << 20);
  ASSERT_EQ(set.slot_count(), std::size_t{1} << 21);
  for (std::uint64_t key = 1; key <= 1000; ++key) {
    ASSERT_FALSE(set.check_and_insert(key));
  }
  const std::int64_t grown = resident_bytes() - before;
  EXPECT_LT(grown, std::int64_t{4} << 20) << grown << " bytes";
}
#endif

TEST(VisitedSet, ConcurrentInsertsOfSameKeyHaveExactlyOneWinner) {
  // The soundness-critical property for the parallel explorer: two
  // executions racing to record the same state must not BOTH see "already
  // visited" (both would cut and the state's subtree would never be
  // explored). Exactly one thread per key may lose (= get true) only if
  // another already won.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kKeys = 512;
  detail::VisitedSet set(4096);
  std::vector<std::vector<bool>> seen(kThreads,
                                      std::vector<bool>(kKeys, false));
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        seen[static_cast<std::size_t>(t)][k] =
            set.check_and_insert(detail::mix64(k));
      }
    });
  }
  for (std::thread& th : pool) {
    th.join();
  }
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    int winners = 0;
    for (int t = 0; t < kThreads; ++t) {
      if (!seen[static_cast<std::size_t>(t)][k]) {
        ++winners;
      }
    }
    EXPECT_EQ(winners, 1) << "key " << k;
  }
  EXPECT_EQ(set.size(), static_cast<std::int64_t>(kKeys));
}

}  // namespace
}  // namespace subc
