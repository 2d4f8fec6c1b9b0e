#include "cache/ttl_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>

namespace dde::cache {
namespace {

SimTime s(double x) { return SimTime::seconds(x); }

TEST(TtlCache, PutAndPeek) {
  TtlCache<int, std::string> c(4);
  c.put(1, "one", s(10), s(0));
  const auto* v = c.peek(1, s(1));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, "one");
  EXPECT_EQ(c.size(), 1u);
}

TEST(TtlCache, MissOnAbsentKey) {
  TtlCache<int, int> c(4);
  EXPECT_EQ(c.peek(7, s(0)), nullptr);
}

TEST(TtlCache, ExpiredEntryIsMiss) {
  TtlCache<int, int> c(4);
  c.put(1, 11, s(10), s(0));
  EXPECT_NE(c.peek(1, s(9)), nullptr);
  EXPECT_EQ(c.peek(1, s(10)), nullptr);
  EXPECT_EQ(c.peek(1, s(11)), nullptr);
}

TEST(TtlCache, PutOverwrites) {
  TtlCache<int, int> c(4);
  c.put(1, 11, s(10), s(0));
  c.put(1, 22, s(20), s(0));
  const auto* v = c.peek(1, s(15));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 22);
  EXPECT_EQ(c.size(), 1u);
}

TEST(TtlCache, CapacityEvictsLeastRecentlyPut) {
  TtlCache<int, int> c(2);
  c.put(1, 1, s(100), s(0));
  c.put(2, 2, s(100), s(0));
  // Refresh 1 so 2 becomes the least recently put.
  c.put(1, 1, s(100), s(1));
  c.put(3, 3, s(100), s(1));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_NE(c.peek(1, s(1)), nullptr);
  EXPECT_EQ(c.peek(2, s(1)), nullptr);  // evicted
  EXPECT_NE(c.peek(3, s(1)), nullptr);
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(TtlCache, EvictionPrefersExpired) {
  TtlCache<int, int> c(2);
  c.put(1, 1, s(5), s(0));    // expires early
  c.put(2, 2, s(100), s(0));
  // Refresh 1 so it is the most recently put — but it is expired at
  // insert time t=10.
  c.put(1, 1, s(5), s(1));
  c.put(3, 3, s(100), s(10));
  EXPECT_EQ(c.peek(1, s(10)), nullptr);  // expired entry went first
  EXPECT_NE(c.peek(2, s(10)), nullptr);
}

TEST(TtlCache, ZeroCapacityDisables) {
  TtlCache<int, int> c(0);
  c.put(1, 1, s(100), s(0));
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.peek(1, s(0)), nullptr);
}

TEST(TtlCache, PeekDoesNotTouchLruOrStats) {
  TtlCache<int, int> c(2);
  c.put(1, 1, s(100), s(0));
  c.put(2, 2, s(100), s(0));
  const CacheStats before = c.stats();
  EXPECT_NE(c.peek(1, s(1)), nullptr);
  EXPECT_EQ(c.peek(9, s(1)), nullptr);
  EXPECT_EQ(c.stats(), before);
  // Peeking 1 did not make it recent: it is still the LRU victim.
  c.put(3, 3, s(100), s(1));
  EXPECT_EQ(c.peek(1, s(1)), nullptr);
  EXPECT_NE(c.peek(2, s(1)), nullptr);
}

TEST(TtlCache, EraseKey) {
  TtlCache<int, int> c(4);
  c.put(1, 1, s(100), s(0));
  EXPECT_TRUE(c.erase_key(1));
  EXPECT_FALSE(c.erase_key(1));
  EXPECT_EQ(c.size(), 0u);
}

TEST(TtlCache, PruneDropsExpired) {
  TtlCache<int, int> c(8);
  c.put(1, 1, s(5), s(0));
  c.put(2, 2, s(10), s(0));
  c.put(3, 3, s(15), s(0));
  c.prune(s(10));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_NE(c.peek(3, s(10)), nullptr);
}

TEST(TtlCache, ClearEmpties) {
  TtlCache<int, int> c(4);
  c.put(1, 1, s(100), s(0));
  c.put(2, 2, s(100), s(0));
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.peek(1, s(0)), nullptr);
}

TEST(TtlCache, EraseIfByKeyAndValue) {
  TtlCache<int, int> c(8);
  for (int i = 0; i < 6; ++i) c.put(i, i * 10, s(100), s(0));
  c.erase_if([](int key, int value) { return key % 2 == 0 || value > 40; });
  EXPECT_EQ(c.size(), 2u);  // keys 1, 3 survive
  EXPECT_NE(c.peek(1, s(1)), nullptr);
  EXPECT_NE(c.peek(3, s(1)), nullptr);
  EXPECT_EQ(c.peek(0, s(1)), nullptr);
  EXPECT_EQ(c.peek(5, s(1)), nullptr);
}

TEST(TtlCache, EraseIfKeepsLruConsistent) {
  TtlCache<int, int> c(3);
  c.put(1, 1, s(100), s(0));
  c.put(2, 2, s(100), s(0));
  c.put(3, 3, s(100), s(0));
  c.erase_if([](int key, int) { return key == 2; });
  // Capacity again has room; inserting must not corrupt the list.
  c.put(4, 4, s(100), s(1));
  c.put(5, 5, s(100), s(1));  // evicts LRU (key 1)
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.peek(1, s(1)), nullptr);
  EXPECT_NE(c.peek(3, s(1)), nullptr);
}

TEST(TtlCache, RefreshDoesNotInflateInsertions) {
  // Regression: overwriting a live key used to count as a second insertion,
  // making insertions − evictions useless as a residency measure.
  TtlCache<int, int> c(4);
  c.put(1, 11, s(10), s(0));
  c.put(1, 22, s(20), s(1));
  EXPECT_EQ(c.stats().insertions, 1u);
  EXPECT_EQ(c.stats().refreshes, 1u);
}

TEST(TtlCache, ExpiryIsNotAnEviction) {
  // Regression: TTL expiry (prune, and the prune inside put) used to count
  // in `evictions`, conflating capacity pressure with data aging.
  TtlCache<int, int> c(8);
  c.put(1, 1, s(5), s(0));
  c.put(2, 2, s(100), s(0));
  c.prune(s(10));              // drops key 1 by TTL
  c.put(3, 3, s(200), s(101));  // drops key 2 by TTL
  EXPECT_EQ(c.stats().expired_drops, 2u);
  EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(TtlCache, CapacityEvictionIsNotAnExpiry) {
  TtlCache<int, int> c(2);
  c.put(1, 1, s(100), s(0));
  c.put(2, 2, s(100), s(0));
  c.put(3, 3, s(100), s(0));  // all live: LRU (key 1) evicted for room
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.stats().expired_drops, 0u);
  EXPECT_EQ(c.peek(1, s(1)), nullptr);
}

TEST(TtlCache, ClearCountsFlushed) {
  TtlCache<int, int> c(4);
  c.put(1, 1, s(100), s(0));
  c.put(2, 2, s(100), s(0));
  c.clear();
  EXPECT_EQ(c.stats().flushed, 2u);
  EXPECT_EQ(c.stats().evictions, 0u);
  EXPECT_EQ(c.stats().expired_drops, 0u);
}

TEST(TtlCache, RemovalCausesAreDisjoint) {
  // One entry per removal path; each lands in exactly one counter.
  TtlCache<int, int> c(2);
  c.put(1, 1, s(5), s(0));
  c.prune(s(6));              // expired_drops: 1
  c.put(2, 2, s(100), s(6));
  c.put(3, 3, s(100), s(6));
  c.put(4, 4, s(100), s(6));  // evictions: 1 (key 2, all live)
  c.clear();                  // flushed: 2
  EXPECT_EQ(c.stats().expired_drops, 1u);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_EQ(c.stats().flushed, 2u);
  EXPECT_EQ(c.stats().insertions, 4u);
}

TEST(TtlCache, EraseCountsInvalidated) {
  // Regression: erase_key/erase_if used to remove entries without landing
  // in any CacheStats bucket, so insertions − (live + removals) leaked.
  TtlCache<int, int> c(8);
  c.put(1, 1, s(100), s(0));
  c.put(2, 2, s(100), s(0));
  c.put(3, 3, s(100), s(0));
  EXPECT_TRUE(c.erase_key(1));
  EXPECT_FALSE(c.erase_key(1));  // a miss is not an invalidation
  c.erase_if([](int key, int) { return key == 3; });
  EXPECT_EQ(c.stats().invalidated, 2u);
  EXPECT_EQ(c.stats().evictions, 0u);
  EXPECT_EQ(c.stats().expired_drops, 0u);
  EXPECT_EQ(c.stats().flushed, 0u);
}

// Conservation identity: every inserted entry is either still resident or
// accounted to exactly one removal bucket.
//   insertions == size + evictions + expired_drops + flushed + invalidated
TEST(TtlCache, RemovalBucketsConserveInsertions) {
  TtlCache<int, int> c(4);
  const auto conserved = [&c] {
    const CacheStats& st = c.stats();
    return st.insertions == c.size() + st.evictions + st.expired_drops +
                                st.flushed + st.invalidated;
  };
  for (int i = 0; i < 10; ++i) {
    c.put(i, i, s(5.0 + i), s(static_cast<double>(i) * 0.1));
    EXPECT_TRUE(conserved());
  }
  c.prune(s(20));                 // every entry has expired
  c.put(6, 66, s(40), s(20));     // re-insert after expiry
  c.put(6, 67, s(50), s(21));     // refresh: no new insertion
  EXPECT_TRUE(conserved());
  c.erase_if([](int key, int) { return key % 2 == 1; });
  EXPECT_TRUE(conserved());
  (void)c.erase_key(6);
  EXPECT_TRUE(conserved());
  c.prune(s(30));
  EXPECT_TRUE(conserved());
  c.clear();
  EXPECT_TRUE(conserved());
  EXPECT_EQ(c.stats().insertions,
            c.stats().evictions + c.stats().expired_drops + c.stats().flushed +
                c.stats().invalidated);
}

TEST(TtlCache, ManyInsertionsStayWithinCapacity) {
  TtlCache<int, int> c(16);
  for (int i = 0; i < 1000; ++i) {
    c.put(i, i, s(2000), s(static_cast<double>(i)));
    EXPECT_LE(c.size(), 16u);
  }
  // The 16 most recent survive.
  for (int i = 984; i < 1000; ++i) {
    EXPECT_NE(c.peek(i, s(1000.5)), nullptr);
  }
}

// The key index holds only slot numbers and compares the key stored in
// the slot. Churn it through growth, tombstones, tombstone-driven rebuilds
// and clear() — keys sparse in their u64 codes so probes collide — and
// check every lookup against a plain map of what should be live.
TEST(TtlCache, IndexMatchesReferenceUnderChurn) {
  TtlCache<std::uint64_t, int> c(1000);  // no capacity evictions
  std::map<std::uint64_t, std::pair<int, SimTime>> want;  // value, expiry
  std::uint64_t rng = 12345;
  auto next = [&rng](std::uint64_t n) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return (rng >> 33) % n;
  };
  SimTime now;
  const auto prune_want = [&] {  // what put() and prune() drop
    for (auto it = want.begin(); it != want.end();) {
      it = it->second.second <= now ? want.erase(it) : std::next(it);
    }
  };
  for (int step = 0; step < 20000; ++step) {
    now += SimTime::millis(10);
    const std::uint64_t key = next(300) << 32 | next(4);
    switch (next(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // insert or refresh
        const int v = static_cast<int>(next(1000));
        const auto secs = static_cast<std::int64_t>(next(50));
        const SimTime expires = now + SimTime::millis(500 + 1000 * secs);
        c.put(key, v, expires, now);
        prune_want();
        want[key] = {v, expires};
        break;
      }
      case 4:
      case 5:
        EXPECT_EQ(c.erase_key(key), want.erase(key) == 1);
        break;
      case 6:
        if (step % 5000 == 6) {
          c.clear();
          want.clear();
        }
        break;
      default: {
        const auto it = want.find(key);
        const int* got = c.peek(key, now);
        if (it == want.end() || it->second.second <= now) {
          EXPECT_EQ(got, nullptr);
        } else {
          ASSERT_NE(got, nullptr);
          EXPECT_EQ(*got, it->second.first);
        }
      }
    }
    if (step % 1000 == 999) {
      c.prune(now);
      prune_want();
      ASSERT_EQ(c.size(), want.size());
      for (const auto& [k, entry] : want) {
        const int* got = c.peek(k, now);
        ASSERT_NE(got, nullptr) << k;
        EXPECT_EQ(*got, entry.first);
      }
    }
  }
}

/// A value big enough that one slot chunk (~4 KB) holds at most three
/// entries, so a few dozen keys span many chunks.
struct Bulky {
  int v = 0;
  char pad[1020] = {};
};

TEST(TtlCache, EntriesSpanSlotChunks) {
  TtlCache<int, Bulky> c(24);  // at least eight chunks when full
  std::map<int, int> want;     // the live entries: key → value
  auto live_at = [&](double now) {
    std::map<int, int> got;
    for (int k = 0; k < 64; ++k) {
      if (const Bulky* b = c.peek(k, s(now))) got[k] = b->v;
    }
    EXPECT_EQ(c.size(), got.size());
    return got;
  };
  auto put = [&](int k, double expires, double now) {
    c.put(k, Bulky{k * 10}, s(expires), s(now));
    want[k] = k * 10;
  };
  // Distinct expiries: key k expires at 100 + k. With no erase, n live
  // entries occupy exactly ceil(n / C) chunks of C slots.
  put(0, 100, 0);
  const std::size_t per_chunk = c.slot_capacity();
  ASSERT_GE(per_chunk, 1u);
  ASSERT_LE(per_chunk, 3u);
  for (int k = 1; k < 24; ++k) {
    put(k, 100 + k, 0);
    const std::size_t n = static_cast<std::size_t>(k) + 1;
    EXPECT_EQ(c.slot_capacity(), (n + per_chunk - 1) / per_chunk * per_chunk)
        << "after " << n << " entries";
  }
  const std::size_t full = c.slot_capacity();
  EXPECT_EQ(live_at(1), want);

  // LRU eviction at capacity: refreshing 0 and 4 spares them, so four new
  // keys evict 1, 2, 3 and 5 and take over their slots.
  put(0, 100, 1);
  put(4, 104, 1);
  for (int k = 30; k < 34; ++k) put(k, 200 + k, 2);
  for (int k : {1, 2, 3, 5}) want.erase(k);
  EXPECT_EQ(c.stats().evictions, 4u);
  EXPECT_EQ(live_at(3), want);

  // prune drops exactly the entries that expired, wherever they sit.
  c.prune(s(110.5));
  for (int k : {0, 4, 6, 7, 8, 9, 10}) want.erase(k);
  EXPECT_EQ(c.stats().expired_drops, 7u);
  EXPECT_EQ(live_at(110.5), want);

  // erase_if sees every live slot's own key and value.
  c.erase_if([](int key, const Bulky& b) {
    return key % 3 == 0 || b.v == 310;
  });
  for (int k : {12, 15, 18, 21, 30, 31, 33}) want.erase(k);
  EXPECT_EQ(c.stats().invalidated, 7u);
  EXPECT_EQ(live_at(110.5), want);

  // Fourteen new keys fill the fourteen freed slots back to capacity; the
  // LRU tail is still the oldest survivor.
  for (int k = 40; k < 54; ++k) put(k, 300 + k, 110.6);
  EXPECT_EQ(live_at(110.6), want);
  for (int k = 60; k < 63; ++k) put(k, 400 + k, 110.7);
  for (int k : {11, 13, 14}) want.erase(k);
  put(16, 116, 110.7);
  put(63, 463, 110.8);  // 16 was refreshed, so 17 goes
  want.erase(17);
  EXPECT_EQ(c.stats().evictions, 8u);
  EXPECT_EQ(live_at(110.8), want);
  // Every freed slot was reused: no chunk beyond the first 24 entries'.
  EXPECT_EQ(c.slot_capacity(), full);

  c.clear();
  EXPECT_EQ(c.slot_capacity(), 0u);
}

}  // namespace
}  // namespace dde::cache
