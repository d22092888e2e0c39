// Unit tests for the FTL: mapping table (map bits), L2P cache (buckets,
// LRU, pinning) and the translator's three search strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ftl/l2p_cache.hpp"
#include "ftl/mapping.hpp"
#include "ftl/translator.hpp"

namespace conzone {
namespace {

MappingGeometry SmallMapGeo() {
  MappingGeometry g;
  g.num_lpns = 16384;       // 4 zones of 4096
  g.lpns_per_chunk = 1024;  // 4 chunks per zone
  g.lpns_per_zone = 4096;
  g.entries_per_map_page = 4096;
  return g;
}

L2pCacheConfig SmallCacheCfg(std::uint64_t entries = 8) {
  L2pCacheConfig c;
  c.capacity_bytes = entries * 4;
  c.entry_bytes = 4;
  c.lpns_per_chunk = 1024;
  c.lpns_per_zone = 4096;
  return c;
}

// --- mapping table ---

TEST(MappingTableTest, SetGetUnmap) {
  MappingTable t(SmallMapGeo());
  EXPECT_FALSE(t.Get(Lpn{5}).mapped());
  t.Set(Lpn{5}, Ppn{100});
  EXPECT_TRUE(t.Get(Lpn{5}).mapped());
  EXPECT_EQ(t.Get(Lpn{5}).ppn, Ppn{100});
  EXPECT_EQ(t.Get(Lpn{5}).gran, MapGranularity::kPage);
  EXPECT_EQ(t.mapped_count(), 1u);
  t.Unmap(Lpn{5});
  EXPECT_FALSE(t.Get(Lpn{5}).mapped());
  EXPECT_EQ(t.mapped_count(), 0u);
}

TEST(MappingTableTest, SetResetsGranularity) {
  MappingTable t(SmallMapGeo());
  t.Set(Lpn{0}, Ppn{1});
  t.SetAggregated(Lpn{0}, 1, MapGranularity::kChunk);
  EXPECT_EQ(t.Get(Lpn{0}).gran, MapGranularity::kChunk);
  t.Set(Lpn{0}, Ppn{2});  // remap downgrades to page
  EXPECT_EQ(t.Get(Lpn{0}).gran, MapGranularity::kPage);
}

TEST(MappingTableTest, AggregateAndDowngradeRanges) {
  MappingTable t(SmallMapGeo());
  for (std::uint64_t i = 0; i < 1024; ++i) t.Set(Lpn{i}, Ppn{i});
  t.SetAggregated(Lpn{0}, 1024, MapGranularity::kChunk);
  EXPECT_EQ(t.Get(Lpn{0}).gran, MapGranularity::kChunk);
  EXPECT_EQ(t.Get(Lpn{1023}).gran, MapGranularity::kChunk);
  t.DowngradeToPage(Lpn{0}, 1024);
  EXPECT_EQ(t.Get(Lpn{512}).gran, MapGranularity::kPage);
  // PPNs survive bit flips — the table is always a full page map.
  EXPECT_EQ(t.Get(Lpn{512}).ppn, Ppn{512});
}

TEST(MappingTableTest, AddressHelpers) {
  MappingTable t(SmallMapGeo());
  EXPECT_EQ(t.ChunkOf(Lpn{1025}).value(), 1u);
  EXPECT_EQ(t.ZoneOf(Lpn{4097}).value(), 1u);
  EXPECT_EQ(t.ChunkBase(ChunkId{2}), Lpn{2048});
  EXPECT_EQ(t.ZoneBase(ZoneId{1}), Lpn{4096});
  EXPECT_EQ(t.MapPageOf(Lpn{4095}), 0u);
  EXPECT_EQ(t.MapPageOf(Lpn{4096}), 1u);
  EXPECT_EQ(t.NumMapPages(), 4u);
}

// --- l2p cache ---

TEST(L2PCacheTest, HitRefreshesRecency) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kPage, 1}, Ppn{10});
  c.Insert({MapGranularity::kPage, 2}, Ppn{20});
  // Touch entry 1, then insert a third: entry 2 must be the victim.
  EXPECT_TRUE(c.Lookup({MapGranularity::kPage, 1}).has_value());
  c.Insert({MapGranularity::kPage, 3}, Ppn{30});
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 1}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 2}).has_value());
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(L2PCacheTest, GranularityIsPartOfTheKey) {
  L2PCache c(SmallCacheCfg(4));
  c.Insert({MapGranularity::kPage, 0}, Ppn{1});
  c.Insert({MapGranularity::kChunk, 0}, Ppn{2});
  c.Insert({MapGranularity::kZone, 0}, Ppn{3});
  EXPECT_EQ(c.Peek({MapGranularity::kPage, 0}).value(), Ppn{1});
  EXPECT_EQ(c.Peek({MapGranularity::kChunk, 0}).value(), Ppn{2});
  EXPECT_EQ(c.Peek({MapGranularity::kZone, 0}).value(), Ppn{3});
}

TEST(L2PCacheTest, PinnedEntriesSurviveEviction) {
  L2PCache c(SmallCacheCfg(3));
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    c.Insert({MapGranularity::kPage, i}, Ppn{100 + i});
  }
  EXPECT_TRUE(c.Peek({MapGranularity::kZone, 0}).has_value());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.pinned_count(), 1u);
}

TEST(L2PCacheTest, AllPinnedRejectsUnpinnedInsert) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, true);
  c.Insert({MapGranularity::kZone, 1}, Ppn{2}, true);
  c.Insert({MapGranularity::kPage, 9}, Ppn{3});
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 9}).has_value());
  EXPECT_EQ(c.stats().rejected_insertions, 1u);
}

TEST(L2PCacheTest, EvictCoveredByRemovesFinerEntries) {
  L2PCache c(SmallCacheCfg(16));
  c.Insert({MapGranularity::kPage, 100}, Ppn{1});
  c.Insert({MapGranularity::kPage, 5000}, Ppn{2});   // different zone
  c.Insert({MapGranularity::kChunk, 0}, Ppn{3});     // chunk 0 of zone 0
  c.Insert({MapGranularity::kZone, 0}, Ppn{4}, true);
  c.EvictCoveredBy({MapGranularity::kZone, 0});
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 100}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kChunk, 0}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 5000}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kZone, 0}).has_value());
}

TEST(L2PCacheTest, InvalidateLpnRangeRemovesOverlaps) {
  L2PCache c(SmallCacheCfg(16));
  c.Insert({MapGranularity::kPage, 4096}, Ppn{1});
  c.Insert({MapGranularity::kChunk, 4}, Ppn{2});  // lpns 4096..5119
  c.Insert({MapGranularity::kZone, 1}, Ppn{3});   // lpns 4096..8191
  c.Insert({MapGranularity::kPage, 0}, Ppn{4});   // untouched
  c.InvalidateLpnRange(Lpn{4096}, 1024);
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 4096}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kChunk, 4}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kZone, 1}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 0}).has_value());
}

TEST(L2PCacheTest, StatsTrackHitRate) {
  L2PCache c(SmallCacheCfg(4));
  c.Insert({MapGranularity::kPage, 1}, Ppn{1});
  (void)c.Lookup({MapGranularity::kPage, 1});
  (void)c.Lookup({MapGranularity::kPage, 2});
  EXPECT_EQ(c.stats().lookups, 2u);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(c.stats().HitRate(), 0.5);
}

TEST(L2PCacheTest, KeyForComputesUnitIndex) {
  L2PCache c(SmallCacheCfg(4));
  EXPECT_EQ(c.KeyFor(MapGranularity::kPage, Lpn{4097}).index, 4097u);
  EXPECT_EQ(c.KeyFor(MapGranularity::kChunk, Lpn{4097}).index, 4u);
  EXPECT_EQ(c.KeyFor(MapGranularity::kZone, Lpn{4097}).index, 1u);
}

// --- l2p cache: eviction order & capacity (pins the intrusive-LRU
// rewrite against the seed list+map semantics) ---

TEST(L2PCacheTest, EvictionFollowsExactLruOrder) {
  L2PCache c(SmallCacheCfg(4));
  for (std::uint64_t i = 0; i < 4; ++i) {
    c.Insert({MapGranularity::kPage, i}, Ppn{i});
  }
  // Recency now (most..least): 3 2 1 0. Touch 0 and 2: 2 0 3 1.
  EXPECT_TRUE(c.Lookup({MapGranularity::kPage, 0}).has_value());
  EXPECT_TRUE(c.Lookup({MapGranularity::kPage, 2}).has_value());
  // Each insert at capacity evicts exactly the current LRU entry.
  c.Insert({MapGranularity::kPage, 10}, Ppn{10});  // evicts 1
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 1}).has_value());
  c.Insert({MapGranularity::kPage, 11}, Ppn{11});  // evicts 3
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 3}).has_value());
  c.Insert({MapGranularity::kPage, 12}, Ppn{12});  // evicts 0
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 0}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 2}).has_value());
  EXPECT_EQ(c.stats().evictions, 3u);
  EXPECT_EQ(c.size(), 4u);
}

TEST(L2PCacheTest, RefreshInPlaceUpdatesValueAndRecency) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kPage, 1}, Ppn{10});
  c.Insert({MapGranularity::kPage, 2}, Ppn{20});
  c.Insert({MapGranularity::kPage, 1}, Ppn{11});  // refresh: new ppn, MRU
  EXPECT_EQ(c.Peek({MapGranularity::kPage, 1}).value(), Ppn{11});
  EXPECT_EQ(c.stats().insertions, 2u);  // refresh is not a new insertion
  c.Insert({MapGranularity::kPage, 3}, Ppn{30});  // evicts 2, not 1
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 1}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 2}).has_value());
}

TEST(L2PCacheTest, RefreshCanFlipPinnedState) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/true);
  EXPECT_EQ(c.pinned_count(), 1u);
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/false);
  EXPECT_EQ(c.pinned_count(), 0u);
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/true);
  EXPECT_EQ(c.pinned_count(), 1u);
}

TEST(L2PCacheTest, CapacityNeverExceededUnderChurn) {
  L2PCache c(SmallCacheCfg(8));
  for (std::uint64_t i = 0; i < 1000; ++i) {
    c.Insert({MapGranularity::kPage, i * 37}, Ppn{i});
    ASSERT_LE(c.size(), 8u);
  }
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(c.stats().insertions, 1000u);
  EXPECT_EQ(c.stats().evictions, 992u);
  // The survivors are exactly the 8 most recently inserted keys.
  for (std::uint64_t i = 992; i < 1000; ++i) {
    EXPECT_TRUE(c.Peek({MapGranularity::kPage, i * 37}).has_value());
  }
}

TEST(L2PCacheTest, EraseThenReinsertReusesCapacity) {
  L2PCache c(SmallCacheCfg(4));
  for (std::uint64_t i = 0; i < 4; ++i) {
    c.Insert({MapGranularity::kPage, i}, Ppn{i});
  }
  c.Erase({MapGranularity::kPage, 2});
  EXPECT_EQ(c.size(), 3u);
  c.Insert({MapGranularity::kPage, 99}, Ppn{99});
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.stats().evictions, 0u);  // freed capacity, no eviction needed
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 99}).has_value());
}

TEST(L2PCacheTest, ZeroCapacityCacheAcceptsNothing) {
  L2PCache c(SmallCacheCfg(0));
  c.Insert({MapGranularity::kPage, 1}, Ppn{1});
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.Lookup({MapGranularity::kPage, 1}).has_value());
  EXPECT_EQ(c.stats().lookups, 1u);
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(L2PCacheTest, HeavyChurnKeepsHashIndexConsistent) {
  // Backward-shift deletion stress: interleaved insert/erase with keys
  // that collide across granularities; every surviving entry must stay
  // findable with its exact value.
  L2PCache c(SmallCacheCfg(32));
  for (std::uint64_t round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      c.Insert({MapGranularity::kPage, round * 32 + i}, Ppn{round * 32 + i});
    }
    for (std::uint64_t i = 0; i < 16; ++i) {
      c.Erase({MapGranularity::kPage, round * 32 + i * 2});
    }
    for (std::uint64_t i = 0; i < 32; ++i) {
      const std::uint64_t k = round * 32 + i;
      auto hit = c.Peek({MapGranularity::kPage, k});
      if (i % 2 == 0 && hit.has_value()) FAIL() << "erased key resurfaced: " << k;
      if (i % 2 == 1) {
        ASSERT_TRUE(hit.has_value()) << "lost key " << k;
        EXPECT_EQ(hit.value(), Ppn{k});
      }
    }
  }
}

// --- l2p cache: InsertRun against an independent reference LRU ---

/// The L2P cache's contract written the plain way: std::list for recency
/// (front = most recent) plus a map from encoded key to list position.
/// InsertRun is defined as the sequence of Inserts it stands for.
class ReferenceL2p {
 public:
  ReferenceL2p(std::uint64_t capacity, std::uint64_t lpns_per_chunk,
               std::uint64_t lpns_per_zone)
      : cap_(capacity), per_chunk_(lpns_per_chunk), per_zone_(lpns_per_zone) {}

  std::optional<Ppn> Lookup(const L2pKey& k) {
    ++stats_.lookups;
    auto it = where_.find(k.Encoded());
    if (it == where_.end()) return std::nullopt;
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->ppn;
  }

  std::optional<Ppn> Peek(const L2pKey& k) const {
    auto it = where_.find(k.Encoded());
    if (it == where_.end()) return std::nullopt;
    return it->second->ppn;
  }

  void Insert(const L2pKey& k, Ppn ppn, bool pinned) {
    if (cap_ == 0) return;
    auto it = where_.find(k.Encoded());
    if (it != where_.end()) {
      it->second->ppn = ppn;
      it->second->pinned = pinned;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= cap_) {
      auto victim = lru_.end();
      for (auto v = lru_.rbegin(); v != lru_.rend(); ++v) {
        if (!v->pinned) {
          victim = std::prev(v.base());
          break;
        }
      }
      if (victim == lru_.end()) {  // every resident entry is pinned
        ++stats_.rejected_insertions;
        return;
      }
      where_.erase(victim->key);
      lru_.erase(victim);
      ++stats_.evictions;
    }
    lru_.push_front(Entry{k.Encoded(), ppn, pinned});
    where_[k.Encoded()] = lru_.begin();
    ++stats_.insertions;
  }

  void InsertRun(const MappingTable& table, Lpn first, std::uint64_t count) {
    for (std::uint64_t l = first.value(); l < first.value() + count; ++l) {
      Insert({MapGranularity::kPage, l}, table.Get(Lpn{l}).ppn, false);
    }
  }

  void Erase(const L2pKey& k) {
    auto it = where_.find(k.Encoded());
    if (it == where_.end()) return;
    lru_.erase(it->second);
    where_.erase(it);
  }

  void EvictCoveredBy(const L2pKey& k) {
    if (k.gran == MapGranularity::kPage) return;
    const std::uint64_t unit = k.gran == MapGranularity::kZone ? per_zone_ : per_chunk_;
    const std::uint64_t start = k.index * unit;
    if (k.gran == MapGranularity::kZone) {
      for (std::uint64_t c = 0; c < unit / per_chunk_; ++c) {
        Erase({MapGranularity::kChunk, start / per_chunk_ + c});
      }
    }
    for (std::uint64_t i = 0; i < unit; ++i) Erase({MapGranularity::kPage, start + i});
  }

  void InvalidateLpnRange(Lpn start, std::uint64_t count) {
    const std::uint64_t lo = start.value();
    const std::uint64_t hi = lo + count;
    for (std::uint64_t l = lo; l < hi; ++l) Erase({MapGranularity::kPage, l});
    for (std::uint64_t c = lo / per_chunk_; c * per_chunk_ < hi; ++c) {
      Erase({MapGranularity::kChunk, c});
    }
    for (std::uint64_t z = lo / per_zone_; z * per_zone_ < hi; ++z) {
      Erase({MapGranularity::kZone, z});
    }
  }

  /// Least recently used page key, if the LRU end holds one.
  std::optional<std::uint64_t> TailPageLpn() const {
    if (lru_.empty() || (lru_.back().key & 3) != 0) return std::nullopt;
    return lru_.back().key >> 2;
  }

  std::size_t size() const { return lru_.size(); }
  const L2pCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t key;
    Ppn ppn;
    bool pinned;
  };
  std::uint64_t cap_, per_chunk_, per_zone_;
  std::list<Entry> lru_;
  std::map<std::uint64_t, std::list<Entry>::iterator> where_;
  L2pCacheStats stats_;
};

TEST(L2PCacheTest, InsertRunMatchesSequentialInsertsUnderRandomOps) {
  // 8 zones x 4 chunks x 4 pages: 128 page, 32 chunk and 8 zone keys.
  // Runs that start at the LRU tail creep upward past kLpns, so the
  // mapping table they read their ppns from is far larger.
  constexpr std::uint64_t kLpns = 128;
  constexpr std::uint64_t kPerChunk = 4;
  constexpr std::uint64_t kPerZone = 16;
  constexpr std::uint64_t kTableLpns = 1 << 18;
  auto random_key = [&](Rng& rng) {
    switch (rng.NextBelow(4)) {
      case 0: return L2pKey{MapGranularity::kZone, rng.NextBelow(kLpns / kPerZone)};
      case 1: return L2pKey{MapGranularity::kChunk, rng.NextBelow(kLpns / kPerChunk)};
      default: return L2pKey{MapGranularity::kPage, rng.NextBelow(kLpns)};
    }
  };
  for (std::uint64_t cap : {0u, 1u, 8u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      L2pCacheConfig cfg;
      cfg.capacity_bytes = cap * 4;
      cfg.entry_bytes = 4;
      cfg.lpns_per_chunk = kPerChunk;
      cfg.lpns_per_zone = kPerZone;
      MappingGeometry geo;
      geo.num_lpns = kTableLpns;
      geo.lpns_per_chunk = kPerChunk;
      geo.lpns_per_zone = kPerZone;
      MappingTable table(geo);
      for (std::uint64_t l = 0; l < kTableLpns; ++l) table.Set(Lpn{l}, Ppn{l});
      L2PCache cache(cfg);
      ReferenceL2p ref(cap, kPerChunk, kPerZone);
      Rng rng(seed * 1000 + cap);
      std::uint64_t next_ppn = kTableLpns;
      std::uint64_t top = kLpns;  // one past the highest run key so far
      for (int op = 0; op < 1500; ++op) {
        const std::uint64_t dice = rng.NextBelow(100);
        std::string what;
        if (dice < 18) {
          const L2pKey k = random_key(rng);
          const Ppn p{next_ppn++};
          cache.Insert(k, p);
          ref.Insert(k, p, false);
          what = "Insert";
        } else if (dice < 26) {
          const L2pKey k = random_key(rng);
          const Ppn p{next_ppn++};
          cache.Insert(k, p, /*pinned=*/true);
          ref.Insert(k, p, true);
          what = "pinned Insert";
        } else if (dice < 52) {
          // Half the runs start at or just below the LRU tail's key, so
          // they overlap resident keys about to be evicted; lengths reach
          // past the largest capacity.
          std::uint64_t first = rng.NextBelow(kLpns);
          if (auto tail = ref.TailPageLpn(); tail && rng.NextBool(0.5)) {
            first = *tail - std::min<std::uint64_t>(*tail, rng.NextBelow(4));
          }
          const std::uint64_t len = 1 + rng.NextBelow(rng.NextBool(0.2) ? 100 : 12);
          // Half the runs remap their lpns first, erasing each key as
          // the devices do on every table write.
          if (rng.NextBool(0.5)) {
            for (std::uint64_t l = first; l < first + len; ++l) {
              cache.Erase({MapGranularity::kPage, l});
              ref.Erase({MapGranularity::kPage, l});
              table.Set(Lpn{l}, Ppn{next_ppn++});
            }
          }
          cache.InsertRun(table, Lpn{first}, len);
          ref.InsertRun(table, Lpn{first}, len);
          top = std::max(top, first + len);
          what = "InsertRun(" + std::to_string(first) + ", " + std::to_string(len) + ")";
        } else if (dice < 78) {
          const L2pKey k = random_key(rng);
          ASSERT_EQ(cache.Lookup(k), ref.Lookup(k)) << "op " << op;
          what = "Lookup";
        } else if (dice < 88) {
          const L2pKey k = random_key(rng);
          cache.Erase(k);
          ref.Erase(k);
          what = "Erase";
        } else if (dice < 92) {
          const L2pKey k = random_key(rng);
          cache.EvictCoveredBy(k);
          ref.EvictCoveredBy(k);
          what = "EvictCoveredBy";
        } else {
          const std::uint64_t start = rng.NextBelow(kLpns);
          const std::uint64_t count = 1 + rng.NextBelow(24);
          cache.InvalidateLpnRange(Lpn{start}, count);
          ref.InvalidateLpnRange(Lpn{start}, count);
          what = "InvalidateLpnRange";
        }
        SCOPED_TRACE("cap " + std::to_string(cap) + " seed " + std::to_string(seed) +
                     " op " + std::to_string(op) + " " + what);
        ASSERT_EQ(cache.size(), ref.size());
        const L2pCacheStats& a = cache.stats();
        const L2pCacheStats& b = ref.stats();
        ASSERT_EQ(a.lookups, b.lookups);
        ASSERT_EQ(a.hits, b.hits);
        ASSERT_EQ(a.insertions, b.insertions);
        ASSERT_EQ(a.evictions, b.evictions);
        ASSERT_EQ(a.rejected_insertions, b.rejected_insertions);
        for (std::uint64_t l = 0; l < top; ++l) {
          const L2pKey k{MapGranularity::kPage, l};
          ASSERT_EQ(cache.Peek(k), ref.Peek(k)) << "page " << l;
        }
        for (std::uint64_t c = 0; c < kLpns / kPerChunk; ++c) {
          const L2pKey k{MapGranularity::kChunk, c};
          ASSERT_EQ(cache.Peek(k), ref.Peek(k)) << "chunk " << c;
        }
        for (std::uint64_t z = 0; z < kLpns / kPerZone; ++z) {
          const L2pKey k{MapGranularity::kZone, z};
          ASSERT_EQ(cache.Peek(k), ref.Peek(k)) << "zone " << z;
        }
      }
    }
  }
}

// --- translator ---

/// Resolver over a flat imaginary layout: aggregated unit i maps lpn to
/// ppn = 100000*gran + lpn (keeps the math visible in expectations).
class FlatResolver : public PhysicalResolver {
 public:
  std::optional<Ppn> ResolveAggregated(MapGranularity gran, std::uint64_t,
                                       Lpn lpn) const override {
    return Ppn{100000ull * static_cast<std::uint64_t>(gran) + lpn.value()};
  }
};

class TranslatorTest : public ::testing::Test {
 protected:
  TranslatorTest()
      : table_(SmallMapGeo()), cache_(SmallCacheCfg(64)) {}

  Translator Make(L2pSearchStrategy s, bool hybrid = true,
                  std::uint32_t prefetch = 0) {
    return Translator(table_, cache_, resolver_, TranslatorConfig{s, hybrid, prefetch});
  }

  /// Map zone 0 fully, zone-aggregated; zone 1 chunk-aggregated in chunk
  /// 4 only; lpns 8192.. page-mapped.
  void PopulateMixed() {
    for (std::uint64_t i = 0; i < 12288; ++i) table_.Set(Lpn{i}, Ppn{7000000 + i});
    table_.SetAggregated(Lpn{0}, 4096, MapGranularity::kZone);
    table_.SetAggregated(Lpn{4096}, 1024, MapGranularity::kChunk);
  }

  MappingTable table_;
  L2PCache cache_;
  FlatResolver resolver_;
};

TEST_F(TranslatorTest, UnmappedLpnFails) {
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  EXPECT_EQ(tr.Translate(Lpn{99}).status().code(), StatusCode::kOutOfRange);
}

TEST_F(TranslatorTest, BitmapFetchesExactlyOnce) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  auto r = tr.Translate(Lpn{123});  // zone-aggregated
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().cache_hit);
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
  EXPECT_EQ(r.value().gran, MapGranularity::kZone);
  EXPECT_EQ(r.value().ppn, Ppn{200000 + 123});  // resolver(kZone)
  // Second read of anywhere in zone 0: cache hit through the zone entry.
  auto r2 = tr.Translate(Lpn{4000});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().cache_hit);
  EXPECT_EQ(tr.stats().map_fetches, 1u);
}

TEST_F(TranslatorTest, MultipleWalksDownTheGranularities) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kMultiple);
  // Page-mapped lpn far from zone/chunk bases: LZA, LCA, LPA = 3 fetches.
  auto r = tr.Translate(Lpn{8192 + 1500});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().map_pages_fetched.size(), 3u);
  EXPECT_EQ(r.value().gran, MapGranularity::kPage);
  EXPECT_EQ(r.value().ppn, Ppn{7000000 + 8192 + 1500});
}

TEST_F(TranslatorTest, MultipleStopsEarlyOnZoneAggregate) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kMultiple);
  auto r = tr.Translate(Lpn{2000});  // zone 0, aggregated
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
  EXPECT_EQ(r.value().gran, MapGranularity::kZone);
}

TEST_F(TranslatorTest, MultipleChunkCostsTwoFetches) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kMultiple);
  auto r = tr.Translate(Lpn{4096 + 500});  // chunk-aggregated, chunk base == zone base
  ASSERT_TRUE(r.ok());
  // Zone base IS the chunk base here, so the first fetch answers: 1 fetch.
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
  EXPECT_EQ(r.value().gran, MapGranularity::kChunk);
}

TEST_F(TranslatorTest, PinnedMissImpliesPage) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kPinned);
  // Zone aggregate generated -> pinned into the cache.
  tr.OnAggregateGenerated(MapGranularity::kZone, 0, Ppn{100});
  auto hit = tr.Translate(Lpn{55});
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  // Page-mapped miss: exactly one fetch.
  auto r = tr.Translate(Lpn{9000});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
}

TEST_F(TranslatorTest, PageModeUsesPageEntriesOnly) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap, /*hybrid=*/false);
  auto r = tr.Translate(Lpn{123});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().gran, MapGranularity::kPage);
  EXPECT_EQ(r.value().ppn, Ppn{7000000 + 123});  // direct table ppn
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
}

TEST_F(TranslatorTest, PrefetchWindowFillsFollowingEntries) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap, /*hybrid=*/false,
                       /*prefetch=*/16);
  auto r = tr.Translate(Lpn{8192});
  ASSERT_TRUE(r.ok());
  // The next 16 lpns are now cached without extra fetches, and each hit
  // returns the table's ppn.
  for (std::uint64_t i = 1; i <= 16; ++i) {
    auto n = tr.Translate(Lpn{8192 + i});
    ASSERT_TRUE(n.ok());
    EXPECT_TRUE(n.value().cache_hit) << i;
    EXPECT_EQ(n.value().ppn, table_.Get(Lpn{8192 + i}).ppn) << i;
  }
  EXPECT_EQ(tr.stats().map_fetches, 1u);
}

TEST_F(TranslatorTest, PrefetchStopsAtFirstUnmappedEntry) {
  PopulateMixed();
  table_.Unmap(Lpn{8192 + 5});
  Translator tr = Make(L2pSearchStrategy::kBitmap, /*hybrid=*/false,
                       /*prefetch=*/16);
  ASSERT_TRUE(tr.Translate(Lpn{8192}).ok());
  for (std::uint64_t i = 1; i < 5; ++i) {
    auto n = tr.Translate(Lpn{8192 + i});
    ASSERT_TRUE(n.ok());
    EXPECT_TRUE(n.value().cache_hit) << i;
    EXPECT_EQ(n.value().ppn, table_.Get(Lpn{8192 + i}).ppn) << i;
  }
  // Nothing at or past the hole was prefetched.
  for (std::uint64_t i = 5; i <= 16; ++i) {
    EXPECT_FALSE(cache_.Peek({MapGranularity::kPage, 8192 + i}).has_value()) << i;
  }
  EXPECT_EQ(tr.Translate(Lpn{8192 + 5}).status().code(), StatusCode::kOutOfRange);
  auto after = tr.Translate(Lpn{8192 + 6});
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().cache_hit);
  EXPECT_EQ(tr.stats().map_fetches, 2u);
}

TEST_F(TranslatorTest, PrefetchStopsAtMapPageBoundary) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap, false, 1023);
  // Lpn 4095 is the last entry of map page 0: nothing after it can be
  // prefetched from the same page read.
  auto r = tr.Translate(Lpn{4095});
  ASSERT_TRUE(r.ok());
  auto n = tr.Translate(Lpn{4096});
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(n.value().cache_hit);
}

TEST_F(TranslatorTest, StatsAccumulate) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  (void)tr.Translate(Lpn{1});
  (void)tr.Translate(Lpn{2});
  EXPECT_EQ(tr.stats().translations, 2u);
  EXPECT_EQ(tr.stats().cache_hits, 1u);  // second resolves via zone entry
  EXPECT_DOUBLE_EQ(tr.stats().MissRate(), 0.5);
}

TEST_F(TranslatorTest, BitmapSramScalesWithCapacity) {
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  // 2 bits x 16384 lpns = 4096 bytes.
  EXPECT_EQ(tr.StrategySramBytes(), 4096u);
  Translator tm = Make(L2pSearchStrategy::kMultiple);
  EXPECT_EQ(tm.StrategySramBytes(), 0u);
}

}  // namespace
}  // namespace conzone
