// The volatile L2P cache (paper §III-C).
//
// Consumer-grade storage has only a few KiB of SRAM for L2P caching, so
// each cached entry is precious. An entry maps a *logical unit* at one of
// three granularities — page (LPA), chunk (LCA), zone (LZA) — to the
// physical slot of the unit's first 4 KiB page; lookups probe the three
// granularities coarse-to-fine, and a hit computes the final PPA by
// adding the offset of the original LPA inside the unit.
//
// Organization: entries are hashed into buckets (the paper's bucketed
// search) with a global LRU chain for eviction. Entries inserted as
// *pinned* (the §IV-D PINNED design) are exempt from eviction; when an
// aggregated entry is generated, the finer-granularity entries it covers
// are evicted to reclaim capacity.
//
// Storage: single entries live in a flat slot array sized to the
// configured capacity; the LRU chain is intrusive (prev/next slot indices
// inside each entry) and the hash index is an open-addressing table of
// slot indices (linear probing, backward-shift deletion). Lookups,
// inserts and evictions touch contiguous memory — this sits on the per-IO
// hot path of every read.
//
// Runs: Legacy's sequential prefetch (§IV-C) inserts up to 1024 page
// entries of one map page per miss. InsertRun keeps them as one LRU node
// for the page-key range [lo, lo+len) — lower lpns older, as if inserted
// one by one in ascending order. A run node holds keys only: a hit on a
// run key reads its ppn from the mapping table, which is current because
// every table write erases the key it changes. Run nodes are not hashed;
// a sorted index of run start lpns finds them. Bulk eviction trims the
// tail run from its low end; a hit, erase or invalidation inside a run
// splits or trims it. A cache that never sees InsertRun (ConZone) pays
// one "any runs?" branch.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/fastdiv.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "ftl/mapping.hpp"

namespace conzone {

/// Identity of a cached translation: granularity + index of the logical
/// unit (lpn / units-per-granularity).
struct L2pKey {
  MapGranularity gran = MapGranularity::kPage;
  std::uint64_t index = 0;

  std::uint64_t Encoded() const { return (index << 2) | static_cast<std::uint64_t>(gran); }
  friend bool operator==(const L2pKey&, const L2pKey&) = default;
};

struct L2pCacheConfig {
  std::uint64_t capacity_bytes = 12 * kKiB;  ///< §IV-A scaled-down budget.
  std::uint32_t entry_bytes = 4;             ///< §IV-D packed-entry figure.
  std::uint32_t lpns_per_chunk = 1024;
  std::uint32_t lpns_per_zone = 4096;

  std::uint64_t MaxEntries() const {
    return entry_bytes ? capacity_bytes / entry_bytes : 0;
  }
};

struct L2pCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected_insertions = 0;  ///< Cache full of pinned entries.

  double HitRate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
  double MissRate() const { return lookups ? 1.0 - HitRate() : 0.0; }
};

class L2PCache {
 public:
  explicit L2PCache(const L2pCacheConfig& config);

  /// Probe one granularity level. A hit refreshes LRU recency and returns
  /// the base PPA of the logical unit.
  std::optional<Ppn> Lookup(const L2pKey& key);

  /// Probe without touching recency or statistics (diagnostics).
  std::optional<Ppn> Peek(const L2pKey& key) const;

  /// Insert (or refresh) a translation. Evicts the LRU unpinned entry
  /// when full; if every resident entry is pinned the insertion of an
  /// unpinned entry is dropped.
  void Insert(const L2pKey& key, Ppn base_ppn, bool pinned = false);

  /// Insert unpinned page entries for lpns first .. first+count-1. The
  /// result — resident set, LRU order and every statistic — is exactly
  /// that of calling Insert({kPage, l}, table.Get(l).ppn) for l = first,
  /// first+1, ... in order, including keys already resident (refreshed,
  /// or evicted by an earlier key of the run and re-inserted), pinned
  /// entries, and runs longer than the capacity. The run keys' ppns are
  /// read from `table` on each hit, so the caller erases a key whenever
  /// it changes the key's table entry. One table per cache.
  void InsertRun(const MappingTable& table, Lpn first, std::uint64_t count);

  void Erase(const L2pKey& key);

  /// Evict all finer-granularity entries whose range is covered by the
  /// aggregate `key` (PINNED design: the aggregate supersedes them).
  void EvictCoveredBy(const L2pKey& key);

  /// Remove every entry overlapping the LPA range [start, start+count) —
  /// used on zone reset and on remapping (fold-back, GC migration).
  void InvalidateLpnRange(Lpn start, std::uint64_t count);

  std::size_t size() const { return size_; }
  std::uint64_t max_entries() const { return max_entries_; }
  std::size_t pinned_count() const { return pinned_count_; }
  const L2pCacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = L2pCacheStats{}; }

  /// LPAs covered by one unit at granularity `g`.
  std::uint64_t UnitLpns(MapGranularity g) const;
  /// Key of the unit containing `lpn` at granularity `g`.
  L2pKey KeyFor(MapGranularity g, Lpn lpn) const;

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// One LRU node: a single hashed entry, or a run of page entries.
  struct Slot {
    std::uint64_t key = 0;    // single: encoded L2pKey; run: first lpn
    std::uint64_t value = 0;  // single: ppn (run ppns come from run_table_)
    std::uint32_t prev = kNil;  // intrusive LRU chain (head = most recent)
    std::uint32_t next = kNil;
    std::uint32_t run_len = 0;  // 0 for a single entry
    bool pinned = false;
  };

  static std::uint64_t HashKey(std::uint64_t key);
  /// Bucket of `key` in table_, or the first empty bucket of its probe
  /// sequence. `*found` says which.
  std::size_t FindBucket(std::uint64_t key, bool* found) const;
  /// Backward-shift deletion at `bucket` (no tombstones).
  void TableErase(std::size_t bucket);

  void LruUnlink(std::uint32_t slot);
  void LruPushFront(std::uint32_t slot);
  void LruMoveToFront(std::uint32_t slot);

  /// Evict up to `count` unpinned keys from the LRU end; returns how many.
  std::uint64_t EvictTail(std::uint64_t count);
  /// Link a new single entry at the LRU head, at `bucket` (its empty
  /// bucket in table_).
  void PushSingle(std::size_t bucket, std::uint64_t key, Ppn ppn, bool pinned);
  /// Remove the single entry `slot` (located at `bucket`).
  void RemoveSingle(std::uint32_t slot, std::size_t bucket);
  /// Remove the single entry with encoded key `key`, if resident.
  void EraseSingle(std::uint64_t key);

  /// Position in runs_ of the first run ending after `lpn` (the run
  /// covering it, if any); runs_.size() if none.
  std::size_t RunPos(std::uint64_t lpn) const;
  /// Lookup of page `lpn` among the runs (a hit moves it to the head).
  std::optional<Ppn> LookupRun(std::uint64_t lpn);
  /// True when runs_[pos] exists and covers `lpn`.
  bool RunCovers(std::size_t pos, std::uint64_t lpn) const;
  /// Link a run of the non-resident keys [lo, lo+n) at the LRU head
  /// (extending the head run when it ends at lo).
  void PushRunFront(std::uint64_t lo, std::uint64_t n);
  /// Remove keys [lo, hi) from runs_[pos], which covers them: trims an
  /// end, splits the run in two, or unlinks it.
  void CutRun(std::size_t pos, std::uint64_t lo, std::uint64_t hi);
  /// Remove every run key in [lo, hi).
  void EraseRunKeys(std::uint64_t lo, std::uint64_t hi);

  L2pCacheConfig cfg_;
  std::uint64_t max_entries_;
  // Reciprocals for KeyFor — probed up to three times per read IO.
  FastDiv div_lpns_per_chunk_;
  FastDiv div_lpns_per_zone_;
  std::vector<Slot> slots_;             // flat node storage
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> table_;    // open addressing: slot index or kNil
  std::uint64_t table_mask_ = 0;        // table_.size() - 1 (power of two)
  std::uint32_t lru_head_ = kNil;       // most recently used
  std::uint32_t lru_tail_ = kNil;       // least recently used
  std::vector<std::uint32_t> runs_;     // run slots, sorted by first lpn
  const MappingTable* run_table_ = nullptr;  // run keys' ppns; set by InsertRun
  std::size_t size_ = 0;                // resident keys (singles + run keys)
  std::size_t hashed_ = 0;              // single entries in table_
  std::size_t pinned_count_ = 0;
  L2pCacheStats stats_;
};

}  // namespace conzone
