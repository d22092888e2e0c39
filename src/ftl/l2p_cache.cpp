#include "ftl/l2p_cache.hpp"

#include <algorithm>
#include <cassert>

namespace conzone {

namespace {
std::uint64_t NextPow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

L2PCache::L2PCache(const L2pCacheConfig& config)
    : cfg_(config),
      max_entries_(config.MaxEntries()),
      div_lpns_per_chunk_(config.lpns_per_chunk),
      div_lpns_per_zone_(config.lpns_per_zone) {
  assert(cfg_.lpns_per_zone % cfg_.lpns_per_chunk == 0);
  if (max_entries_ > 0) {
    // Every node holds at least one key, so max_entries_ nodes suffice.
    slots_.resize(max_entries_);
    free_slots_.reserve(max_entries_);
    // Free list popped from the back: push in reverse so slot 0 is used
    // first (purely cosmetic; any order works).
    for (std::uint64_t i = max_entries_; i > 0; --i) {
      free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
    }
    // Load factor <= 0.5 keeps linear-probe chains short.
    table_.assign(NextPow2(max_entries_ * 2), kNil);
    table_mask_ = table_.size() - 1;
  }
}

std::uint64_t L2PCache::UnitLpns(MapGranularity g) const {
  switch (g) {
    case MapGranularity::kPage: return 1;
    case MapGranularity::kChunk: return cfg_.lpns_per_chunk;
    case MapGranularity::kZone: return cfg_.lpns_per_zone;
  }
  return 1;
}

L2pKey L2PCache::KeyFor(MapGranularity g, Lpn lpn) const {
  switch (g) {
    case MapGranularity::kPage: return L2pKey{g, lpn.value()};
    case MapGranularity::kChunk: return L2pKey{g, div_lpns_per_chunk_.Div(lpn.value())};
    case MapGranularity::kZone: return L2pKey{g, div_lpns_per_zone_.Div(lpn.value())};
  }
  return L2pKey{g, lpn.value()};
}

std::uint64_t L2PCache::HashKey(std::uint64_t key) {
  // SplitMix64 finalizer: cheap, and full avalanche so linear probing
  // sees uniformly spread buckets even for the stride-patterned keys the
  // granularity encoding produces.
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBull;
  key ^= key >> 31;
  return key;
}

std::size_t L2PCache::FindBucket(std::uint64_t key, bool* found) const {
  std::size_t b = HashKey(key) & table_mask_;
  while (true) {
    const std::uint32_t s = table_[b];
    if (s == kNil) {
      *found = false;
      return b;
    }
    if (slots_[s].key == key) {
      *found = true;
      return b;
    }
    b = (b + 1) & table_mask_;
  }
}

void L2PCache::TableErase(std::size_t bucket) {
  // Backward-shift deletion: close the hole by moving displaced entries
  // whose home bucket lies outside the vacated gap.
  std::size_t hole = bucket;
  table_[hole] = kNil;
  std::size_t i = hole;
  while (true) {
    i = (i + 1) & table_mask_;
    const std::uint32_t s = table_[i];
    if (s == kNil) return;
    const std::size_t home = HashKey(slots_[s].key) & table_mask_;
    // Move s into the hole unless its home bucket sits in (hole, i]
    // (cyclically) — in that case the probe chain is intact without it.
    const bool home_in_gap =
        (hole < i) ? (home > hole && home <= i) : (home > hole || home <= i);
    if (!home_in_gap) {
      table_[hole] = s;
      table_[i] = kNil;
      hole = i;
    }
  }
}

void L2PCache::LruUnlink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    lru_head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    lru_tail_ = s.prev;
  }
  s.prev = s.next = kNil;
}

void L2PCache::LruPushFront(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.prev = kNil;
  s.next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].prev = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNil) lru_tail_ = slot;
}

void L2PCache::LruMoveToFront(std::uint32_t slot) {
  if (lru_head_ == slot) return;
  LruUnlink(slot);
  LruPushFront(slot);
}

std::optional<Ppn> L2PCache::Lookup(const L2pKey& key) {
  ++stats_.lookups;
  if (hashed_ != 0) {
    bool found = false;
    const std::size_t b = FindBucket(key.Encoded(), &found);
    if (found) {
      ++stats_.hits;
      const std::uint32_t slot = table_[b];
      LruMoveToFront(slot);
      return Ppn(slots_[slot].value);
    }
  }
  if (runs_.empty() || key.gran != MapGranularity::kPage) return std::nullopt;
  return LookupRun(key.index);
}

// Out of line so that the run path's register spills stay out of the
// prologue of Lookup's hash path, which every ConZone read takes.
[[gnu::noinline]] std::optional<Ppn> L2PCache::LookupRun(std::uint64_t lpn) {
  const std::size_t pos = RunPos(lpn);
  if (!RunCovers(pos, lpn)) return std::nullopt;
  ++stats_.hits;
  const std::uint32_t slot = runs_[pos];
  const Slot& r = slots_[slot];
  const Ppn ppn = run_table_->Get(Lpn(lpn)).ppn;
  // The newest key of the head run is already most recent.
  if (slot == lru_head_ && lpn + 1 == r.key + r.run_len) return ppn;
  CutRun(pos, lpn, lpn + 1);
  PushRunFront(lpn, 1);
  return ppn;
}

std::optional<Ppn> L2PCache::Peek(const L2pKey& key) const {
  if (hashed_ != 0) {
    bool found = false;
    const std::size_t b = FindBucket(key.Encoded(), &found);
    if (found) return Ppn(slots_[table_[b]].value);
  }
  if (runs_.empty() || key.gran != MapGranularity::kPage) return std::nullopt;
  if (!RunCovers(RunPos(key.index), key.index)) return std::nullopt;
  return run_table_->Get(Lpn(key.index)).ppn;
}

void L2PCache::PushSingle(std::size_t bucket, std::uint64_t key, Ppn ppn, bool pinned) {
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  Slot& s = slots_[slot];
  s.key = key;
  s.value = ppn.value();
  s.run_len = 0;
  s.pinned = pinned;
  table_[bucket] = slot;
  LruPushFront(slot);
  ++size_;
  ++hashed_;
  if (pinned) ++pinned_count_;
}

void L2PCache::RemoveSingle(std::uint32_t slot, std::size_t bucket) {
  if (slots_[slot].pinned) --pinned_count_;
  LruUnlink(slot);
  TableErase(bucket);
  free_slots_.push_back(slot);
  --size_;
  --hashed_;
}

void L2PCache::EraseSingle(std::uint64_t key) {
  if (hashed_ == 0) return;
  bool found = false;
  const std::size_t b = FindBucket(key, &found);
  if (found) RemoveSingle(table_[b], b);
}

std::size_t L2PCache::RunPos(std::uint64_t lpn) const {
  // First run starting after lpn; its predecessor is the only run that
  // can cover lpn (runs are disjoint).
  auto it = std::upper_bound(runs_.begin(), runs_.end(), lpn,
                             [this](std::uint64_t l, std::uint32_t s) { return l < slots_[s].key; });
  if (it != runs_.begin()) {
    const Slot& prev = slots_[*(it - 1)];
    if (lpn < prev.key + prev.run_len) --it;
  }
  return static_cast<std::size_t>(it - runs_.begin());
}

bool L2PCache::RunCovers(std::size_t pos, std::uint64_t lpn) const {
  return pos < runs_.size() && slots_[runs_[pos]].key <= lpn;
}

void L2PCache::PushRunFront(std::uint64_t lo, std::uint64_t n) {
  size_ += n;
  if (lru_head_ != kNil) {
    Slot& h = slots_[lru_head_];
    if (h.run_len != 0 && h.key + h.run_len == lo) {
      h.run_len += static_cast<std::uint32_t>(n);
      return;
    }
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  Slot& r = slots_[slot];
  r.key = lo;
  r.run_len = static_cast<std::uint32_t>(n);
  r.pinned = false;
  LruPushFront(slot);
  runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(RunPos(lo)), slot);
}

void L2PCache::CutRun(std::size_t pos, std::uint64_t lo, std::uint64_t hi) {
  const std::uint32_t slot = runs_[pos];
  Slot& r = slots_[slot];
  const std::uint64_t end = r.key + r.run_len;
  assert(r.key <= lo && lo < hi && hi <= end);
  size_ -= hi - lo;
  if (lo == r.key && hi == end) {
    LruUnlink(slot);
    free_slots_.push_back(slot);
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(pos));
  } else if (lo == r.key) {
    r.key = hi;
    r.run_len = static_cast<std::uint32_t>(end - hi);
  } else if (hi == end) {
    r.run_len = static_cast<std::uint32_t>(lo - r.key);
  } else {
    // The upper part holds the newer keys: link it just head-side of the
    // lower part, which keeps the run's place in the LRU.
    const std::uint32_t upper = free_slots_.back();
    free_slots_.pop_back();
    Slot& u = slots_[upper];
    u.key = hi;
    u.run_len = static_cast<std::uint32_t>(end - hi);
    u.pinned = false;
    u.next = slot;
    u.prev = r.prev;
    if (r.prev != kNil) {
      slots_[r.prev].next = upper;
    } else {
      lru_head_ = upper;
    }
    r.prev = upper;
    r.run_len = static_cast<std::uint32_t>(lo - r.key);
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(pos + 1), upper);
  }
}

void L2PCache::EraseRunKeys(std::uint64_t lo, std::uint64_t hi) {
  while (lo < hi) {
    const std::size_t pos = RunPos(lo);
    if (pos == runs_.size()) return;
    const Slot& r = slots_[runs_[pos]];
    if (r.key >= hi) return;
    const std::uint64_t cut_lo = std::max(lo, r.key);
    const std::uint64_t cut_hi = std::min(hi, r.key + r.run_len);
    CutRun(pos, cut_lo, cut_hi);
    lo = cut_hi;
  }
}

std::uint64_t L2PCache::EvictTail(std::uint64_t count) {
  // Scan from the LRU end, skipping pinned entries (they also live in
  // the chain but are exempt from eviction). Runs give up their oldest
  // (lowest) keys first.
  std::uint64_t evicted = 0;
  std::uint32_t s = lru_tail_;
  while (evicted < count && s != kNil) {
    const std::uint32_t prev = slots_[s].prev;
    const Slot& e = slots_[s];
    if (e.run_len != 0) {
      const std::uint64_t take = std::min<std::uint64_t>(count - evicted, e.run_len);
      CutRun(RunPos(e.key), e.key, e.key + take);
      evicted += take;
    } else if (!e.pinned) {
      bool found = false;
      const std::size_t b = FindBucket(e.key, &found);
      assert(found);
      RemoveSingle(s, b);
      ++evicted;
    }
    s = prev;
  }
  stats_.evictions += evicted;
  return evicted;
}

void L2PCache::Insert(const L2pKey& key, Ppn base_ppn, bool pinned) {
  if (max_entries_ == 0) return;
  bool found = false;
  std::size_t b = FindBucket(key.Encoded(), &found);
  if (found) {
    // Refresh in place.
    Slot& s = slots_[table_[b]];
    if (s.pinned && !pinned) --pinned_count_;
    if (!s.pinned && pinned) ++pinned_count_;
    s.value = base_ppn.value();
    s.pinned = pinned;
    LruMoveToFront(table_[b]);
    return;
  }
  if (!runs_.empty() && key.gran == MapGranularity::kPage) {
    const std::size_t pos = RunPos(key.index);
    if (RunCovers(pos, key.index)) {
      // Refresh a run key: it leaves the run and becomes a single entry.
      CutRun(pos, key.index, key.index + 1);
      PushSingle(b, key.Encoded(), base_ppn, pinned);
      return;
    }
  }
  if (size_ >= max_entries_) {
    if (pinned_count_ >= max_entries_ && !pinned) {
      // Nothing evictable; drop the insertion rather than overflow SRAM.
      ++stats_.rejected_insertions;
      return;
    }
    if (EvictTail(1) == 0) {
      ++stats_.rejected_insertions;
      return;
    }
    // The eviction may have shifted buckets; re-locate the insert point.
    b = FindBucket(key.Encoded(), &found);
  }
  PushSingle(b, key.Encoded(), base_ppn, pinned);
  ++stats_.insertions;
}

void L2PCache::InsertRun(const MappingTable& table, Lpn first, std::uint64_t count) {
  assert(run_table_ == nullptr || run_table_ == &table);
  assert(first.value() + count <= table.geometry().num_lpns);
  if (max_entries_ == 0) return;
  if (run_table_ == nullptr) {
    run_table_ = &table;
    runs_.reserve(max_entries_);
  }
  const std::uint64_t lo = first.value();
  const std::uint64_t n = count;
  // Keys [lo + r_lo, lo + i) are the run's keys inserted or refreshed so
  // far. Sequential inserts would have put them at the head in ascending
  // order; they stay unlinked (outside size_) until the end, where they
  // become one run node. Older run keys were evicted or rejected.
  std::uint64_t r_lo = 0;
  std::uint64_t i = 0;
  while (i < n) {
    // Find the next run key that is resident in a linked node: every key
    // before it inserts fresh.
    const std::size_t pos = RunPos(lo + i);
    std::uint64_t next = n;
    if (pos < runs_.size()) next = std::min(n, std::max(slots_[runs_[pos]].key, lo + i) - lo);
    bool single = false;
    std::size_t bucket = 0;
    for (std::uint64_t j = i; hashed_ != 0 && j < next; ++j) {
      bool found = false;
      const std::size_t b = FindBucket(L2pKey{MapGranularity::kPage, lo + j}.Encoded(), &found);
      if (found) {
        next = j;
        single = true;
        bucket = b;
        break;
      }
    }
    if (next > i) {
      const std::uint64_t fresh = next - i;
      if (pinned_count_ >= max_entries_) {
        // Every resident key is pinned (so no run key is held): each
        // insertion is dropped.
        stats_.rejected_insertions += fresh;
        r_lo = next;
      } else {
        // Each insertion beyond the free room evicts the LRU unpinned key:
        // linked keys from the tail first, then this run's oldest keys.
        const std::uint64_t held = size_ + (i - r_lo);
        const std::uint64_t room = max_entries_ - held;
        const std::uint64_t evict = fresh > room ? fresh - room : 0;
        const std::uint64_t from_run = evict - EvictTail(evict);
        stats_.evictions += from_run;
        r_lo += from_run;
        stats_.insertions += fresh;
      }
      i = next;
    } else if (single) {
      // Refresh: the key joins the run (unpinning it).
      RemoveSingle(table_[bucket], bucket);
      ++i;
    } else {
      // Refresh every run key held by this linked run at once.
      const Slot& r = slots_[runs_[pos]];
      const std::uint64_t end = std::min(lo + n, r.key + r.run_len);
      CutRun(pos, lo + i, end);
      i = end - lo;
    }
  }
  if (r_lo < n) PushRunFront(lo + r_lo, n - r_lo);
}

void L2PCache::Erase(const L2pKey& key) {
  EraseSingle(key.Encoded());
  if (!runs_.empty() && key.gran == MapGranularity::kPage) {
    EraseRunKeys(key.index, key.index + 1);
  }
}

void L2PCache::EvictCoveredBy(const L2pKey& key) {
  const std::uint64_t unit = UnitLpns(key.gran);
  const std::uint64_t start = key.index * unit;
  if (key.gran == MapGranularity::kPage) return;
  // Chunk entries covered (only when key is a zone).
  if (key.gran == MapGranularity::kZone) {
    const std::uint64_t chunks = unit / cfg_.lpns_per_chunk;
    const std::uint64_t first = start / cfg_.lpns_per_chunk;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      EraseSingle(L2pKey{MapGranularity::kChunk, first + c}.Encoded());
    }
  }
  // Page entries covered. Ranges are at most one zone (4096 keys) — cheap
  // relative to the flash ops that trigger aggregation.
  EraseRunKeys(start, start + unit);
  for (std::uint64_t i = 0; i < unit && hashed_ != 0; ++i) {
    EraseSingle(L2pKey{MapGranularity::kPage, start + i}.Encoded());
  }
}

void L2PCache::InvalidateLpnRange(Lpn start, std::uint64_t count) {
  const std::uint64_t lo = start.value();
  const std::uint64_t hi = lo + count;  // exclusive
  EraseRunKeys(lo, hi);
  for (std::uint64_t lpn = lo; lpn < hi && hashed_ != 0; ++lpn) {
    EraseSingle(L2pKey{MapGranularity::kPage, lpn}.Encoded());
  }
  for (std::uint64_t c = lo / cfg_.lpns_per_chunk; c * cfg_.lpns_per_chunk < hi; ++c) {
    EraseSingle(L2pKey{MapGranularity::kChunk, c}.Encoded());
  }
  for (std::uint64_t z = lo / cfg_.lpns_per_zone; z * cfg_.lpns_per_zone < hi; ++z) {
    EraseSingle(L2pKey{MapGranularity::kZone, z}.Encoded());
  }
}

}  // namespace conzone
