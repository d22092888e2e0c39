// Test-side convenience wrappers over the IoRequest/IoResult device API.
//
// The StorageDevice (offset, len, now, ...) compat overloads are gone;
// tests that only care about completion time or a token round-trip call
// these one-line helpers instead of spelling the request struct at every
// site. They are ordinary IoRequest call sites — nothing here reaches
// around the public API. IncoherentL2pPage checks a device's L2P cache
// against its mapping table through their read-only accessors.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/storage_device.hpp"
#include "ftl/l2p_cache.hpp"
#include "ftl/mapping.hpp"

namespace conzone {

inline Result<SimTime> TestWrite(StorageDevice& d, std::uint64_t off,
                                 std::uint64_t len, SimTime now,
                                 std::span<const std::uint64_t> tokens = {}) {
  auto r = d.Write(IoRequest{off, len, now, tokens});
  if (!r.ok()) return r.status();
  return r.value().done;
}

inline Result<SimTime> TestRead(StorageDevice& d, std::uint64_t off,
                                std::uint64_t len, SimTime now,
                                std::vector<std::uint64_t>* tokens_out = nullptr) {
  auto r = d.Read(IoRequest{off, len, now, {},
                            /*want_tokens=*/tokens_out != nullptr});
  if (!r.ok()) return r.status();
  if (tokens_out != nullptr) *tokens_out = std::move(r.value().tokens);
  return r.value().done;
}

/// The L2P cache's coherence invariant: every resident page key is a
/// mapped lpn, and the cache returns the table's ppn for it. Returns the
/// first lpn that breaks it, if any.
inline std::optional<std::uint64_t> IncoherentL2pPage(const L2PCache& cache,
                                                      const MappingTable& table) {
  for (std::uint64_t l = 0; l < table.geometry().num_lpns; ++l) {
    const std::optional<Ppn> hit = cache.Peek(L2pKey{MapGranularity::kPage, l});
    if (!hit) continue;
    const MapEntry e = table.Get(Lpn{l});
    if (!e.mapped() || e.ppn != *hit) return l;
  }
  return std::nullopt;
}

}  // namespace conzone
