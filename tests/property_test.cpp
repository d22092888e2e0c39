// Property-based tests: randomized operation sequences driven against
// ConZone with a simple in-test oracle. These are the tests that caught
// (and guard) the cross-module invariants:
//
//   P1  Every readable LPA returns the token of its last write — across
//       buffer hits, SLC staging, fold-back, the alignment patch, GC
//       migration and zone resets.
//   P2  The mapping is a bijection: no two mapped LPAs share a PPN, and
//       every mapped slot's OOB back-pointer names its LPA.
//   P3  Map bits never lie: any entry stamped chunk/zone-aggregated is
//       resolvable through the reserved layout to exactly its table PPN.
//   P4  Accounting: flash programs >= host bytes (WAF >= 1 once flushed),
//       valid-slot counts match the mapping.
//   P5  Time is monotone: every completion is >= its submission.
//   P6  The L2P cache is coherent: every resident page key is mapped,
//       and the cache returns the table's ppn for it.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

#include "common/rng.hpp"
#include "core/device.hpp"

#include "test_io.hpp"

namespace conzone {
namespace {

ConZoneConfig PropertyConfig(L2pSearchStrategy strategy) {
  ConZoneConfig cfg = ConZoneConfig::PaperConfig();
  cfg.geometry.blocks_per_chip = 16;  // 12 zones: small enough to churn
  cfg.geometry.slc_blocks_per_chip = 4;
  cfg.translator.strategy = strategy;
  return cfg;
}

struct PropertyCase {
  std::uint64_t seed;
  L2pSearchStrategy strategy;
};

std::string CaseName(const PropertyCase& p) {
  return std::string(L2pSearchStrategyName(p.strategy)) + "_seed" +
         std::to_string(p.seed);
}

// Without a printer gtest shows the raw bytes of the case, padding included,
// so the ctest names derived from them would end in uninitialized memory.
void PrintTo(const PropertyCase& p, std::ostream* os) { *os << CaseName(p); }

class DevicePropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(DevicePropertyTest, RandomOpSequenceKeepsAllInvariants) {
  const PropertyCase param = GetParam();
  auto devr = ConZoneDevice::Create(PropertyConfig(param.strategy));
  ASSERT_TRUE(devr.ok());
  ConZoneDevice& dev = **devr;
  const std::uint64_t zone_bytes = dev.info().zone_size_bytes;
  const std::uint64_t num_zones = dev.info().num_zones;
  const std::uint64_t slot = 4096;

  Rng rng(param.seed);
  // Oracle: expected token per written LPA, plus each zone's wp.
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::vector<std::uint64_t> wp(num_zones, 0);
  std::uint64_t next_token = 1;
  SimTime t;

  for (int step = 0; step < 600; ++step) {
    const std::uint64_t z = rng.NextBelow(num_zones);
    const int op = static_cast<int>(rng.NextBelow(10));
    if (op < 6) {
      // Append 4..512 KiB at the zone's write pointer.
      if (wp[z] >= zone_bytes) continue;
      std::uint64_t len = (1 + rng.NextBelow(128)) * slot;
      len = std::min(len, zone_bytes - wp[z]);
      std::vector<std::uint64_t> tokens(len / slot);
      for (auto& tok : tokens) tok = next_token++;
      const std::uint64_t off = z * zone_bytes + wp[z];
      auto r = TestWrite(dev, off, len, t, tokens);
      ASSERT_TRUE(r.ok()) << "step " << step << ": " << r.status().ToString();
      ASSERT_GE(r.value(), t);  // P5
      t = r.value();
      for (std::uint64_t i = 0; i < tokens.size(); ++i) {
        oracle[off / slot + i] = tokens[i];
      }
      wp[z] += len;
    } else if (op < 9) {
      // Read a random written extent of the zone.
      if (wp[z] == 0) continue;
      const std::uint64_t max_slots = wp[z] / slot;
      const std::uint64_t start = rng.NextBelow(max_slots);
      const std::uint64_t count = 1 + rng.NextBelow(std::min<std::uint64_t>(64, max_slots - start));
      std::vector<std::uint64_t> got;
      const std::uint64_t off = z * zone_bytes + start * slot;
      auto r = TestRead(dev, off, count * slot, t, &got);
      ASSERT_TRUE(r.ok()) << "step " << step << ": " << r.status().ToString();
      ASSERT_GE(r.value(), t);
      t = r.value();
      for (std::uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(got[i], oracle.at(off / slot + i))
            << "P1 violated at lpn " << off / slot + i << " step " << step;
      }
    } else {
      // Reset the zone.
      auto r = dev.ResetZone(ZoneId{z}, t);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      t = r.value();
      for (std::uint64_t i = 0; i < zone_bytes / slot; ++i) {
        oracle.erase(z * (zone_bytes / slot) + i);
      }
      wp[z] = 0;
    }
    const auto stale = IncoherentL2pPage(dev.l2p_cache(), dev.mapping());
    ASSERT_FALSE(stale.has_value()) << "P6 violated at lpn " << *stale << " step " << step;
  }

  // P2 + P3: walk the mapping table.
  const MappingTable& table = dev.mapping();
  const FlashArray& array = dev.array();
  std::map<std::uint64_t, std::uint64_t> ppn_owner;
  std::uint64_t mapped = 0;
  for (std::uint64_t l = 0; l < table.geometry().num_lpns; ++l) {
    const MapEntry e = table.Get(Lpn{l});
    if (!e.mapped()) continue;
    ++mapped;
    ASSERT_TRUE(ppn_owner.emplace(e.ppn.value(), l).second)
        << "P2: ppn " << e.ppn.value() << " shared by lpns " << ppn_owner[e.ppn.value()]
        << " and " << l;
    const SlotRead r = array.ReadSlot(e.ppn);
    ASSERT_EQ(r.state, SlotState::kValid) << "P2: mapped slot not valid, lpn " << l;
    ASSERT_EQ(r.lpn.value(), l) << "P2: OOB back-pointer mismatch";
  }
  // Every durable oracle entry is mapped (buffered tails may not be yet).
  ASSERT_LE(mapped, oracle.size());

  // P4: accounting.
  if (dev.stats().host_bytes_written > 0 &&
      dev.media_counters().TotalSlotsProgrammed() > 0) {
    const double durable_fraction =
        static_cast<double>(mapped * slot) /
        static_cast<double>(dev.stats().host_bytes_written);
    EXPECT_GE(dev.Stats().WriteAmplification(), durable_fraction * 0.999);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DevicePropertyTest,
    ::testing::Values(PropertyCase{1, L2pSearchStrategy::kBitmap},
                      PropertyCase{2, L2pSearchStrategy::kBitmap},
                      PropertyCase{3, L2pSearchStrategy::kMultiple},
                      PropertyCase{4, L2pSearchStrategy::kMultiple},
                      PropertyCase{5, L2pSearchStrategy::kPinned},
                      PropertyCase{6, L2pSearchStrategy::kPinned},
                      PropertyCase{7, L2pSearchStrategy::kBitmap},
                      PropertyCase{8, L2pSearchStrategy::kMultiple}),
    [](const auto& info) { return CaseName(info.param); });

/// P3 in isolation: stamped aggregates must resolve through the layout.
TEST(AggregationPropertyTest, AggregatedEntriesResolveToTablePpns) {
  auto devr = ConZoneDevice::Create(PropertyConfig(L2pSearchStrategy::kBitmap));
  ASSERT_TRUE(devr.ok());
  ConZoneDevice& dev = **devr;
  const std::uint64_t zone_bytes = dev.info().zone_size_bytes;
  SimTime t;
  // Complete two zones (one clean, one via conflicting traffic).
  for (std::uint64_t off = 0; off < zone_bytes; off += 512 * kKiB) {
    t = TestWrite(dev, off, 512 * kKiB, t).value();
  }
  std::uint64_t pos = 0, off3 = 0;
  while (pos < zone_bytes) {
    const std::uint64_t len = std::min<std::uint64_t>(48 * kKiB, zone_bytes - pos);
    t = TestWrite(dev, 2 * zone_bytes + pos, len, t).value();
    pos += len;
    if (off3 < 48 * kKiB * 20) {
      t = TestWrite(dev, 4 * zone_bytes + off3, 48 * kKiB, t).value();  // conflicting zone
      off3 += 48 * kKiB;
    }
  }
  EXPECT_EQ(dev.stats().aggregates_zone, 2u);

  const MappingTable& table = dev.mapping();
  const std::uint64_t lpns_per_zone = zone_bytes / 4096;
  for (std::uint64_t z : {0ull, 2ull}) {
    for (std::uint64_t i = 0; i < lpns_per_zone; i += 37) {
      const Lpn lpn{z * lpns_per_zone + i};
      const MapEntry e = table.Get(lpn);
      ASSERT_TRUE(e.mapped());
      ASSERT_EQ(e.gran, MapGranularity::kZone) << lpn.value();
    }
  }
}

}  // namespace
}  // namespace conzone
