#include "drives.hpp"

#include <algorithm>
#include <vector>

#include "conzone/conzone.hpp"

namespace perfbench {
namespace {

using namespace conzone;

constexpr int kReps = 3;

/// Results of driven calls land here so the optimiser cannot drop them.
volatile std::uint64_t g_sink = 0;
void Consume(std::uint64_t v) { g_sink = g_sink + v; }

/// Median over kReps runs of `body`, which returns {elapsed ns, ops}.
template <class F>
double MedianNsPerOp(F&& body) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) {
    const auto [ns, ops] = body();
    v.push_back(ops ? static_cast<double>(ns) / static_cast<double>(ops) : 0.0);
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One self-rescheduling submission chain: each event schedules its
/// successor about one mean IO latency later, as a FIO chain does.
struct Chain {
  EventQueue* q;
  Rng* rng;
  std::uint64_t* left;
  std::uint64_t latency_ns;
  void operator()(SimTime t) const {
    if (*left == 0) return;
    --*left;
    q->Schedule(t + SimDuration::Nanos(latency_ns / 2 + rng->NextBelow(latency_ns)),
                *this);
  }
};

double DriveEventQueue(const DriveInputs& in) {
  constexpr std::uint64_t kEvents = 1000000;
  const std::uint64_t lat = std::max<std::uint64_t>(in.mean_latency_ns, 2);
  return MedianNsPerOp([&] {
    EventQueue q;
    Rng rng(1);
    std::uint64_t left = kEvents;
    for (std::uint32_t c = 0; c < std::max<std::uint32_t>(in.in_flight, 1); ++c) {
      q.Schedule(SimTime::FromNanos(c), Chain{&q, &rng, &left, lat});
    }
    const std::int64_t t0 = NowNs();
    while (q.RunNext()) {
    }
    return std::pair{NowNs() - t0, q.executed()};
  });
}

/// Lookup and insert cost of the paper-sized (3,072-entry) L2P cache.
void DriveL2pCache(const DriveInputs& in, DriveResults* out) {
  constexpr std::uint64_t kOps = 1000000;
  const L2pCacheConfig cfg;
  const std::uint64_t entries = cfg.MaxEntries();
  const double hit = in.l2p_lookups ? static_cast<double>(in.l2p_hits) /
                                          static_cast<double>(in.l2p_lookups)
                                    : 0.5;
  Rng rng(2);
  std::vector<L2pKey> keys(kOps);
  for (L2pKey& k : keys) {
    const bool present = rng.NextBool(hit);
    k = L2pKey{MapGranularity::kPage,
               present ? rng.NextBelow(entries) : entries + rng.NextBelow(1u << 20)};
  }
  auto fill = [&](L2PCache& cache) {
    for (std::uint64_t i = 0; i < entries; ++i) {
      cache.Insert(L2pKey{MapGranularity::kPage, i}, Ppn{i});
    }
  };
  std::uint64_t sink = 0;
  out->lookup_ns = MedianNsPerOp([&] {
    L2PCache cache(cfg);
    fill(cache);
    const std::int64_t t0 = NowNs();
    for (const L2pKey& k : keys) {
      if (auto p = cache.Lookup(k)) sink += p->value();
    }
    return std::pair{NowNs() - t0, kOps};
  });
  out->insert_ns = MedianNsPerOp([&] {
    L2PCache cache(cfg);
    fill(cache);
    const std::int64_t t0 = NowNs();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      cache.Insert(L2pKey{MapGranularity::kPage, entries + i}, Ppn{i});
    }
    const std::int64_t ns = NowNs() - t0;
    Consume(cache.size());
    return std::pair{ns, kOps};
  });
  Consume(sink);
}

/// Maps every aggregated unit onto a flat imaginary layout.
class FlatResolver final : public PhysicalResolver {
 public:
  std::optional<Ppn> ResolveAggregated(MapGranularity gran, std::uint64_t,
                                       Lpn lpn) const override {
    return Ppn{(static_cast<std::uint64_t>(gran) << 32) + lpn.value()};
  }
};

/// Translate cost per granularity over a table holding one zone of each
/// (zone-aggregated, chunk-aggregated, page-mapped), weighted by the
/// traced mix of translations served per granularity.
double DriveTranslator(const DriveInputs& in) {
  constexpr std::uint64_t kOps = 500000;
  const L2pCacheConfig cache_cfg;
  MappingGeometry geo;
  geo.lpns_per_chunk = cache_cfg.lpns_per_chunk;
  geo.lpns_per_zone = cache_cfg.lpns_per_zone;
  geo.num_lpns = 3ull * geo.lpns_per_zone;
  const std::uint64_t zone = geo.lpns_per_zone;
  double weights[3];
  double total_w = 0;
  for (int g = 0; g < 3; ++g) total_w += static_cast<double>(in.hits_by_gran[g]);
  for (int g = 0; g < 3; ++g) {
    weights[g] = total_w > 0 ? static_cast<double>(in.hits_by_gran[g]) / total_w : 1.0 / 3;
  }
  double weighted = 0;
  // Zone index z holds granularity kZone (0), kChunk (1), kPage (2).
  const MapGranularity kGranOfZone[3] = {MapGranularity::kZone, MapGranularity::kChunk,
                                         MapGranularity::kPage};
  for (int z = 0; z < 3; ++z) {
    const double ns = MedianNsPerOp([&] {
      MappingTable table(geo);
      for (std::uint64_t l = 0; l < geo.num_lpns; ++l) table.Set(Lpn{l}, Ppn{1000000 + l});
      table.SetAggregated(Lpn{0}, zone, MapGranularity::kZone);
      for (std::uint64_t c = 0; c < zone / geo.lpns_per_chunk; ++c) {
        table.SetAggregated(Lpn{zone + c * geo.lpns_per_chunk}, geo.lpns_per_chunk,
                            MapGranularity::kChunk);
      }
      L2PCache cache(cache_cfg);
      FlatResolver resolver;
      Translator tr(table, cache, resolver, TranslatorConfig{});
      Rng rng(3);
      std::uint64_t sink = 0;
      const std::uint64_t base = static_cast<std::uint64_t>(z) * zone;
      const std::int64_t t0 = NowNs();
      for (std::uint64_t i = 0; i < kOps; ++i) {
        auto r = tr.Translate(Lpn{base + rng.NextBelow(zone)});
        if (r.ok()) sink += r.value().ppn.value();
      }
      const std::int64_t ns_total = NowNs() - t0;
      Consume(sink);
      return std::pair{ns_total, kOps};
    });
    weighted += weights[static_cast<int>(kGranOfZone[z])] * ns;
  }
  return weighted;
}

/// ReadPage/Program on the paper geometry at the traced read:program mix.
double DriveTimingEngine(const DriveInputs& in) {
  constexpr std::uint64_t kOps = 1000000;
  const ConZoneConfig pc = ConZoneConfig::PaperConfig();
  const std::uint64_t ops = in.page_reads + in.programs;
  const double read_frac =
      ops ? static_cast<double>(in.page_reads) / static_cast<double>(ops) : 0.5;
  const std::uint32_t chips = pc.geometry.channels * pc.geometry.chips_per_channel;
  Rng rng(4);
  std::vector<std::uint8_t> is_read(kOps);
  for (auto& r : is_read) r = rng.NextBool(read_frac) ? 1 : 0;
  return MedianNsPerOp([&] {
    FlashTimingEngine engine(pc.geometry, pc.timing);
    SimTime issue;
    std::uint64_t sink = 0;
    const std::int64_t t0 = NowNs();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const ChipId chip{static_cast<std::uint32_t>(i % chips)};
      if (is_read[i]) {
        sink += engine.ReadPage(chip, CellType::kTlc, pc.geometry.page_size, issue).ns();
      } else {
        sink += engine.Program(chip, CellType::kTlc, pc.geometry.program_unit, issue).end.ns();
      }
      issue += SimDuration::Nanos(1000);
    }
    const std::int64_t ns = NowNs() - t0;
    Consume(sink);
    return std::pair{ns, kOps};
  });
}

}  // namespace

DriveResults RunDrives(const DriveInputs& in) {
  DriveResults r;
  r.event_ns = DriveEventQueue(in);
  DriveL2pCache(in, &r);
  r.translate_ns = DriveTranslator(in);
  r.engine_ns = DriveTimingEngine(in);
  return r;
}

}  // namespace perfbench
