// Fleet soak study: crash/recovery at fleet scale on degrading devices.
//
// Runs a fleet of independent device shards through ShardedRunner's
// soak body on the work-stealing executor. Every shard soaks the crash
// harness's mixed op stream under ConsumerDefaults() fault rates with a
// wear ramp (fault probabilities escalate as erase counts pass the
// rated endurance), a deterministic per-shard random power-cut
// schedule, and a staggered checkpoint cadence (shard i checkpoints
// every base << (i % levels) L2P-log entries). Each cut runs the full PowerCut/Recover pipeline and the
// crash-consistency checker before the shard resumes; a shard that
// degrades to read-only ends its soak early as a survivor.
//
// The per-shard table shows the variance the merged numbers hide:
// fault-rate spread across decorrelated fault streams, remount-latency
// spread across checkpoint cadences (longer intervals => older images
// => bigger scan tails), and which shards degraded.
//
//   ./build/examples/fleet_soak [shards] [cuts_per_shard]
#include <cstdio>
#include <cstdlib>

#include "conzone/conzone.hpp"

using namespace conzone;

// Upper bucket edge holding the q-th sample of a log2 histogram. Coarse
// (order-of-magnitude buckets) but remount latencies span decades, so
// the bucket edge is the honest resolution.
static double PercentileUs(const Log2Histogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double target = q * static_cast<double>(h.count());
  std::uint64_t seen = 0;
  for (int i = 0; i < Log2Histogram::kBuckets; ++i) {
    seen += h.bucket(i);
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(Log2Histogram::BucketLowerEdgeNs(i + 1)) / 1e3;
    }
  }
  return 0.0;
}

int main(int argc, char** argv) {
  ShardPlan plan;
  plan.config = ConZoneConfig::PaperConfig();
  plan.config.num_conventional_zones = 2;
  FaultConfig& fault = plan.config.fault;
  fault = FaultConfig::ConsumerDefaults();
  fault.rated_endurance = 16;  // wear ramp
  fault.wear_slope = 0.02;
  plan.config.l2p_log.enabled = true;
  plan.config.checkpoint.enabled = true;
  plan.config.checkpoint.interval_entries = 1024;
  plan.checkpoint_stagger_levels = 4;
  plan.shards = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 8;
  plan.cut_schedule.cuts =
      argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 100;
  plan.cut_schedule.interval_ns = 10'000'000;  // 10 ms mean between cuts
  CrashHarness::Options& workload = plan.soak.emplace();
  workload.seed = 0xF1EE7;
  workload.conv_prob = 0.25;
  plan.ops_per_slice = 24;
  plan.master_seed = 0x50AC;

  std::printf(
      "fleet soak: %u shards x %u cuts, consumer faults + wear ramp "
      "(endurance %u, slope %.2f),\ncheckpoint cadence %llu entries "
      "staggered over %u levels, mean cut interval %s\n",
      plan.shards, plan.cut_schedule.cuts, fault.rated_endurance,
      fault.wear_slope,
      static_cast<unsigned long long>(plan.config.checkpoint.interval_entries),
      plan.checkpoint_stagger_levels,
      SimDuration::Nanos(plan.cut_schedule.interval_ns).ToString().c_str());

  auto res = ShardedRunner(plan).Run();
  if (!res.ok()) {
    std::fprintf(stderr, "fleet soak failed: %s\n",
                 res.status().ToString().c_str());
    return 1;
  }
  const ShardedResult& r = res.value();

  std::printf("%-6s %10s %6s %8s %8s %8s %10s %10s %10s %4s\n", "shard",
              "ckpt_ivl", "cuts", "remounts", "faults", "retired", "ckpt_hit",
              "p50(us)", "p99(us)", "ro");
  for (const ShardResult& s : r.shards) {
    const ConZoneConfig cfg = ShardedRunner::ConfigForShard(plan, s.shard_id);
    std::printf("%-6u %10llu %6u %8u %8llu %8llu %10llu %10.1f %10.1f %4s\n",
                s.shard_id,
                static_cast<unsigned long long>(cfg.checkpoint.interval_entries),
                s.cuts, s.remounts,
                static_cast<unsigned long long>(s.reliability.TotalFaults()),
                static_cast<unsigned long long>(s.reliability.RetiredBlocks()),
                static_cast<unsigned long long>(s.recovery.checkpoint_loaded),
                PercentileUs(s.recovery.remount_hist, 0.50),
                PercentileUs(s.recovery.remount_hist, 0.99),
                s.read_only ? "yes" : "no");
  }

  const double n = static_cast<double>(
      r.recovery.power_cuts == 0 ? 1 : r.recovery.power_cuts);
  std::printf(
      "\nfleet: cuts=%llu remounts=%llu survivors(read-only)=%u "
      "fingerprint=%016llx\n",
      static_cast<unsigned long long>(r.recovery.power_cuts),
      static_cast<unsigned long long>(r.recovery.recoveries), r.read_only_shards,
      static_cast<unsigned long long>(r.fleet_fingerprint));
  std::printf(
      "  per cut: scan=%.1f skip=%.1f replay=%.1f  remount p50=%.1fus "
      "p99=%.1fus\n",
      static_cast<double>(r.recovery.pages_scanned) / n,
      static_cast<double>(r.recovery.pages_skipped) / n,
      static_cast<double>(r.recovery.replayed_mappings) / n,
      PercentileUs(r.recovery.remount_hist, 0.50),
      PercentileUs(r.recovery.remount_hist, 0.99));
  std::printf("  rec: %s\n", r.recovery.Summary().c_str());
  std::printf("  rel: %s\n", r.reliability.Summary().c_str());
  // Per-IoClass traffic split over the merged fleet counters; classes
  // with no IO stay hidden (the soak's own stream is host-foreground,
  // so migration/maintenance only show up once tagged IO exists).
  static const char* kClassNames[kNumIoClasses] = {"foreground", "migration",
                                                   "maintenance"};
  bool any_class = false;
  for (std::size_t c = 0; c < kNumIoClasses; ++c) {
    any_class |= r.device.class_reads[c] != 0 || r.device.class_writes[c] != 0;
  }
  if (any_class) {
    std::printf("  io classes:");
    for (std::size_t c = 0; c < kNumIoClasses; ++c) {
      if (r.device.class_reads[c] == 0 && r.device.class_writes[c] == 0) continue;
      std::printf(" %s r=%llu w=%llu", kClassNames[c],
                  static_cast<unsigned long long>(r.device.class_reads[c]),
                  static_cast<unsigned long long>(r.device.class_writes[c]));
    }
    std::printf("\n");
  }
  return 0;
}
