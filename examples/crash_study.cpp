// Crash study: remount latency under a random power-cut schedule.
//
// Drives the crash harness (mixed writes / flushes / resets over
// sequential + conventional zones) as a 1-shard ShardedRunner soak under
// a random CutStream: exponentially distributed cut times with a
// configurable mean interval.
// At every scheduled cut the device loses power mid-workload, remounts,
// and the crash-consistency checker verifies every durability invariant
// before the workload resumes on the recovered device.
//
// Sweeping the mean cut interval varies how much dirty state each cut
// catches in flight: short intervals cut into half-filled write buffers
// and small L2P log tails; long intervals let folds, GC and log flushes
// accumulate, so the mount-time OOB scan walks more programmed pages and
// replays more mappings. Each interval runs twice — checkpointing off
// and on (DESIGN.md §12) — so the table shows side by side what the
// durable L2P image buys: the scan shrinks to the post-checkpoint tail
// and the simulated remount latency drops accordingly.
//
//   ./build/examples/crash_study
#include <cstdio>

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

// One sweep point: a 1-shard soak plan that takes `cuts` scheduled cuts;
// returns the device's RecoveryStats. `with_checkpoints` toggles the
// durable L2P image; everything else (seed, workload, cut schedule) is
// identical, so the off/on rows differ only in how the remount rebuilds
// its state.
static bool RunPoint(std::uint64_t mean_ns, bool with_checkpoints,
                     std::uint32_t cuts, std::size_t ops_per_slice,
                     RecoveryStats* out) {
  ShardPlan plan;
  plan.config = ConZoneConfig::PaperConfig();
  plan.config.num_conventional_zones = 2;
  plan.config.l2p_log.enabled = true;
  plan.config.checkpoint.enabled = with_checkpoints;
  plan.config.checkpoint.interval_entries = 4096;
  plan.cut_schedule.cuts = cuts;
  plan.cut_schedule.kind = CutScheduleKind::kRandomInterval;
  plan.cut_schedule.interval_ns = mean_ns;
  CrashHarness::Options& opt = plan.soak.emplace();
  opt.seed = 0xC4A5;
  opt.conv_prob = 0.25;
  plan.ops_per_slice = ops_per_slice;

  auto res = ShardedRunner(plan).Run();
  if (!res.ok()) {
    std::fprintf(stderr, "soak failed: %s\n", res.status().ToString().c_str());
    return false;
  }
  *out = res.value().recovery;
  return true;
}

int main() {
  // Mean simulated time between scheduled cuts.
  constexpr std::uint64_t kMeanIntervalsNs[] = {2'000'000, 10'000'000,
                                                50'000'000};
  constexpr std::uint32_t kCutsPerPoint = 40;
  constexpr std::size_t kOpsPerSlice = 24;

  std::printf(
      "crash study: %u scheduled cuts per point, mixed workload,\n"
      "checkpointing off vs on (interval 4096 L2P-log entries)\n",
      kCutsPerPoint);
  std::printf("%-12s %8s %10s %12s %11s %11s %10s %10s\n", "interval",
              "cuts", "torn/cut", "replay/cut", "scan/cut", "skip/cut",
              "mount(us)", "p99(us)");

  for (const std::uint64_t mean_ns : kMeanIntervalsNs) {
    for (const bool ckpt : {false, true}) {
      RecoveryStats rs;
      if (!RunPoint(mean_ns, ckpt, kCutsPerPoint, kOpsPerSlice, &rs)) return 1;
      const double n = static_cast<double>(rs.power_cuts);
      char label[32];
      std::snprintf(label, sizeof(label), "%s %s",
                    SimDuration::Nanos(mean_ns).ToString().c_str(),
                    ckpt ? "ckpt" : "scan");
      std::printf("%-12s %8llu %10.1f %12.1f %11.1f %11.1f %10.1f %10.1f\n",
                  label, static_cast<unsigned long long>(rs.power_cuts),
                  static_cast<double>(rs.torn_program_slots) / n,
                  static_cast<double>(rs.replayed_mappings) / n,
                  static_cast<double>(rs.pages_scanned) / n,
                  static_cast<double>(rs.pages_skipped) / n,
                  rs.remount_hist.mean().seconds() * 1e6,
                  PercentileUs(rs.remount_hist, 0.99));
      if (ckpt) {
        // The checkpoint counters only mean something on the on-row:
        // image writes, torn images lost to cuts, image-served mounts,
        // entries replayed/rejected, and zones restored without a
        // reconcile re-walk.
        std::printf(
            "  ckpt: written=%llu torn=%llu loaded=%llu replayed=%llu "
            "stale_dropped=%llu zones_restored=%llu\n",
            static_cast<unsigned long long>(rs.checkpoints_written),
            static_cast<unsigned long long>(rs.checkpoints_torn),
            static_cast<unsigned long long>(rs.checkpoint_loaded),
            static_cast<unsigned long long>(rs.checkpoint_mappings),
            static_cast<unsigned long long>(rs.checkpoint_stale_dropped),
            static_cast<unsigned long long>(rs.zones_restored));
        std::printf("  ckpt age: %s\n", rs.checkpoint_age_hist.Summary().c_str());
      }
      std::printf("  %s\n", rs.Summary().c_str());
    }
  }
  return 0;
}
