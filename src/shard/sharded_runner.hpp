// Sharded multi-device parallel runner — the scale-out half of the
// engine.
//
// A shard is a fully independent simulated device: its own
// ConZoneConfig, its own fault-RNG stream, its own workload RNGs, its
// own event queue. Shards share NOTHING mutable, which is what lets a
// single process drive N of them in parallel without a single lock on
// the simulation hot path. Shard tasks are scheduled on the shared
// deterministic work-stealing executor (src/exec, DESIGN.md §7) — the
// same substrate StripedVolume fans member sub-requests out on — so
// the runner no longer carries a bespoke thread pool; the only
// synchronization is the executor's deques (off the hot path, once per
// shard) and its join barrier.
//
// Determinism contract:
//   * Each shard's entire run is a pure function of
//     (plan.config, plan.jobs, plan.master_seed, shard_id): the shard's
//     fault seed and job seeds are derived with MixSeeds, then the run
//     is an ordinary single-threaded DES.
//   * Results are written into a preallocated per-shard slot and merged
//     in shard-id order AFTER all workers join. Thread count, scheduling
//     order, and core count therefore cannot change any output bit —
//     they only change wall-clock time.
//   * Shard 0 is the identity derivation: a 1-shard plan reproduces the
//     plain single-device FioRunner run bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "core/config.hpp"
#include "core/storage_device.hpp"
#include "fault/fault_model.hpp"
#include "host/striped_volume.hpp"
#include "workload/fio.hpp"

namespace conzone {

class Executor;

/// Scheduled mid-run power cuts for each shard. With cuts > 0 every
/// shard interleaves its FIO workload with `cuts` full
/// PowerCut/Recover cycles: run to the next scheduled cut time, cut,
/// remount, resync the surviving jobs' cursors against the recovered
/// write pointers (FioRunner::Session::Resume), continue. Cut times
/// are a pure function of the shard's derived fault seed, so the
/// determinism contract is untouched. Requires members == 1 (cuts act
/// on a bare ConZone device; volumes have their own rebuild story).
struct ShardCutSchedule {
  std::uint32_t cuts = 0;  ///< 0 = no cuts (the historical path).
  CutScheduleKind kind = CutScheduleKind::kRandomInterval;
  /// Fixed: exact workload-time gap between resume and the next cut.
  /// Random: mean of the exponential gap (FaultModel::NextCutAfter).
  std::uint64_t interval_ns = 10'000'000;
};

/// Everything needed to reproduce a sharded run.
struct ShardPlan {
  /// Template device configuration; member j of shard i runs
  /// config.ForShard(i * members + j, master_seed) — with members == 1
  /// this is the classic per-shard derivation, unchanged.
  ConZoneConfig config;
  /// Template job list, instantiated per shard with decorrelated seeds
  /// (shard 0 keeps the template seeds unchanged).
  std::vector<JobSpec> jobs;
  std::uint32_t shards = 1;
  /// Devices per shard. 1 = a bare ConZone device (the historical
  /// behavior, bit for bit); >1 = each shard drives a StripedVolume of
  /// this many ConZone members.
  std::uint32_t members = 1;
  /// Striping geometry when members > 1.
  StripedVolumeOptions volume;
  /// Worker threads; 0 = min(shards, hardware_concurrency). Ignored
  /// when `executor` is set.
  std::uint32_t threads = 0;
  /// Schedule shard tasks on this shared executor instead of building
  /// one per run (non-owning; must outlive the run). Null = the runner
  /// constructs a WorkStealingExecutor with `threads` lanes. Results
  /// are bit-identical either way — the merge is what's ordered, not
  /// the execution.
  Executor* executor = nullptr;
  std::uint64_t master_seed = 1;
  /// Sequentially fill [0, precondition_bytes) on each shard before the
  /// measured jobs (read workloads need written media).
  std::uint64_t precondition_bytes = 0;
  /// Mid-run power-cut schedule (cuts == 0 disables it).
  ShardCutSchedule cut_schedule;
};

/// One shard's outcome, in full — kept per shard (not just merged) so
/// callers can inspect fleet variance, e.g. fault-rate spread. Device
/// counters come through the uniform StorageDevice::Stats() /
/// Reliability() interface, so a shard's device can be a bare ConZone
/// device or a striped volume without the result type caring.
struct ShardResult {
  std::uint32_t shard_id = 0;
  RunResult run;
  ReliabilityStats reliability;
  /// Remount/checkpoint accounting (uniform StorageDevice::Recovery();
  /// all-zero without a cut schedule or power-loss emulation).
  RecoveryStats recovery;
  StatsSnapshot device;
};

/// Merge of all shards, in fixed shard-id order.
struct ShardedResult {
  std::vector<ShardResult> shards;
  /// Summed bytes/ops; elapsed = the longest shard's simulated span
  /// (shards run concurrently, so the fleet is done when the slowest
  /// shard is).
  Throughput total;
  LatencyHistogram latency;       ///< Merged across all shards' jobs.
  ReliabilityStats reliability;   ///< Merged (counters, histograms).
  RecoveryStats recovery;         ///< Merged remount/checkpoint counters.
  std::uint64_t events = 0;       ///< Simulator events executed, summed.
  std::uint64_t io_errors = 0;
  SimTime end_time;               ///< Max over shards.
};

class ShardedRunner {
 public:
  explicit ShardedRunner(ShardPlan plan);

  /// Run every shard (on plan.threads workers) and merge. Any shard
  /// error fails the whole run; the lowest-numbered failing shard's
  /// status is returned (deterministic, unlike first-to-fail).
  Result<ShardedResult> Run();

  const ShardPlan& plan() const { return plan_; }

  /// The job list shard `shard_id` actually runs (derived seeds).
  /// Exposed for tests asserting the derivation contract.
  static std::vector<JobSpec> JobsForShard(const ShardPlan& plan,
                                           std::uint32_t shard_id);

 private:
  ShardPlan plan_;
};

}  // namespace conzone
