// Sharded multi-device parallel runner — the scale-out half of the
// engine, and the one place shard fan-out, cut scheduling and result
// merging live.
//
// A shard is a fully independent simulated device: its own
// ConZoneConfig, its own fault-RNG stream, its own workload RNGs, its
// own event queue. Shards share NOTHING mutable, which is what lets a
// single process drive N of them in parallel without a single lock on
// the simulation hot path. Shard tasks are fanned out by the
// deterministic fork-join executor (src/exec, DESIGN.md §7), whose one
// library consumer this runner is, so the only synchronization is the
// executor's task cursor (off the hot path, once per shard) and its
// join barrier.
//
// Each shard runs one of two bodies:
//   * FIO body (`jobs`): a FioRunner job list, optionally over a
//     striped volume, optionally interleaved with scheduled power cuts
//     and workload resume (DESIGN.md §13, resume rules).
//   * Soak body (`soak`): the crash harness's mixed op stream, each
//     scheduled cut followed by a remount and the crash-consistency
//     checker; a shard that latches read-only ends early as a survivor
//     (DESIGN.md §13).
//
// Determinism contract:
//   * Each shard's entire run is a pure function of (plan, shard_id):
//     its config (ConfigForShard), job or op-mix seeds (JobsForShard,
//     WorkloadForShard) and cut times (a CutStream on the derived fault
//     seed) are derived with MixSeeds, then the run is an ordinary
//     single-threaded DES.
//   * Results are written into a preallocated per-shard slot and merged
//     in shard-id order AFTER all workers join. Thread count, scheduling
//     order, and core count therefore cannot change any output bit —
//     they only change wall-clock time.
//   * Shard 0 is the identity derivation: a 1-shard plan reproduces the
//     plain single-device FioRunner run (or CrashHarness soak) bit for
//     bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "core/config.hpp"
#include "core/crash_checker.hpp"
#include "core/storage_device.hpp"
#include "fault/fault_model.hpp"
#include "host/striped_volume.hpp"
#include "workload/fio.hpp"

namespace conzone {

/// Scheduled mid-run power cuts for each shard. With cuts > 0 every
/// shard interleaves its body with up to `cuts` full PowerCut/Recover
/// cycles at the times its CutStream (seeded by the shard's derived
/// fault seed) yields. Requires members == 1 (cuts act on a bare ConZone
/// device; volumes have their own rebuild story).
struct ShardCutSchedule {
  std::uint32_t cuts = 0;  ///< 0 = no cuts.
  CutScheduleKind kind = CutScheduleKind::kRandomInterval;
  /// Fixed: exact gap between resume and the next cut. Random: mean of
  /// the exponential gap. Must be > 0 when cuts > 0.
  std::uint64_t interval_ns = 10'000'000;
};

/// Everything needed to reproduce a sharded run. Exactly one body is
/// set: `jobs` (FIO) or `soak`.
struct ShardPlan {
  /// Template device configuration; shard i runs ConfigForShard(plan, i).
  ConZoneConfig config;
  std::uint32_t shards = 1;
  /// Threads, the caller included; 0 = min(shards,
  /// hardware_concurrency). Results are bit-identical for any value —
  /// the merge is what's ordered, not the execution.
  std::uint32_t threads = 0;
  std::uint64_t master_seed = 1;
  /// Mid-run power-cut schedule (cuts == 0 disables it).
  ShardCutSchedule cut_schedule;
  /// When the template enables checkpoints, shard i checkpoints every
  /// config.checkpoint.interval_entries << (i % checkpoint_stagger_levels)
  /// flushed L2P-log entries, so one fleet covers a cadence spread.
  /// 1 = every shard keeps the template cadence.
  std::uint32_t checkpoint_stagger_levels = 1;

  // --- FIO body ---
  /// Template job list, instantiated per shard with decorrelated seeds
  /// (shard 0 keeps the template seeds unchanged).
  std::vector<JobSpec> jobs;
  /// Devices per shard. 1 = a bare ConZone device; >1 = each shard
  /// drives a StripedVolume of this many ConZone members, member j of
  /// shard i seeded by ForShard(i * members + j).
  std::uint32_t members = 1;
  /// Striping geometry when members > 1.
  StripedVolumeOptions volume;
  /// Sequentially fill [0, precondition_bytes) on each shard before the
  /// measured jobs (read workloads need written media).
  std::uint64_t precondition_bytes = 0;

  // --- Soak body ---
  /// Per-shard op mix (seed re-derived per shard; shard 0 keeps it).
  std::optional<CrashHarness::Options> soak;
  /// Ops per scheduling slice: the shard runs this many ops, then checks
  /// whether the cut alarm has fired. Granularity only — the cut lands
  /// at the scheduled time either way.
  std::size_t ops_per_slice = 16;
};

/// One shard's outcome, in full — kept per shard (not just merged) so
/// callers can inspect fleet variance, e.g. fault-rate or
/// remount-latency spread. Device counters come through the uniform
/// StorageDevice::Stats()/Reliability()/Recovery() interface, so a
/// shard's device can be a bare ConZone device or a striped volume
/// without the result type caring.
struct ShardResult {
  std::uint32_t shard_id = 0;
  /// The FIO body's run. The soak body fills only total.ops (workload
  /// ops completed) and end_time.
  RunResult run;
  ReliabilityStats reliability;
  /// Remount/checkpoint accounting (all-zero without cuts or
  /// power-loss emulation).
  RecoveryStats recovery;
  StatsSnapshot device;
  std::uint32_t cuts = 0;      ///< Scheduled cuts taken.
  std::uint32_t remounts = 0;  ///< Recover() remounts completed.
  /// Soak body: remounts the crash-consistency checker verified
  /// (== remounts on a passing soak; a violation fails the run).
  std::uint32_t checker_passes = 0;
  /// Soak body survivor flag: the device latched read-only (healthy
  /// spare floor) and the shard ended early. Reported, never fatal.
  bool read_only = false;
  /// Soak body: checker FNV over every recovered state it verified.
  std::uint64_t fingerprint = 0;
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
  StatsSnapshot device;           ///< Merged device counters.
  std::uint64_t events = 0;       ///< Simulator events executed, summed.
  std::uint64_t io_errors = 0;
  SimTime end_time;               ///< Max over shards.
  std::uint32_t read_only_shards = 0;  ///< Survivors, not failures.
  /// Order-sensitive FNV over every shard's (id, fingerprint, cuts,
  /// end time) — one number two fleet runs can be compared by.
  std::uint64_t fleet_fingerprint = 0;
};

class ShardedRunner {
 public:
  explicit ShardedRunner(ShardPlan plan);

  /// Validate the plan, run every shard and merge. Any shard error
  /// (for the soak, anything but the read-only latch) fails the whole
  /// run; the lowest-numbered failing shard's status is returned
  /// (deterministic, unlike first-to-fail).
  Result<ShardedResult> Run();

  const ShardPlan& plan() const { return plan_; }

  /// The exact device configuration shard `shard_id` runs: power-loss
  /// journaling forced on when cuts are scheduled, the staggered
  /// checkpoint cadence when the template checkpoints, then the
  /// ForShard seed derivation. Exposed so tests can replay one shard as
  /// a plain single-device run.
  static ConZoneConfig ConfigForShard(const ShardPlan& plan,
                                      std::uint32_t shard_id);

  /// The job list shard `shard_id` actually runs (derived seeds).
  static std::vector<JobSpec> JobsForShard(const ShardPlan& plan,
                                           std::uint32_t shard_id);

  /// The op-mix options shard `shard_id` soaks (seed re-derived via
  /// MixSeeds; shard 0 keeps the template seed).
  static CrashHarness::Options WorkloadForShard(const ShardPlan& plan,
                                                std::uint32_t shard_id);

 private:
  ShardPlan plan_;
};

}  // namespace conzone
