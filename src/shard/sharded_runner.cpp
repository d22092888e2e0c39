#include "shard/sharded_runner.hpp"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "core/device.hpp"
#include "exec/executor.hpp"

namespace conzone {

namespace {

/// Per-shard slot a worker fills in; merged only after join.
struct ShardOutcome {
  Status status = Status::Ok();
  ShardResult result;
};

/// The template config with the plan's per-shard policy applied, before
/// the ForShard seed derivation.
ConZoneConfig PolicyConfig(const ShardPlan& plan, std::uint32_t shard_id) {
  ConZoneConfig cfg = plan.config;
  if (plan.cut_schedule.cuts > 0) cfg.fault.power_loss = true;  // undo journal
  if (cfg.checkpoint.enabled) {
    const std::uint32_t levels = std::max(plan.checkpoint_stagger_levels, 1u);
    cfg.checkpoint.interval_entries <<= shard_id % levels;
  }
  return cfg;
}

Status ValidatePlan(const ShardPlan& plan) {
  if (plan.shards == 0) {
    return Status::InvalidArgument("sharded runner: need at least one shard");
  }
  if (plan.jobs.empty() == !plan.soak.has_value()) {
    return Status::InvalidArgument(
        "sharded runner: set exactly one body, jobs or soak");
  }
  if (plan.cut_schedule.cuts > 0 && plan.cut_schedule.interval_ns == 0) {
    return Status::InvalidArgument("sharded runner: cut interval must be > 0");
  }
  if (plan.members > 1 && (plan.soak || plan.cut_schedule.cuts > 0)) {
    return Status::InvalidArgument(
        "sharded runner: soak and cut_schedule require members == 1");
  }
  return Status::Ok();
}

/// Copy the uniform device counters into the shard's result.
void RecordDevice(const StorageDevice& dev, ShardResult& r) {
  r.reliability = dev.Reliability();
  r.recovery = dev.Recovery();
  r.device = dev.Stats();
}

/// The FIO body. A shard's device is a bare ConZone device (members ==
/// 1, the identity path) or a striped volume over `members` ConZone
/// devices, each with its own decorrelated config stream. With a cut
/// schedule the session pauses at each scheduled cut, the device loses
/// power and remounts, the surviving jobs resync their cursors against
/// the recovered write pointers, and the run continues to its normal
/// stop conditions after the last cut. Without one, Begin + RunAll +
/// Finish is exactly FioRunner::Run.
Status RunFioShard(const ShardPlan& plan, std::uint32_t shard_id,
                   ShardResult& r) {
  const ConZoneConfig cfg = ShardedRunner::ConfigForShard(plan, shard_id);
  std::unique_ptr<StorageDevice> dev;
  ConZoneDevice* bare = nullptr;  // the cut loop needs the concrete device
  if (plan.members <= 1) {
    auto created = ConZoneDevice::Create(cfg);
    if (!created.ok()) return created.status();
    bare = created.value().get();
    dev = std::move(created).value();
  } else {
    const ConZoneConfig base = PolicyConfig(plan, shard_id);
    std::vector<std::unique_ptr<StorageDevice>> devs;
    devs.reserve(plan.members);
    for (std::uint32_t j = 0; j < plan.members; ++j) {
      auto member = ConZoneDevice::Create(
          base.ForShard(shard_id * plan.members + j, plan.master_seed));
      if (!member.ok()) return member.status();
      devs.push_back(std::move(member).value());
    }
    auto vol = StripedVolume::Create(std::move(devs), plan.volume);
    if (!vol.ok()) return vol.status();
    dev = std::move(vol).value();
  }

  SimTime start = SimTime::Zero();
  if (plan.precondition_bytes > 0) {
    if (Status st = FioRunner::Precondition(*dev, 0, plan.precondition_bytes,
                                            512 * kKiB, &start);
        !st.ok()) {
      return st;
    }
  }

  FioRunner fio(*dev);
  FioRunner::Session session(fio, ShardedRunner::JobsForShard(plan, shard_id),
                             start);
  if (Status st = session.Begin(); !st.ok()) return st;

  CutStream cuts(plan.cut_schedule.kind, plan.cut_schedule.interval_ns,
                 cfg.fault.seed);
  auto wp_of = [bare](std::uint64_t z) -> Result<std::uint64_t> {
    return bare->zones().Info(ZoneId{z}).write_pointer;
  };
  SimTime next_cut = cuts.Next(start);
  while (r.cuts < plan.cut_schedule.cuts) {
    if (Status st = session.RunUntil(next_cut); !st.ok()) return st;
    if (session.done()) break;  // workload finished before the schedule
    // Issue chains can submit past the pause point (zone resets on wrap
    // advance the submission clock); PowerCut refuses to rewind, so
    // clamp forward.
    const SimTime at = Later(next_cut, bare->last_submit());
    if (Status st = bare->PowerCut(at); !st.ok()) return st;
    ++r.cuts;
    auto rec = bare->Recover(at);
    if (!rec.ok()) return rec.status();
    ++r.remounts;
    auto resumed = session.Resume(rec.value(), wp_of);
    if (!resumed.ok()) return resumed.status();
    next_cut = cuts.Next(resumed.value());
  }

  if (Status st = session.RunAll(); !st.ok()) return st;
  auto run = session.Finish();
  if (!run.ok()) return run.status();
  r.run = std::move(run).value();
  RecordDevice(*dev, r);
  return Status::Ok();
}

/// The soak body: workload slices between scheduled cuts, each cut
/// followed by the full remount pipeline and the consistency checker.
Status RunSoakShard(const ShardPlan& plan, std::uint32_t shard_id,
                    ShardResult& r) {
  const ConZoneConfig cfg = ShardedRunner::ConfigForShard(plan, shard_id);
  CrashHarness h(cfg, ShardedRunner::WorkloadForShard(plan, shard_id));
  if (Status st = h.Init(); !st.ok()) return st;

  CutStream cuts(plan.cut_schedule.kind, plan.cut_schedule.interval_ns,
                 cfg.fault.seed);
  const std::size_t slice = std::max<std::size_t>(plan.ops_per_slice, 1);
  SimTime next_cut = cuts.Next(h.now());
  while (r.cuts < plan.cut_schedule.cuts) {
    if (Status st = h.RunOps(slice); !st.ok()) {
      // Degraded-shard policy: a device that latched read-only cannot
      // run the write-heavy stream any further — a survivor, not a
      // failure. Anything else is genuine.
      if (h.device().read_only()) break;
      return st;
    }
    r.run.total.ops += slice;
    if (h.now() < next_cut) continue;  // keep running until the alarm
    // The alarm can land inside an idle gap that ended before the last
    // submission; PowerCut refuses to rewind, so clamp forward.
    if (Status st = h.CutAt(Later(next_cut, h.last_submit())); !st.ok()) {
      return st;
    }
    ++r.cuts;
    // Remount + full crash-consistency verification before the shard
    // resumes. A violation here is the soak's whole point of failure.
    if (Status st = h.RecoverAndVerify(); !st.ok()) return st;
    ++r.remounts;
    ++r.checker_passes;
    next_cut = cuts.Next(h.now());
  }

  r.read_only = h.device().read_only();
  r.fingerprint = h.fingerprint();
  r.run.end_time = h.now();
  RecordDevice(h.device(), r);
  return Status::Ok();
}

}  // namespace

ShardedRunner::ShardedRunner(ShardPlan plan) : plan_(std::move(plan)) {}

ConZoneConfig ShardedRunner::ConfigForShard(const ShardPlan& plan,
                                            std::uint32_t shard_id) {
  // Seed derivation last: identity at shard 0, decorrelated fault
  // stream elsewhere.
  return PolicyConfig(plan, shard_id).ForShard(shard_id, plan.master_seed);
}

std::vector<JobSpec> ShardedRunner::JobsForShard(const ShardPlan& plan,
                                                 std::uint32_t shard_id) {
  std::vector<JobSpec> jobs = plan.jobs;
  if (shard_id == 0) return jobs;  // identity: 1-shard == single-device
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    // Salt with the job index too: jobs sharing a template seed must not
    // collapse into one stream on every shard.
    jobs[j].seed = MixSeeds(jobs[j].seed + j, plan.master_seed, shard_id);
  }
  return jobs;
}

CrashHarness::Options ShardedRunner::WorkloadForShard(const ShardPlan& plan,
                                                      std::uint32_t shard_id) {
  CrashHarness::Options o = plan.soak.value_or(CrashHarness::Options{});
  if (shard_id != 0) {  // identity: shard 0 == the single-device soak
    o.seed = MixSeeds(o.seed, plan.master_seed, shard_id);
  }
  return o;
}

Result<ShardedResult> ShardedRunner::Run() {
  if (Status st = ValidatePlan(plan_); !st.ok()) return st;
  const std::uint32_t shards = plan_.shards;
  std::uint32_t threads = plan_.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = std::min(shards, hw == 0 ? 1u : static_cast<std::uint32_t>(hw));
  }
  threads = std::min(threads, shards);

  std::vector<ShardOutcome> outcomes(shards);
  // Shard ids are the executor's task ids: submitted in shard order,
  // run wherever the deques and steals land them. Which lane runs which
  // shard is scheduling-dependent — but each outcome lands in its own
  // preallocated slot and the merge below happens after the join
  // barrier, in shard-id order, so the merge never sees that.
  auto shard_task = [&](std::size_t id) {
    ShardOutcome& out = outcomes[id];
    out.result.shard_id = static_cast<std::uint32_t>(id);
    out.status = plan_.soak ? RunSoakShard(plan_, out.result.shard_id, out.result)
                            : RunFioShard(plan_, out.result.shard_id, out.result);
  };
  if (plan_.executor != nullptr) {
    plan_.executor->Run(shards, shard_task);
  } else if (threads <= 1) {
    // Inline serial reference path: zero thread overhead.
    SerialExecutor().Run(shards, shard_task);
  } else {
    WorkStealingExecutor(threads).Run(shards, shard_task);
  }

  // Merge after join, in shard-id order: deterministic for any thread
  // count. Errors resolve to the lowest failing shard for the same
  // reason.
  for (std::uint32_t i = 0; i < shards; ++i) {
    if (!outcomes[i].status.ok()) return std::move(outcomes[i].status);
  }
  ShardedResult merged;
  merged.shards.reserve(shards);
  SimDuration longest;
  std::uint64_t fp = 0xCBF29CE484222325ull;
  auto mix = [&fp](std::uint64_t v) { fp = (fp ^ v) * 0x100000001B3ull; };
  for (std::uint32_t i = 0; i < shards; ++i) {
    ShardResult& s = outcomes[i].result;
    merged.total.bytes += s.run.total.bytes;
    merged.total.ops += s.run.total.ops;
    longest = std::max(longest, s.run.total.elapsed);
    merged.latency.Merge(s.run.latency);
    merged.reliability.Merge(s.reliability);
    merged.recovery.Merge(s.recovery);
    merged.device.Merge(s.device);
    merged.events += s.run.events;
    merged.io_errors += s.run.io_errors;
    merged.end_time = std::max(merged.end_time, s.run.end_time);
    merged.read_only_shards += s.read_only ? 1u : 0u;
    mix(s.shard_id);
    mix(s.fingerprint);
    mix(s.cuts);
    mix(s.run.end_time.ns());
    merged.shards.push_back(std::move(s));
  }
  merged.total.elapsed = longest;
  merged.fleet_fingerprint = fp;
  return merged;
}

}  // namespace conzone
