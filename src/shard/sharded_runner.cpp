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

/// A shard's device: a bare ConZone device (members == 1, the identity
/// path) or a striped volume over `members` ConZone devices, each with
/// its own decorrelated config stream.
Result<std::unique_ptr<StorageDevice>> MakeShardDevice(const ShardPlan& plan,
                                                       std::uint32_t shard_id) {
  const std::uint32_t members = plan.members == 0 ? 1 : plan.members;
  if (members == 1) {
    auto dev =
        ConZoneDevice::Create(plan.config.ForShard(shard_id, plan.master_seed));
    if (!dev.ok()) return dev.status();
    return std::unique_ptr<StorageDevice>(std::move(dev).value());
  }
  std::vector<std::unique_ptr<StorageDevice>> devs;
  devs.reserve(members);
  for (std::uint32_t j = 0; j < members; ++j) {
    auto dev = ConZoneDevice::Create(
        plan.config.ForShard(shard_id * members + j, plan.master_seed));
    if (!dev.ok()) return dev.status();
    devs.push_back(std::move(dev).value());
  }
  auto vol = StripedVolume::Create(std::move(devs), plan.volume);
  if (!vol.ok()) return vol.status();
  return std::unique_ptr<StorageDevice>(std::move(vol).value());
}

/// The cut-schedule path: a bare ConZone shard whose FIO workload is
/// interleaved with full PowerCut/Recover cycles at deterministic,
/// seed-derived times. The session pauses at each scheduled cut, the
/// device loses power and remounts, the surviving jobs resync their
/// cursors against the recovered write pointers, and the run continues
/// to its normal stop conditions after the last scheduled cut.
ShardOutcome RunOneShardWithCuts(const ShardPlan& plan, std::uint32_t shard_id) {
  ShardOutcome out;
  out.result.shard_id = shard_id;
  auto fail = [&out](Status st) {
    out.status = std::move(st);
    return out;
  };

  if (plan.members > 1) {
    return fail(Status::InvalidArgument(
        "sharded runner: cut_schedule requires members == 1"));
  }
  ConZoneConfig cfg = plan.config.ForShard(shard_id, plan.master_seed);
  cfg.fault.power_loss = true;  // cuts need the undo journal armed
  auto devr = ConZoneDevice::Create(cfg);
  if (!devr.ok()) return fail(devr.status());
  ConZoneDevice& dev = **devr;

  SimTime start = SimTime::Zero();
  if (plan.precondition_bytes > 0) {
    Status st = FioRunner::Precondition(dev, 0, plan.precondition_bytes,
                                        512 * kKiB, &start);
    if (!st.ok()) return fail(std::move(st));
  }

  FioRunner fio(dev);
  FioRunner::Session session(fio, ShardedRunner::JobsForShard(plan, shard_id),
                             start);
  if (Status st = session.Begin(); !st.ok()) return fail(std::move(st));

  // The cut stream is a pure function of the shard's derived fault seed:
  // fixed intervals need no randomness; random intervals ride
  // FaultModel's decorrelated cut stream (same derivation a device-side
  // schedule would use, so shard 0 matches a single-device run of the
  // template config).
  const std::uint64_t interval = plan.cut_schedule.interval_ns;
  FaultModel schedule;
  if (plan.cut_schedule.kind == CutScheduleKind::kRandomInterval) {
    FaultConfig sc;
    sc.seed = cfg.fault.seed;
    sc.power_cut_mean_interval_ns = interval;
    schedule = FaultModel(sc);
  }
  auto next_cut_after = [&](SimTime t) {
    return plan.cut_schedule.kind == CutScheduleKind::kRandomInterval
               ? schedule.NextCutAfter(t)
               : t + SimDuration::Nanos(interval);
  };
  auto wp_of = [&dev](std::uint64_t z) -> Result<std::uint64_t> {
    return dev.zones().Info(ZoneId{z}).write_pointer;
  };

  SimTime next_cut = next_cut_after(start);
  for (std::uint32_t cut = 0; cut < plan.cut_schedule.cuts; ++cut) {
    if (Status st = session.RunUntil(next_cut); !st.ok()) {
      return fail(std::move(st));
    }
    if (session.done()) break;  // workload finished before the schedule
    // Issue chains can submit past the pause point (zone resets on wrap
    // advance the submission clock); PowerCut refuses to rewind, so
    // clamp forward.
    const SimTime at = Later(next_cut, dev.last_submit());
    if (Status st = dev.PowerCut(at); !st.ok()) return fail(std::move(st));
    auto rec = dev.Recover(at);
    if (!rec.ok()) return fail(rec.status());
    auto resumed = session.Resume(rec.value(), wp_of);
    if (!resumed.ok()) return fail(resumed.status());
    next_cut = next_cut_after(resumed.value());
  }

  if (Status st = session.RunAll(); !st.ok()) return fail(std::move(st));
  auto run = session.Finish();
  if (!run.ok()) return fail(run.status());
  out.result.run = std::move(run).value();
  out.result.reliability = dev.Reliability();
  out.result.recovery = dev.Recovery();
  out.result.device = dev.Stats();
  return out;
}

ShardOutcome RunOneShard(const ShardPlan& plan, std::uint32_t shard_id) {
  if (plan.cut_schedule.cuts > 0) return RunOneShardWithCuts(plan, shard_id);

  ShardOutcome out;
  out.result.shard_id = shard_id;

  auto devr = MakeShardDevice(plan, shard_id);
  if (!devr.ok()) {
    out.status = devr.status();
    return out;
  }
  StorageDevice& dev = **devr;

  SimTime start = SimTime::Zero();
  if (plan.precondition_bytes > 0) {
    Status st = FioRunner::Precondition(dev, 0, plan.precondition_bytes,
                                        512 * kKiB, &start);
    if (!st.ok()) {
      out.status = std::move(st);
      return out;
    }
  }

  FioRunner fio(dev);
  auto run = fio.Run(ShardedRunner::JobsForShard(plan, shard_id), start);
  if (!run.ok()) {
    out.status = run.status();
    return out;
  }
  out.result.run = std::move(run).value();
  out.result.reliability = dev.Reliability();
  out.result.recovery = dev.Recovery();
  out.result.device = dev.Stats();
  return out;
}

}  // namespace

ShardedRunner::ShardedRunner(ShardPlan plan) : plan_(std::move(plan)) {}

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

Result<ShardedResult> ShardedRunner::Run() {
  if (plan_.shards == 0) {
    return Status::InvalidArgument("sharded runner: need at least one shard");
  }
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
    outcomes[id] = RunOneShard(plan_, static_cast<std::uint32_t>(id));
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
  for (std::uint32_t i = 0; i < shards; ++i) {
    ShardResult& s = outcomes[i].result;
    merged.total.bytes += s.run.total.bytes;
    merged.total.ops += s.run.total.ops;
    longest = std::max(longest, s.run.total.elapsed);
    merged.latency.Merge(s.run.latency);
    merged.reliability.Merge(s.reliability);
    merged.recovery.Merge(s.recovery);
    merged.events += s.run.events;
    merged.io_errors += s.run.io_errors;
    merged.end_time = std::max(merged.end_time, s.run.end_time);
    merged.shards.push_back(std::move(s));
  }
  merged.total.elapsed = longest;
  return merged;
}

}  // namespace conzone
