// Deterministic fork-join fan-out over one atomic cursor (DESIGN.md §7).
//
// The one substrate for wall-clock parallelism in the emulator. Its one
// library consumer is ShardedRunner, which submits one batch of shard
// tasks per run: shards are the one grain of host parallelism. The host
// volumes issue member sub-requests inline, in member order, and never
// reach the executor. The contract is the merge-after-join pattern the
// sharded runner proved thread-count invariant:
//
//   * Tasks have stable ids 0..n-1.
//   * A task writes only to state it owns (its result slot, its shard);
//     tasks never communicate.
//   * Run() is a join barrier: it returns only after every task of the
//     batch has completed, and the caller merges results strictly in
//     task-id order afterwards.
//
// Under that contract the lane count, the order in which ids are pulled
// and the OS scheduler can change only wall-clock time — never an output
// bit. Executor(1) is the serial reference: it runs every task inline on
// the calling thread, in id order.
//
// Scheduling. With min(lanes, n) > 1, Run() starts min(lanes, n) - 1
// threads; they and the calling thread pull task ids from one shared
// atomic cursor until it passes n, and Run() joins the threads before it
// returns. Nothing outlives a batch, so a Run() issued from inside a
// task simply starts its own threads.
//
// Tasks must not throw: the emulator's failure vocabulary is Status,
// carried out through the task's result slot.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace conzone {

class Executor {
 public:
  /// `lanes` threads including the caller; 0 and 1 both run inline.
  explicit Executor(std::uint32_t lanes) : lanes_(lanes) {}

  /// Invoke fn(i) once for every i in [0, tasks) and join. fn may be
  /// invoked concurrently from several threads with distinct ids.
  template <class Fn>
  void Run(std::size_t tasks, Fn&& fn) const {
    const std::size_t lanes = std::min<std::size_t>(lanes_, tasks);
    if (lanes <= 1) {
      for (std::size_t i = 0; i < tasks; ++i) fn(i);
      return;
    }
    std::atomic<std::size_t> cursor{0};
    auto drain = [&] {
      for (std::size_t i = cursor++; i < tasks; i = cursor++) fn(i);
    };
    std::vector<std::jthread> helpers;
    helpers.reserve(lanes - 1);
    for (std::size_t l = 1; l < lanes; ++l) helpers.emplace_back(drain);
    drain();
    // ~jthread joins every helper as `helpers` goes out of scope, before
    // `cursor`: that is the join barrier.
  }

 private:
  std::uint32_t lanes_;
};

/// Old name, still used by the benchmark's own tree (perfbench); goes
/// with RedundantVolume::set_executor at the next benchmark change.
using WorkStealingExecutor = Executor;

}  // namespace conzone
