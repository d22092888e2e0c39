// Executor tests: the determinism contract of the fork-join fan-out
// (DESIGN.md §7). Its one library consumer, ShardedRunner, is covered
// for thread-count invariance in shard_test.cpp and fleet_soak_test.cpp.
//
//   * Core contract: Run(n, fn) invokes fn exactly once per task id in
//     [0, n), at every lane count, including n == 0 and n much larger
//     than the lane count.
//   * One lane: tasks run inline on the calling thread, in id order —
//     the serial reference every parallel run must match.
//   * Nesting: a Run() issued from inside a task still runs every
//     nested task exactly once.
//   * Uneven costs: a few expensive tasks among cheap ones still
//     complete exactly once each with the right result, whichever
//     thread pulls them off the cursor.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "conzone/conzone.hpp"

namespace conzone {
namespace {

TEST(ExecutorTest, EveryTaskRunsExactlyOnce) {
  for (const std::uint32_t lanes : {1u, 2u, 4u, 8u}) {
    const Executor exec(lanes);
    for (const std::size_t tasks : {std::size_t{0}, std::size_t{1},
                                    std::size_t{3}, std::size_t{64},
                                    std::size_t{1000}}) {
      std::vector<std::atomic<std::uint32_t>> hits(tasks);
      for (auto& h : hits) h.store(0);
      exec.Run(tasks, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < tasks; ++i) {
        ASSERT_EQ(hits[i].load(), 1u)
            << "lanes=" << lanes << " tasks=" << tasks << " id=" << i;
      }
    }
  }
}

TEST(ExecutorTest, OneLaneRunsInIdOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  Executor(1).Run(16, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller) << "task " << i;
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ExecutorTest, NestedRunRunsEveryTaskOnce) {
  const Executor exec(4);
  std::vector<std::atomic<std::uint32_t>> inner_hits(8 * 5);
  for (auto& h : inner_hits) h.store(0);
  std::atomic<std::uint32_t> outer_done{0};
  exec.Run(8, [&](std::size_t outer) {
    exec.Run(5, [&](std::size_t inner) {
      inner_hits[outer * 5 + inner].fetch_add(1);
    });
    outer_done.fetch_add(1);
  });
  EXPECT_EQ(outer_done.load(), 8u);
  for (std::size_t i = 0; i < inner_hits.size(); ++i) {
    EXPECT_EQ(inner_hits[i].load(), 1u) << "slot " << i;
  }
}

TEST(ExecutorTest, UnevenTaskCostsCompleteExactlyOnce) {
  // Every lanes-th task spins ~100x longer than the rest, so threads
  // finish their tasks at very different times and the cursor hands
  // out ids out of step with any fixed lane assignment. The assertable
  // contract is exactly-once completion with correct per-task results.
  constexpr std::size_t kTasks = 256;
  for (const std::uint32_t lanes : {2u, 4u, 8u}) {
    auto work = [lanes](std::size_t i) {
      std::uint64_t acc = i;
      const int spins = (i % lanes) == 0 ? 20000 : 200;
      for (int s = 0; s < spins; ++s) acc = acc * 6364136223846793005ull + 1;
      return acc;
    };
    std::vector<std::uint64_t> out(kTasks, 0);
    Executor(lanes).Run(kTasks, [&](std::size_t i) { out[i] = work(i); });
    // Recompute serially and compare: catches lost, duplicated and
    // cross-wired tasks in one shot.
    for (std::size_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(out[i], work(i)) << "lanes=" << lanes << " task=" << i;
    }
  }
}

}  // namespace
}  // namespace conzone
