// Unit tests for the discrete-event engine: busy-until resource
// timelines and the event queue. The EventQueue tests cover the
// scheduler contract — time order, FIFO among equal timestamps, clamp
// semantics — and the randomized check at the bottom compares the
// executed order with an oracle: the scheduled set sorted by
// (effective time, schedule order).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <compare>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"

namespace conzone {
namespace {

TEST(ResourceTimelineTest, IdleResourceStartsImmediately) {
  ResourceTimeline r;
  const auto res = r.Reserve(SimTime::FromNanos(100), SimDuration::Nanos(50));
  EXPECT_EQ(res.start.ns(), 100u);
  EXPECT_EQ(res.end.ns(), 150u);
  EXPECT_EQ(r.busy_until().ns(), 150u);
}

TEST(ResourceTimelineTest, BusyResourceQueues) {
  ResourceTimeline r;
  r.Reserve(SimTime::Zero(), SimDuration::Nanos(100));
  const auto second = r.Reserve(SimTime::FromNanos(10), SimDuration::Nanos(20));
  EXPECT_EQ(second.start.ns(), 100u);  // waits for the first
  EXPECT_EQ(second.end.ns(), 120u);
}

TEST(ResourceTimelineTest, GapLeavesResourceIdle) {
  ResourceTimeline r;
  r.Reserve(SimTime::Zero(), SimDuration::Nanos(10));
  const auto late = r.Reserve(SimTime::FromNanos(1000), SimDuration::Nanos(10));
  EXPECT_EQ(late.start.ns(), 1000u);
  EXPECT_EQ(r.busy_time().ns(), 20u);  // utilization counts work only
  EXPECT_EQ(r.reservations(), 2u);
}

TEST(ResourceTimelineTest, ResetClearsState) {
  ResourceTimeline r;
  r.Reserve(SimTime::Zero(), SimDuration::Nanos(10));
  r.Reset();
  EXPECT_EQ(r.busy_until().ns(), 0u);
  EXPECT_EQ(r.busy_time().ns(), 0u);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::FromNanos(300), [&](SimTime) { order.push_back(3); });
  q.Schedule(SimTime::FromNanos(100), [&](SimTime) { order.push_back(1); });
  q.Schedule(SimTime::FromNanos(200), [&](SimTime) { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().ns(), 300u);
}

TEST(EventQueueTest, EqualTimestampsRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(SimTime::FromNanos(10), [&, i](SimTime) { order.push_back(i); });
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void(SimTime)> chain = [&](SimTime t) {
    if (++count < 10) q.Schedule(t + SimDuration::Nanos(5), chain);
  };
  q.Schedule(SimTime::Zero(), chain);
  q.RunAll();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(q.now().ns(), 45u);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int ran = 0;
  q.Schedule(SimTime::FromNanos(10), [&](SimTime) { ran++; });
  q.Schedule(SimTime::FromNanos(20), [&](SimTime) { ran++; });
  q.Schedule(SimTime::FromNanos(30), [&](SimTime) { ran++; });
  q.RunUntil(SimTime::FromNanos(20));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, RunUntilExactlyAtEventTimestampRunsIt) {
  // Deadline == event time is inclusive: the event at the deadline runs,
  // the next one (1 ns later) does not.
  EventQueue q;
  std::vector<std::uint64_t> ran;
  q.Schedule(SimTime::FromNanos(100), [&](SimTime t) { ran.push_back(t.ns()); });
  q.Schedule(SimTime::FromNanos(100), [&](SimTime t) { ran.push_back(t.ns()); });
  q.Schedule(SimTime::FromNanos(101), [&](SimTime t) { ran.push_back(t.ns()); });
  q.RunUntil(SimTime::FromNanos(100));
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{100, 100}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.now().ns(), 100u);
  q.RunUntil(SimTime::FromNanos(101));
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{100, 100, 101}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ScheduleAfterRunUntilPeekedPastDeadline) {
  // RunUntil must not "use up" the timeline: after it stops at a deadline
  // short of the next event, scheduling between the deadline and that
  // event must still run in correct order.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::FromNanos(1000), [&](SimTime) { order.push_back(2); });
  q.RunUntil(SimTime::FromNanos(100));  // peeks 1000, runs nothing
  EXPECT_EQ(q.now().ns(), 0u);
  q.Schedule(SimTime::FromNanos(500), [&](SimTime) { order.push_back(1); });
  q.Schedule(SimTime::FromNanos(1000), [&](SimTime) { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now().ns(), 1000u);
}

TEST(EventQueueTest, RunNextOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.RunNext());
}

TEST(EventQueueTest, SchedulingIntoThePastClampsToNow) {
  // The documented precondition (`t` not earlier than now()) is enforced
  // by clamping the event forward to now() and counting the violation.
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::FromNanos(100), [&](SimTime) {
    order.push_back(1);
    // now() == 100; asking for t=40 must not run in the simulated past.
    q.Schedule(SimTime::FromNanos(40), [&](SimTime t) {
      order.push_back(2);
      EXPECT_EQ(t.ns(), 100u);  // clamped to now()
    });
  });
  q.Schedule(SimTime::FromNanos(100), [&](SimTime) { order.push_back(3); });
  q.RunAll();
  // The clamped event lands at now()=100 and runs FIFO *after* the event
  // already queued at 100.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(q.clamped_schedules(), 1u);
  EXPECT_EQ(q.now().ns(), 100u);
}

TEST(EventQueueTest, ClampingNeverRewindsNow) {
  EventQueue q;
  q.Schedule(SimTime::FromNanos(50), [&](SimTime) {
    q.Schedule(SimTime::FromNanos(10), [](SimTime) {});
  });
  q.RunAll();
  EXPECT_EQ(q.now().ns(), 50u);  // monotone despite the past request
  EXPECT_EQ(q.clamped_schedules(), 1u);
}

TEST(EventQueueTest, CountsExecutedEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) {
    q.Schedule(SimTime::FromNanos(static_cast<std::uint64_t>(i)), [](SimTime) {});
  }
  q.RunAll();
  EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueueTest, SteadyStateChainRecyclesSlots) {
  // A long self-scheduling chain keeps exactly one event pending; the
  // slot pool must not grow with chain length (recycling, not leaking).
  EventQueue q;
  int count = 0;
  std::function<void(SimTime)> chain = [&](SimTime t) {
    if (++count < 10000) q.Schedule(t + SimDuration::Nanos(1), chain);
  };
  q.Schedule(SimTime::Zero(), chain);
  q.RunAll();
  EXPECT_EQ(count, 10000);
  EXPECT_EQ(q.executed(), 10000u);
}

TEST(EventQueueTest, OversizedCapturesStillRun) {
  // Callables beyond the inline buffer take the heap fallback but behave
  // identically.
  EventQueue q;
  std::array<std::uint64_t, 16> big{};
  big[15] = 42;
  std::uint64_t got = 0;
  q.Schedule(SimTime::FromNanos(5), [big, &got](SimTime) { got = big[15]; });
  q.RunAll();
  EXPECT_EQ(got, 42u);
}

TEST(EventQueueTest, FarFutureTimestampsAbove32Bits) {
  // Timestamps above 2^32 ns (~4.3 s) keep time order and
  // equal-timestamp FIFO, interleaved with near events and across
  // several 2^32 ns windows.
  EventQueue q;
  constexpr std::uint64_t kHorizon = 1ull << 32;
  std::vector<std::uint64_t> ran;
  std::vector<std::uint64_t> expect;
  // Two equal far timestamps (FIFO check), plus scattered window hops.
  const std::uint64_t far = 3 * kHorizon + 12345;
  q.Schedule(SimTime::FromNanos(far), [&](SimTime t) { ran.push_back(t.ns() + 0); });
  q.Schedule(SimTime::FromNanos(far), [&](SimTime t) { ran.push_back(t.ns() + 1); });
  q.Schedule(SimTime::FromNanos(7), [&](SimTime t) { ran.push_back(t.ns()); });
  q.Schedule(SimTime::FromNanos(kHorizon - 1), [&](SimTime t) { ran.push_back(t.ns()); });
  q.Schedule(SimTime::FromNanos(kHorizon + 1), [&](SimTime t) { ran.push_back(t.ns()); });
  q.Schedule(SimTime::FromNanos(10 * kHorizon), [&](SimTime t) {
    ran.push_back(t.ns());
    // A far event scheduling another far event (fresh overflow window).
    q.Schedule(t + SimDuration::Nanos(kHorizon + 5),
               [&](SimTime t2) { ran.push_back(t2.ns()); });
  });
  expect = {7, kHorizon - 1, kHorizon + 1, far + 0, far + 1,
            10 * kHorizon, 11 * kHorizon + 5};
  q.RunAll();
  EXPECT_EQ(ran, expect);
  EXPECT_EQ(q.executed(), 7u);
}

// --- Randomized oracle check ---------------------------------------------
//
// Every scheduled event records its effective time, max(at, now()), at
// the moment it is scheduled; ids are assigned in schedule order. The
// queue must then execute exactly the scheduled set, sorted by
// (effective time, id) — time order with FIFO among equal timestamps —
// with nothing lost or duplicated. The generator mixes dense
// equal-timestamp bursts, nested scheduling from inside callbacks,
// clamped past requests, timestamps above 2^32 ns and RunUntil stops
// between schedules.

struct TraceEvent {
  std::uint64_t when;
  std::uint64_t id;
  auto operator<=>(const TraceEvent&) const = default;
};

struct RandomScheduleRun {
  std::vector<TraceEvent> scheduled;
  std::vector<TraceEvent> executed;
};

RandomScheduleRun RunRandomSchedule(std::uint64_t seed) {
  EventQueue q;
  Rng rng(seed);
  RandomScheduleRun run;
  std::uint64_t next_id = 0;

  // Schedule one traced event at `at`; `spawn` runs after it is traced.
  auto schedule = [&](SimTime at, std::function<void(SimTime)> spawn) {
    const std::uint64_t id = next_id++;
    run.scheduled.push_back(TraceEvent{std::max(at, q.now()).ns(), id});
    q.Schedule(at, [&run, id, spawn = std::move(spawn)](SimTime t) {
      run.executed.push_back(TraceEvent{t.ns(), id});
      if (spawn) spawn(t);
    });
  };

  // Each root event may schedule children; cap total work.
  constexpr std::size_t kMaxEvents = 4000;
  auto schedule_root = [&](SimTime at) {
    schedule(at, [&](SimTime t) {
      if (run.executed.size() >= kMaxEvents) return;
      // 0-2 children at adversarial offsets.
      const std::uint64_t kids = rng.NextBelow(3);
      for (std::uint64_t k = 0; k < kids; ++k) {
        std::uint64_t off;
        switch (rng.NextBelow(6)) {
          case 0: off = 0; break;                        // same timestamp
          case 1: off = 1 + rng.NextBelow(4); break;
          case 2: off = 1 + rng.NextBelow(1 << 16); break;
          case 3: off = 1 + rng.NextBelow(1 << 30); break;
          case 4: off = (1ull << 32) + rng.NextBelow(1ull << 33); break;
          default: off = 1 + rng.NextBelow(256); break;
        }
        schedule(t + SimDuration::Nanos(off), nullptr);
      }
      // Occasionally request the simulated past (clamped to now, FIFO).
      if (rng.NextBelow(8) == 0 && t.ns() > 0) {
        schedule(SimTime::FromNanos(rng.NextBelow(t.ns())), nullptr);
      }
    });
  };

  // Seed schedule: bursts of equal timestamps plus scattered times.
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t base = rng.NextBelow(1ull << 34);
    const std::uint64_t burst = 1 + rng.NextBelow(4);
    for (std::uint64_t b = 0; b < burst; ++b) {
      schedule_root(SimTime::FromNanos(base));
    }
  }
  // Alternate RunUntil stops with more scheduling, then drain.
  for (int round = 0; round < 4; ++round) {
    q.RunUntil(SimTime::FromNanos((round + 1) * (1ull << 32)));
    schedule_root(SimTime::FromNanos(q.now().ns() + rng.NextBelow(1ull << 33)));
  }
  q.RunAll();
  return run;
}

TEST(EventQueueTest, RandomizedSchedulesRunInTimeThenScheduleOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomScheduleRun run = RunRandomSchedule(seed);
    std::sort(run.scheduled.begin(), run.scheduled.end());
    ASSERT_EQ(run.executed.size(), run.scheduled.size()) << "seed " << seed;
    for (std::size_t i = 0; i < run.executed.size(); ++i) {
      ASSERT_EQ(run.executed[i].when, run.scheduled[i].when)
          << "seed " << seed << " event " << i;
      ASSERT_EQ(run.executed[i].id, run.scheduled[i].id)
          << "seed " << seed << " event " << i;
    }
  }
}

}  // namespace
}  // namespace conzone
