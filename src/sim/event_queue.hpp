// Discrete-event queue.
//
// Drives the multi-job workload runner: each simulated job is a chain of
// events ("issue next request at time t"). Events at equal timestamps run
// in FIFO order of scheduling, which keeps runs deterministic.
//
// A flat-vector binary min-heap over 24-byte {when, seq, slot} entries,
// O(log n) schedule/pop. The in-tree callers keep at most jobs x iodepth
// events pending (a few dozen), where a heap pop costs a handful of
// compares; a timing wheel only pays from a few hundred pending events
// up (DESIGN.md §5d).
//
// Hot-path layout: callbacks live in a recycling slot pool of
// small-buffer-optimized `InlineFunction`s, and the heap is a recycled
// flat vector. On the steady-state path (schedule/run/schedule...)
// nothing allocates: the containers only grow to the high-water mark of
// simultaneously pending events.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "sim/inline_function.hpp"

namespace conzone {

class EventQueue {
 public:
  using Callback = InlineFunction<void(SimTime), 48>;

  /// Schedule `cb` to run at simulated time `t`. A `t` earlier than
  /// now() (an event cannot run in the simulated past) is clamped to
  /// now() and counted in clamped_schedules().
  void Schedule(SimTime t, Callback cb);

  /// Pop and run the earliest event. Returns false if the queue is empty.
  bool RunNext();

  /// Run events until the queue drains or `deadline` is passed. Events
  /// scheduled exactly at `deadline` run.
  void RunUntil(SimTime deadline);

  /// Drain the queue completely.
  void RunAll();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Timestamp of the most recently executed event.
  SimTime now() const { return now_; }

  /// Total events executed so far (wall-clock benchmarking: events/s).
  std::uint64_t executed() const { return executed_; }

  /// Schedules whose timestamp was clamped forward to now().
  std::uint64_t clamped_schedules() const { return clamped_schedules_; }

 private:
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;   // tie-break: FIFO among equal timestamps
    std::uint32_t slot;  // index into the callback pool
  };

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);

  std::vector<Callback> pool_;  // slot storage, recycled via free_slots_
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;  // binary min-heap over (when, seq)
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t clamped_schedules_ = 0;
  SimTime now_;
};

}  // namespace conzone
