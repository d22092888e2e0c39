// Host-time tracing at the public boundaries the benchmark calls.
//
// Spans are recorded only here, in the benchmark's own code: a
// StorageDevice decorator (TracedDevice) sits above the top device, under
// each volume member and under ZoneCache, and SpanTimer wraps the calls
// the benchmark makes into FioRunner::Run, CacheWorkloadRunner::Run,
// ConZoneDevice::Recover and ZoneCache::Mount. Nothing inside the
// emulator is instrumented.
//
// A span is either a frame (it can have child spans) or a leaf. A
// frame's self time is its duration minus the wall time its children
// cover. Frames open and close on the main thread only; leaves may close
// on an executor lane (volume members), so a frame whose children can run
// concurrently collects their intervals and takes their union when it
// closes. Spans are folded into per-boundary accumulators as they close
// instead of being kept as a list, so a traced run's memory does not grow
// with its length.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "core/storage_device.hpp"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host-time totals of one boundary, summed over every span recorded
/// there.
struct BoundaryStats {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;  ///< Summed span durations.
  std::int64_t self_ns = 0;   ///< total_ns minus the time children covered.
  std::int64_t child_calls = 0;

  void Add(std::int64_t dur, std::int64_t self) {
    ++calls;
    total_ns += dur;
    self_ns += self;
  }
  void Merge(const BoundaryStats& o) {
    calls += o.calls;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    child_calls += o.child_calls;
  }
};

/// Per-call host latency of a device boundary, split by operation.
struct DeviceBoundaryStats {
  BoundaryStats all;
  conzone::LatencyHistogram read_ns;
  conzone::LatencyHistogram write_ns;
  std::uint64_t resets = 0;
  std::int64_t reset_ns = 0;

  void Merge(const DeviceBoundaryStats& o) {
    all.Merge(o.all);
    read_ns.Merge(o.read_ns);
    write_ns.Merge(o.write_ns);
    resets += o.resets;
    reset_ns += o.reset_ns;
  }
};

class Tracer {
 public:
  /// An open span that can have children. Lives on the opener's stack.
  struct Frame {
    std::int64_t start = 0;
    Frame* parent = nullptr;
    /// Children may close on other threads and overlap each other.
    bool concurrent = false;
    std::int64_t covered = 0;  ///< Sequential children: summed durations.
    std::int64_t kids = 0;
    std::mutex mu;  ///< Guards `intervals` (concurrent frames only).
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  };

  /// Open `f` as the innermost frame (main thread).
  void Open(Frame& f, bool concurrent_children);
  /// Close the innermost frame `f`; credits its interval to the parent
  /// and returns {duration, self}.
  std::pair<std::int64_t, std::int64_t> Close(Frame& f);
  /// Record a leaf span [start, end) under the innermost frame. Safe from
  /// an executor lane while the main thread is inside that frame.
  void Leaf(std::int64_t start, std::int64_t end);

 private:
  static void Credit(Frame& parent, std::int64_t start, std::int64_t end);

  Frame* active_ = nullptr;
};

/// Times one call into a layer as a frame span.
class SpanTimer {
 public:
  SpanTimer(Tracer* tracer, BoundaryStats* into, bool concurrent_children = false)
      : tracer_(tracer), into_(into) {
    if (tracer_ != nullptr) tracer_->Open(frame_, concurrent_children);
  }
  ~SpanTimer() { Stop(); }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  /// Close the span now; returns its duration (0 when untraced).
  std::int64_t Stop() {
    if (tracer_ == nullptr) return 0;
    const auto [dur, self] = tracer_->Close(frame_);
    into_->Add(dur, self);
    into_->child_calls += frame_.kids;
    tracer_ = nullptr;
    return dur;
  }

 private:
  Tracer* tracer_;
  BoundaryStats* into_;
  Tracer::Frame frame_;
};

/// StorageDevice decorator recording one span per call, and the
/// simulated latency (done - submit) of every read and write, while
/// measuring is on. With a null tracer it records only the simulated
/// latency, which costs no host clock reads. A member decorator is a leaf
/// (its spans may close on an executor lane); a top decorator over a
/// volume is a frame whose member children may run concurrently.
class TracedDevice final : public conzone::StorageDevice {
 public:
  enum class Role { kLeaf, kVolume };

  TracedDevice(conzone::StorageDevice* inner, Tracer* tracer, Role role)
      : inner_(inner), tracer_(tracer), role_(role) {}
  TracedDevice(std::unique_ptr<conzone::StorageDevice> owned, Tracer* tracer, Role role)
      : TracedDevice(owned.get(), tracer, role) {
    owned_ = std::move(owned);
  }

  conzone::DeviceInfo info() const override { return inner_->info(); }
  conzone::Result<conzone::IoResult> Write(const conzone::IoRequest& req) override;
  conzone::Result<conzone::IoResult> Read(const conzone::IoRequest& req) override;
  conzone::Result<conzone::SimTime> ResetZone(conzone::ZoneId zone,
                                              conzone::SimTime now) override;
  conzone::Result<conzone::SimTime> Flush(conzone::SimTime now) override;
  conzone::StatsSnapshot Stats() const override { return inner_->Stats(); }
  conzone::ReliabilityStats Reliability() const override { return inner_->Reliability(); }
  conzone::RecoveryStats Recovery() const override { return inner_->Recovery(); }

  /// Record only inside the measured phase (main thread, between calls);
  /// `sim` also gates the simulated-latency histogram.
  void set_measuring(bool on, bool sim) {
    measuring_ = on;
    sim_ = sim;
  }

  const DeviceBoundaryStats& host() const { return host_; }
  const conzone::LatencyHistogram& sim_latency() const { return sim_latency_; }

 private:
  /// Span bracket shared by every forwarded call; returns the duration.
  template <class F>
  auto Timed(F&& call, std::int64_t* dur);
  void Record(conzone::LatencyHistogram* host_ns, std::int64_t dur,
              const conzone::Result<conzone::IoResult>& r,
              const conzone::IoRequest& req);

  conzone::StorageDevice* inner_;
  std::unique_ptr<conzone::StorageDevice> owned_;
  Tracer* tracer_;
  Role role_;
  bool measuring_ = false;
  bool sim_ = false;
  DeviceBoundaryStats host_;
  conzone::LatencyHistogram sim_latency_;
};

}  // namespace perfbench
