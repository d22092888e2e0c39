#include "trace.hpp"

#include <algorithm>

namespace perfbench {

using conzone::IoRequest;
using conzone::IoResult;
using conzone::Result;
using conzone::SimTime;

void Tracer::Open(Frame& f, bool concurrent_children) {
  f.parent = active_;
  f.concurrent = concurrent_children;
  active_ = &f;
  f.start = NowNs();
}

std::pair<std::int64_t, std::int64_t> Tracer::Close(Frame& f) {
  const std::int64_t end = NowNs();
  active_ = f.parent;
  std::int64_t covered = f.covered;
  if (f.concurrent) {
    // Union of the children's intervals: overlapping lanes count once.
    std::lock_guard<std::mutex> lock(f.mu);
    std::sort(f.intervals.begin(), f.intervals.end());
    std::int64_t reach = f.start;
    for (const auto& [s, e] : f.intervals) {
      if (e <= reach) continue;
      covered += e - std::max(s, reach);
      reach = e;
    }
  }
  if (f.parent != nullptr) Credit(*f.parent, f.start, end);
  const std::int64_t dur = end - f.start;
  return {dur, dur - covered};
}

void Tracer::Leaf(std::int64_t start, std::int64_t end) {
  if (active_ != nullptr) Credit(*active_, start, end);
}

void Tracer::Credit(Frame& parent, std::int64_t start, std::int64_t end) {
  if (parent.concurrent) {
    std::lock_guard<std::mutex> lock(parent.mu);
    parent.intervals.emplace_back(start, end);
    ++parent.kids;
  } else {
    parent.covered += end - start;
    ++parent.kids;
  }
}

template <class F>
auto TracedDevice::Timed(F&& call, std::int64_t* dur) {
  if (tracer_ == nullptr || !measuring_) {
    *dur = 0;
    return call();
  }
  if (role_ == Role::kVolume) {
    SpanTimer span(tracer_, &host_.all, /*concurrent_children=*/true);
    auto r = call();
    *dur = span.Stop();
    return r;
  }
  const std::int64_t start = NowNs();
  auto r = call();
  const std::int64_t end = NowNs();
  tracer_->Leaf(start, end);
  host_.all.Add(end - start, end - start);
  *dur = end - start;
  return r;
}

void TracedDevice::Record(conzone::LatencyHistogram* host_ns, std::int64_t dur,
                          const Result<IoResult>& r, const IoRequest& req) {
  if (tracer_ != nullptr) {
    host_ns->Record(conzone::SimDuration::Nanos(static_cast<std::uint64_t>(dur)));
  }
  if (sim_ && r.ok()) sim_latency_.Record(r.value().done - req.now);
}

Result<IoResult> TracedDevice::Write(const IoRequest& req) {
  std::int64_t dur = 0;
  auto r = Timed([&] { return inner_->Write(req); }, &dur);
  if (measuring_) Record(&host_.write_ns, dur, r, req);
  return r;
}

Result<IoResult> TracedDevice::Read(const IoRequest& req) {
  std::int64_t dur = 0;
  auto r = Timed([&] { return inner_->Read(req); }, &dur);
  if (measuring_) Record(&host_.read_ns, dur, r, req);
  return r;
}

Result<SimTime> TracedDevice::ResetZone(conzone::ZoneId zone, SimTime now) {
  std::int64_t dur = 0;
  auto r = Timed([&] { return inner_->ResetZone(zone, now); }, &dur);
  if (measuring_) {
    ++host_.resets;
    host_.reset_ns += dur;
  }
  return r;
}

Result<SimTime> TracedDevice::Flush(SimTime now) {
  std::int64_t dur = 0;
  return Timed([&] { return inner_->Flush(now); }, &dur);
}

}  // namespace perfbench
