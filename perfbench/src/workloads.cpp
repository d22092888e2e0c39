#include "workloads.hpp"

#include <optional>
#include <utility>

#include "conzone/conzone.hpp"

namespace perfbench {
namespace {

using namespace conzone;

constexpr std::uint64_t kGiB = 1024 * kMiB;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// --- Fingerprints -----------------------------------------------------------

class Fingerprint {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ull;
    }
  }
  void Add(const LatencyHistogram& h) {
    Add(h.count());
    Add(h.min().ns());
    Add(h.max().ns());
    Add(h.mean().ns());
    for (double q : {0.5, 0.9, 0.99, 0.999}) Add(h.Percentile(q).ns());
  }
  void Add(const StatsSnapshot& s) {
    for (std::uint64_t v :
         {s.host_bytes_written, s.host_bytes_read, s.flash_bytes_written, s.writes,
          s.reads, s.zone_resets, s.host_flushes, s.buffer_flushes, s.premature_flushes,
          s.overwrites, s.gc_runs, s.gc_slots_migrated}) {
      Add(v);
    }
    for (std::size_t c = 0; c < kNumIoClasses; ++c) {
      Add(s.class_reads[c]);
      Add(s.class_writes[c]);
    }
  }
  void Add(const RunResult& r) {
    for (const JobResult& j : r.jobs) {
      Add(j.throughput.ops);
      Add(j.throughput.bytes);
      Add(j.throughput.elapsed.ns());
      Add(j.latency);
      Add(j.first_issue.ns());
      Add(j.last_completion.ns());
      Add(j.io_errors);
    }
    Add(r.latency);
    Add(r.end_time.ns());
    Add(r.events);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// --- Work counts read from the layers' accessors ---------------------------

struct DevCounters {
  std::uint64_t translations = 0, translator_hits = 0, map_fetches = 0;
  std::uint64_t hits_zone = 0, hits_chunk = 0, hits_page = 0;
  std::uint64_t l2p_lookups = 0, l2p_hits = 0, l2p_inserts = 0, l2p_evictions = 0;
  std::uint64_t buffer_conflicts = 0, premature_flushes = 0, folds = 0;
  std::uint64_t gc_runs = 0, gc_slots_migrated = 0, gc_busy_ns = 0;
  std::uint64_t page_reads = 0, slc_slots = 0, normal_slots = 0;
  std::uint64_t chip_busy_ns = 0, channel_busy_ns = 0;
  std::uint64_t host_bytes_written = 0, reads = 0, writes = 0;

  static constexpr std::uint64_t DevCounters::*kFields[] = {
      &DevCounters::translations,     &DevCounters::translator_hits,
      &DevCounters::map_fetches,      &DevCounters::hits_zone,
      &DevCounters::hits_chunk,       &DevCounters::hits_page,
      &DevCounters::l2p_lookups,      &DevCounters::l2p_hits,
      &DevCounters::l2p_inserts,      &DevCounters::l2p_evictions,
      &DevCounters::buffer_conflicts, &DevCounters::premature_flushes,
      &DevCounters::folds,            &DevCounters::gc_runs,
      &DevCounters::gc_slots_migrated, &DevCounters::gc_busy_ns,
      &DevCounters::page_reads,       &DevCounters::slc_slots,
      &DevCounters::normal_slots,     &DevCounters::chip_busy_ns,
      &DevCounters::channel_busy_ns,  &DevCounters::host_bytes_written,
      &DevCounters::reads,            &DevCounters::writes};

  /// Field-wise `this - base`, saturating at zero (a remount rebuilds
  /// some volatile layers and their counters with them).
  DevCounters Since(const DevCounters& base) const {
    DevCounters r;
    for (auto f : kFields) r.*f = this->*f > base.*f ? this->*f - base.*f : 0;
    return r;
  }
  void operator+=(const DevCounters& o) {
    for (auto f : kFields) this->*f += o.*f;
  }
};

void CollectFtl(const Translator& tr, const L2PCache& l2p, const MediaCounters& media,
                DevCounters* c) {
  c->translations = tr.stats().translations;
  c->translator_hits = tr.stats().cache_hits;
  c->map_fetches = tr.stats().map_fetches;
  const auto& by_gran = tr.stats().hits_by_gran;
  c->hits_page = by_gran[static_cast<int>(MapGranularity::kPage)];
  c->hits_chunk = by_gran[static_cast<int>(MapGranularity::kChunk)];
  c->hits_zone = by_gran[static_cast<int>(MapGranularity::kZone)];
  c->l2p_lookups = l2p.stats().lookups;
  c->l2p_hits = l2p.stats().hits;
  c->l2p_inserts = l2p.stats().insertions;
  c->l2p_evictions = l2p.stats().evictions;
  c->page_reads = media.page_reads;
  c->slc_slots = media.slots_programmed_slc;
  c->normal_slots = media.slots_programmed_normal;
}

DevCounters Collect(const ConZoneDevice& d) {
  DevCounters c;
  CollectFtl(d.translator(), d.l2p_cache(), d.media_counters(), &c);
  c.buffer_conflicts = d.buffers().stats().conflicts;
  c.premature_flushes = d.stats().premature_flushes;
  c.folds = d.stats().folds;
  c.gc_runs = d.gc().stats().runs;
  c.gc_slots_migrated = d.gc().stats().slots_migrated;
  c.gc_busy_ns = d.gc().stats().busy_time.ns();
  c.chip_busy_ns = d.engine().TotalChipBusy().ns();
  c.channel_busy_ns = d.engine().TotalChannelBusy().ns();
  c.host_bytes_written = d.stats().host_bytes_written;
  c.reads = d.stats().reads;
  c.writes = d.stats().writes;
  return c;
}

DevCounters Collect(const LegacyDevice& d) {
  DevCounters c;
  CollectFtl(d.translator(), d.l2p_cache(), d.media_counters(), &c);
  c.premature_flushes = d.stats().premature_flushes;
  c.gc_runs = d.stats().gc_runs;
  c.gc_slots_migrated = d.stats().gc_slots_migrated;
  c.host_bytes_written = d.stats().host_bytes_written;
  c.reads = d.stats().reads;
  c.writes = d.stats().writes;
  return c;
}

/// Device-layer per-layer metrics from one measured phase's counters.
/// `ios` is the IO count at the top device boundary; the busy fractions
/// need a timing engine, which only ConZone exposes.
void AddDeviceCounts(const DevCounters& d, double ios, SimDuration elapsed,
                     const FlashGeometry& geo, bool has_engine, UnitResult* u) {
  auto& c = u->counts;
  const double host_slots = static_cast<double>(d.host_bytes_written) /
                            static_cast<double>(geo.slot_size);
  const double misses = static_cast<double>(d.translations - d.translator_hits);
  c["ftl.translator.miss_rate"] = Ratio(misses, static_cast<double>(d.translations));
  c["ftl.translator.fetches_per_miss"] = Ratio(static_cast<double>(d.map_fetches), misses);
  c["ftl.l2p_cache.lookups_per_io"] = Ratio(static_cast<double>(d.l2p_lookups), ios);
  c["ftl.l2p_cache.inserts_per_io"] = Ratio(static_cast<double>(d.l2p_inserts), ios);
  c["ftl.l2p_cache.evictions_per_io"] = Ratio(static_cast<double>(d.l2p_evictions), ios);
  c["buffer.conflicts_per_kio"] = Ratio(1000.0 * static_cast<double>(d.buffer_conflicts), ios);
  c["core.premature_flushes_per_kio"] =
      Ratio(1000.0 * static_cast<double>(d.premature_flushes), ios);
  c["core.folds_per_kio"] = Ratio(1000.0 * static_cast<double>(d.folds), ios);
  c["gc.runs_per_gib"] = Ratio(static_cast<double>(d.gc_runs),
                               static_cast<double>(d.host_bytes_written) /
                                   static_cast<double>(kGiB));
  c["gc.slots_migrated_per_host_slot"] =
      Ratio(static_cast<double>(d.gc_slots_migrated), host_slots);
  const double elapsed_ns = static_cast<double>(elapsed.ns());
  c["gc.busy_frac"] = Ratio(static_cast<double>(d.gc_busy_ns), elapsed_ns);
  c["flash.page_reads_per_io"] = Ratio(static_cast<double>(d.page_reads), ios);
  c["flash.slc_slots_per_host_slot"] = Ratio(static_cast<double>(d.slc_slots), host_slots);
  c["flash.normal_slots_per_host_slot"] =
      Ratio(static_cast<double>(d.normal_slots), host_slots);
  if (has_engine) {
    const double chips = geo.channels * geo.chips_per_channel;
    c["flash.chip_busy_frac"] =
        Ratio(static_cast<double>(d.chip_busy_ns), chips * elapsed_ns);
    c["flash.channel_busy_frac"] =
        Ratio(static_cast<double>(d.channel_busy_ns), geo.channels * elapsed_ns);
  }

  DriveInputs& in = u->drive;
  in.l2p_lookups = d.l2p_lookups;
  in.l2p_hits = d.l2p_hits;
  in.l2p_inserts = d.l2p_inserts;
  in.translations = d.translations;
  in.hits_by_gran[static_cast<int>(MapGranularity::kPage)] = d.hits_page;
  in.hits_by_gran[static_cast<int>(MapGranularity::kChunk)] = d.hits_chunk;
  in.hits_by_gran[static_cast<int>(MapGranularity::kZone)] = d.hits_zone;
  in.page_reads = d.page_reads;
  in.programs = (d.slc_slots + d.normal_slots) / geo.SlotsPerPage();
}

// --- Measured phase ---------------------------------------------------------

/// Brackets the measured work. Host time accumulates across segments;
/// with a tracer each segment is a root span whose self time is the glue
/// no boundary accounts for. Decorators record only inside segments, so
/// set-up and correctness checks stay out of every number.
class Phase {
 public:
  Phase(Tracer* tracer, TraceTotals* totals, std::vector<TracedDevice*> decorators)
      : tracer_(tracer), totals_(totals), decorators_(std::move(decorators)) {}

  /// `sim_latency`: the decorators also record simulated IO latency.
  void Begin(bool sim_latency = true) {
    for (TracedDevice* d : decorators_) d->set_measuring(true, sim_latency);
    start_ = NowNs();
    if (tracer_ != nullptr) span_.emplace(tracer_, &totals_->phase);
  }
  void End() {
    span_.reset();
    segments_s_.push_back(Seconds(NowNs() - start_));
    for (TracedDevice* d : decorators_) d->set_measuring(false, false);
  }
  /// Host time of each segment, in order.
  const std::vector<double>& segments_s() const { return segments_s_; }

 private:
  Tracer* tracer_;
  TraceTotals* totals_;
  std::vector<TracedDevice*> decorators_;
  std::optional<SpanTimer> span_;
  std::int64_t start_ = 0;
  std::vector<double> segments_s_;
};

BoundaryStats* Slot(TraceTotals* totals, BoundaryStats TraceTotals::*field) {
  return totals == nullptr ? nullptr : &(totals->*field);
}

// --- FIO workloads ----------------------------------------------------------

/// One FIO device stack. Member order matters for destruction: the
/// volume (which owns the members) goes before the executor it uses.
struct FioStack {
  std::unique_ptr<ConZoneDevice> conzone;
  std::unique_ptr<WorkStealingExecutor> exec;
  std::vector<LegacyDevice*> legacy;         ///< Owned by their decorators/volume.
  std::vector<TracedDevice*> member_traces;  ///< Owned by the volume.
  std::unique_ptr<RedundantVolume> volume;
  StorageDevice* top = nullptr;
  SimTime ready;  ///< Simulated time the preconditioned stack is idle.
  std::uint64_t precondition_bytes = 0;
};

UnitResult RunFio(FioStack& s, const std::vector<JobSpec>& jobs, double setup_s,
                  Tracer* tracer, TraceTotals* totals) {
  UnitResult u;
  u.setup_s = setup_s;
  std::uint64_t planned = 0;
  for (const JobSpec& j : jobs) planned += j.io_count;

  std::unique_ptr<TracedDevice> top_trace;
  StorageDevice* target = s.top;
  std::vector<TracedDevice*> decorators = s.member_traces;
  if (tracer != nullptr) {
    top_trace = std::make_unique<TracedDevice>(
        s.top, tracer,
        s.volume ? TracedDevice::Role::kVolume : TracedDevice::Role::kLeaf);
    target = top_trace.get();
    decorators.push_back(top_trace.get());
  }

  auto collect = [&s] {
    DevCounters c;
    if (s.conzone) c = Collect(*s.conzone);
    for (const LegacyDevice* m : s.legacy) c += Collect(*m);
    return c;
  };
  const DevCounters before = collect();

  Phase phase(tracer, totals, decorators);
  Result<RunResult> res = Status::Internal("not run");
  phase.Begin();
  {
    SpanTimer span(tracer, Slot(totals, &TraceTotals::fio_run));
    FioRunner fio(*target);
    res = fio.Run(jobs, s.ready);
  }
  phase.End();
  u.segment_s = phase.segments_s();

  if (!res.ok()) {
    u.error = "fio run failed: " + res.status().ToString();
    u.attempted = planned;
    u.failed = planned;
    return u;
  }
  const RunResult& r = res.value();
  u.attempted = r.total.ops + r.io_errors;
  u.failed = r.io_errors;
  for (const JobResult& j : r.jobs) {
    if (j.io_errors != 0 && u.error.empty()) {
      u.error = "io error in " + j.name + ": " + j.first_error.ToString();
    }
  }
  if (u.error.empty() && r.total.ops != planned) {
    u.error = "short run: " + std::to_string(r.total.ops) + " of " + std::to_string(planned);
  }

  const StatsSnapshot stats = s.top->Stats();
  Fingerprint fp;
  fp.Add(r);
  fp.Add(stats);
  u.fingerprint = fp.value();

  std::uint64_t written = s.precondition_bytes;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].direction == IoDirection::kWrite) written += r.jobs[i].throughput.bytes;
  }
  u.sim_kiops = r.Kiops();
  u.sim_p99_us = r.latency.Percentile(0.99).us();
  u.write_amp = Ratio(static_cast<double>(stats.flash_bytes_written),
                      static_cast<double>(written));

  const double ios = static_cast<double>(r.total.ops);
  const SimDuration elapsed = r.end_time - s.ready;
  const FlashGeometry geo = s.conzone ? s.conzone->config().geometry
                                      : s.legacy.front()->config().geometry;
  AddDeviceCounts(collect().Since(before), ios, elapsed, geo, s.conzone != nullptr, &u);
  u.counts["sim.events_per_io"] = Ratio(static_cast<double>(r.events), ios);
  u.drive.events = r.events;
  u.drive.in_flight = 0;
  for (const JobSpec& j : jobs) u.drive.in_flight += j.iodepth;
  u.drive.mean_latency_ns = r.latency.mean().ns();

  if (totals != nullptr) {
    if (top_trace) totals->top.Merge(top_trace->host());
    for (const TracedDevice* m : s.member_traces) totals->members.Merge(m->host());
    totals->top_is_volume = s.volume != nullptr;
    totals->top_is_conzone = s.conzone != nullptr;
  }
  return u;
}

UnitResult SetupFailed(const Status& st) {
  UnitResult u;
  u.error = "set-up failed: " + st.ToString();
  u.attempted = 1;
  u.failed = 1;
  return u;
}

/// ConZone paper configuration, preconditioned, 4 KiB random reads.
class ZnsRandread final : public Workload {
 public:
  explicit ZnsRandread(std::uint64_t seed) : seed_(seed) {}

  UnitResult RunUnit(Tracer* tracer, TraceTotals* totals) override {
    constexpr std::uint64_t kRegion = 512 * kMiB;  // 32 full zones
    const std::int64_t t0 = NowNs();
    FioStack s;
    auto dev = ConZoneDevice::Create(ConZoneConfig::PaperConfig());
    if (!dev.ok()) return SetupFailed(dev.status());
    s.conzone = std::move(dev).value();
    s.top = s.conzone.get();
    s.precondition_bytes = kRegion;
    if (Status st = FioRunner::Precondition(*s.top, 0, kRegion, 512 * kKiB, &s.ready);
        !st.ok()) {
      return SetupFailed(st);
    }
    const double setup_s = Seconds(NowNs() - t0);

    std::vector<JobSpec> jobs;
    for (std::uint64_t j = 0; j < 4; ++j) {
      JobSpec js;
      js.name = "randread" + std::to_string(j);
      js.pattern = IoPattern::kRandom;
      js.direction = IoDirection::kRead;
      js.block_size = 4 * kKiB;
      js.region_offset = 0;
      js.region_size = kRegion;
      js.io_count = kIosPerJob;
      js.iodepth = 2;
      js.seed = MixSeeds(seed_, 0x52524431 /*"RRD1"*/, j);
      jobs.push_back(std::move(js));
    }
    return RunFio(s, jobs, setup_s, tracer, totals);
  }

 private:
  static constexpr std::uint64_t kIosPerJob = 100000;
  std::uint64_t seed_;
};

/// Fig. 6b writers colliding on the two shared write buffers, beside
/// random readers of page-mapped partially filled zones (Fig. 8).
class ZnsZoneswitchMix final : public Workload {
 public:
  explicit ZnsZoneswitchMix(std::uint64_t seed) : seed_(seed) {}

  UnitResult RunUnit(Tracer* tracer, TraceTotals* totals) override {
    constexpr std::uint64_t kReadZones = 8;
    constexpr std::uint64_t kReadSpan = 2112 * kKiB;
    constexpr std::uint64_t kWriteBlock = 48 * kKiB;
    const std::int64_t t0 = NowNs();
    FioStack s;
    auto dev = ConZoneDevice::Create(ConZoneConfig::PaperConfig());
    if (!dev.ok()) return SetupFailed(dev.status());
    s.conzone = std::move(dev).value();
    s.top = s.conzone.get();
    const std::uint64_t zone = s.conzone->info().zone_size_bytes;
    for (std::uint64_t z = 0; z < kReadZones; ++z) {
      SimTime end;
      if (Status st = FioRunner::Precondition(*s.top, z * zone, kReadSpan, kWriteBlock, &end);
          !st.ok()) {
        return SetupFailed(st);
      }
      s.ready = Later(s.ready, end);
      s.precondition_bytes += kReadSpan;
    }
    const double setup_s = Seconds(NowNs() - t0);

    std::vector<JobSpec> jobs;
    // Writers 0 and 2 own even zones (buffer 0), 1 and 3 odd ones
    // (buffer 1): every buffer is shared by two streams.
    for (std::uint64_t j = 0; j < 4; ++j) {
      JobSpec js;
      js.name = "writer" + std::to_string(j);
      js.pattern = IoPattern::kSequential;
      js.direction = IoDirection::kWrite;
      js.block_size = kWriteBlock;
      js.zone_list = {kReadZones + j, kReadZones + 4 + j};
      js.reset_zones_on_wrap = true;
      js.io_count = kWritesPerJob;
      js.seed = MixSeeds(seed_, 0x5A535731 /*"ZSW1"*/, j);
      jobs.push_back(std::move(js));
    }
    for (std::uint64_t j = 0; j < 2; ++j) {
      JobSpec js;
      js.name = "reader" + std::to_string(j);
      js.pattern = IoPattern::kRandom;
      js.direction = IoDirection::kRead;
      js.block_size = 4 * kKiB;
      for (std::uint64_t z = 0; z < kReadZones; ++z) js.zone_list.push_back(z);
      js.zone_span_bytes = kReadSpan;
      js.io_count = kReadsPerJob;
      js.iodepth = 2;
      js.seed = MixSeeds(seed_, 0x5A535231 /*"ZSR1"*/, j);
      jobs.push_back(std::move(js));
    }
    return RunFio(s, jobs, setup_s, tracer, totals);
  }

 private:
  static constexpr std::uint64_t kWritesPerJob = 12000;
  static constexpr std::uint64_t kReadsPerJob = 60000;
  std::uint64_t seed_;
};

/// Two-way RedundantVolume mirror of LegacyDevices on a 2-lane executor.
class LegacyMirrorRandrw final : public Workload {
 public:
  explicit LegacyMirrorRandrw(std::uint64_t seed) : seed_(seed) {}

  UnitResult RunUnit(Tracer* tracer, TraceTotals* totals) override {
    constexpr std::uint64_t kRegion = 256 * kMiB;
    const std::int64_t t0 = NowNs();
    FioStack s;
    std::vector<std::unique_ptr<StorageDevice>> members;
    for (int i = 0; i < 2; ++i) {
      auto dev = LegacyDevice::Create(LegacyConfig{});
      if (!dev.ok()) return SetupFailed(dev.status());
      s.legacy.push_back(dev.value().get());
      if (tracer != nullptr) {
        auto traced = std::make_unique<TracedDevice>(std::move(dev).value(), tracer,
                                                     TracedDevice::Role::kLeaf);
        s.member_traces.push_back(traced.get());
        members.push_back(std::move(traced));
      } else {
        members.push_back(std::move(dev).value());
      }
    }
    s.exec = std::make_unique<WorkStealingExecutor>(2);
    auto vol = RedundantVolume::Create(std::move(members), RedundantVolumeOptions{});
    if (!vol.ok()) return SetupFailed(vol.status());
    s.volume = std::move(vol).value();
    s.volume->set_executor(s.exec.get());
    s.top = s.volume.get();
    s.precondition_bytes = kRegion;
    if (Status st = FioRunner::Precondition(*s.top, 0, kRegion, 512 * kKiB, &s.ready);
        !st.ok()) {
      return SetupFailed(st);
    }
    const double setup_s = Seconds(NowNs() - t0);

    std::vector<JobSpec> jobs;
    const struct {
      const char* name;
      IoDirection dir;
      std::uint32_t iodepth;
      std::uint64_t ios;
    } kJobs[] = {{"randread", IoDirection::kRead, 8, kReads},
                 {"randwrite", IoDirection::kWrite, 4, kWrites}};
    std::uint64_t j = 0;
    for (const auto& k : kJobs) {
      JobSpec js;
      js.name = k.name;
      js.pattern = IoPattern::kRandom;
      js.direction = k.dir;
      js.block_size = 4 * kKiB;
      js.region_offset = 0;
      js.region_size = kRegion;
      js.io_count = k.ios;
      js.iodepth = k.iodepth;
      js.seed = MixSeeds(seed_, 0x4C4D5257 /*"LMRW"*/, j++);
      jobs.push_back(std::move(js));
    }
    return RunFio(s, jobs, setup_s, tracer, totals);
  }

 private:
  static constexpr std::uint64_t kReads = 6000;
  static constexpr std::uint64_t kWrites = 3000;
  std::uint64_t seed_;
};

// --- Cache workload ---------------------------------------------------------

/// ZoneCache on ConZone with a power cut, Recover and Mount after every
/// fixed block of ops.
class CacheZipfCrash final : public Workload {
 public:
  explicit CacheZipfCrash(std::uint64_t seed) : seed_(seed) {}

  UnitResult RunUnit(Tracer* tracer, TraceTotals* totals) override {
    UnitResult u;
    const std::int64_t t0 = NowNs();
    ConZoneConfig cfg = ConZoneConfig::PaperConfig();
    cfg.geometry.blocks_per_chip = 24;
    cfg.geometry.slc_blocks_per_chip = 4;
    cfg.num_conventional_zones = 2;  // the index journal
    cfg.fault.power_loss = true;
    cfg.l2p_log.enabled = true;
    cfg.checkpoint.enabled = true;
    auto devr = ConZoneDevice::Create(cfg);
    if (!devr.ok()) return SetupFailed(devr.status());
    std::unique_ptr<ConZoneDevice> dev = std::move(devr).value();
    // Always present: it records the simulated latency of the device IOs
    // the cache issues (sim_p99_us). Host spans only when traced.
    TracedDevice under_cache(dev.get(), tracer, TracedDevice::Role::kLeaf);
    const ZoneCacheOptions opts;
    auto mounted = ZoneCache::Mount(&under_cache, opts, SimTime::Zero());
    if (!mounted.ok()) return SetupFailed(mounted.status());
    std::unique_ptr<ZoneCache> cache = std::move(mounted).value();
    u.setup_s = Seconds(NowNs() - t0);

    CacheJobSpec spec;
    spec.keys = 4096;
    spec.zipf_theta = 0.99;
    spec.get_ratio = 0.9;
    spec.seed = seed_;  // values are a function of it: fixed across blocks
    std::vector<std::uint32_t> generations;
    Phase phase(tracer, totals, {&under_cache});
    Fingerprint fp;
    DevCounters work;
    SimTime t;
    SimDuration block_sim, remount_sim;
    std::uint64_t gets = 0, hits = 0, puts = 0, migrated = 0, journal = 0;
    std::uint64_t admitted_slots = 0;

    for (std::uint64_t b = 0; b < kBlocks && u.error.empty(); ++b) {
      // A distinct op count per block gives each block its own key stream.
      spec.ops = kOpsPerBlock + b;
      // Before the first cut a hit must serve the latest put; after it,
      // any acknowledged generation (the crash contract).
      spec.require_latest = b == 0;
      u.attempted += spec.ops;
      const DevCounters before = Collect(*dev);

      phase.Begin();
      Result<CacheRunResult> run = Status::Internal("not run");
      {
        SpanTimer span(tracer, Slot(totals, &TraceTotals::cache_run));
        run = CacheWorkloadRunner::Run(*cache, spec, t,
                                       generations.empty() ? nullptr : &generations);
      }
      phase.End();
      if (!run.ok()) {
        u.error = "cache block " + std::to_string(b) + ": " + run.status().ToString();
        u.failed += spec.ops;
        break;
      }
      const CacheRunResult& r = run.value();
      work += Collect(*dev).Since(before);
      block_sim += r.end - t;
      gets += r.gets;
      hits += r.hits;
      puts += cache->stats().puts;
      migrated += cache->stats().migrated_slots;
      journal += cache->stats().journal_records;
      admitted_slots += cache->stats().admitted_slots;
      generations = r.generations;
      for (std::uint64_t v : {r.fingerprint, r.gets, r.hits, r.misses, r.puts, r.fills,
                              r.end.ns()}) {
        fp.Add(v);
      }

      std::unique_ptr<ZoneCache> old = std::move(cache);
      Result<SimTime> rec = Status::Internal("not run");
      Result<std::unique_ptr<ZoneCache>> remounted = Status::Internal("not run");
      phase.Begin(/*sim_latency=*/false);
      Status cut;
      {
        SpanTimer span(tracer, Slot(totals, &TraceTotals::power_cut));
        cut = dev->PowerCut(r.end);
      }
      if (cut.ok()) {
        SpanTimer span(tracer, Slot(totals, &TraceTotals::recover));
        rec = dev->Recover(r.end);
      }
      if (rec.ok()) {
        SpanTimer span(tracer, Slot(totals, &TraceTotals::cache_mount));
        remounted = ZoneCache::Mount(&under_cache, opts, rec.value());
      }
      phase.End();
      old.reset();
      if (!cut.ok() || !rec.ok() || !remounted.ok()) {
        const Status& st = !cut.ok() ? cut : !rec.ok() ? rec.status() : remounted.status();
        u.error = "remount after block " + std::to_string(b) + ": " + st.ToString();
        break;
      }
      remount_sim += rec.value() - r.end;
      t = rec.value();
      cache = std::move(remounted).value();
      const ZoneCacheFsck::Report rep = ZoneCacheFsck::Check(*cache, t);
      if (!rep.ok()) {
        u.error = "fsck after mount " + std::to_string(b) + ": " +
                  (rep.problems.empty() ? "inconsistent" : rep.problems.front());
        break;
      }
      for (std::uint64_t v : {t.ns(), rep.fingerprint, rep.entries_checked, rep.live_slots}) {
        fp.Add(v);
      }
    }
    u.segment_s = phase.segments_s();

    const StatsSnapshot stats = dev->Stats();
    fp.Add(stats);
    fp.Add(under_cache.sim_latency());
    u.fingerprint = fp.value();
    const double ops = static_cast<double>(u.attempted);
    u.sim_kiops = Ratio(ops, block_sim.seconds()) / 1000.0;
    u.sim_p99_us = under_cache.sim_latency().Percentile(0.99).us();
    u.write_amp = Ratio(static_cast<double>(stats.flash_bytes_written),
                        static_cast<double>(admitted_slots * cfg.geometry.slot_size));

    AddDeviceCounts(work, static_cast<double>(work.reads + work.writes), block_sim,
                    cfg.geometry, /*has_engine=*/true, &u);
    auto& c = u.counts;
    c["cache.hit_ratio"] = Ratio(static_cast<double>(hits), static_cast<double>(gets));
    c["cache.migrated_slots_per_put"] =
        Ratio(static_cast<double>(migrated), static_cast<double>(puts));
    c["cache.journal_records_per_put"] =
        Ratio(static_cast<double>(journal), static_cast<double>(puts));
    const RecoveryStats& rs = dev->recovery_stats();
    const double cycles = static_cast<double>(rs.recoveries);
    c["cache.sim_remount_ms"] = Ratio(static_cast<double>(remount_sim.ns()) / 1e6, cycles);
    c["core.recover_pages_scanned"] = Ratio(static_cast<double>(rs.pages_scanned), cycles);
    c["core.recover_pages_skipped"] = Ratio(static_cast<double>(rs.pages_skipped), cycles);
    u.drive.mean_latency_ns = under_cache.sim_latency().mean().ns();

    if (totals != nullptr) {
      totals->top.Merge(under_cache.host());
      totals->top_is_conzone = true;
    }
    return u;
  }

 private:
  static constexpr std::uint64_t kBlocks = 8;
  static constexpr std::uint64_t kOpsPerBlock = 10000;
  std::uint64_t seed_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "zns_randread", "zns_zoneswitch_mix", "legacy_mirror_randrw", "cache_zipf_crash"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "zns_randread") return std::make_unique<ZnsRandread>(seed);
  if (name == "zns_zoneswitch_mix") return std::make_unique<ZnsZoneswitchMix>(seed);
  if (name == "legacy_mirror_randrw") return std::make_unique<LegacyMirrorRandrw>(seed);
  if (name == "cache_zipf_crash") return std::make_unique<CacheZipfCrash>(seed);
  return nullptr;
}

}  // namespace perfbench
