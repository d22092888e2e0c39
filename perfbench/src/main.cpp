// Emulator benchmark program.
//
//   conzone_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats units of the named workload (fresh set-up, fixed deterministic
// work, output checks) until --seconds have passed. With --trace 0 it
// reports the end-to-end metrics of untraced units; with --trace 1 it
// alternates untraced and traced units and reports per-layer metrics:
// span self times at the benchmark's boundaries, the layers' own work
// counts, and the standalone drives of the classes no decorator reaches.
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (name -> number); run.py attaches the units.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "drives.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Boundary self times must add up to the traced wall time within this
// share of it; the rest is glue between the spans.
constexpr double kSelfTimeTolerance = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
      continue;
    }
    if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return false;
    }
    if (end == v || *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

double OpsPerSecond(const UnitResult& u) {
  return Ratio(static_cast<double>(u.attempted), Sum(u.segment_s));
}

/// Throughput of a composite unit made of the fastest instance of each
/// measured segment. Every unit does identical deterministic work in the
/// same segments, so the units differ only by how much the shared host
/// slowed them. On a 4-thread VM the host alternates between a contended
/// speed and bursts up to 1.5x faster that often last less than a unit;
/// the best whole unit then depends on whether a burst happened to cover
/// one, and a run's median on how much of it fell in bursts, while the
/// fastest instance of each short segment repeats across runs.
double BestOpsPerSecond(const std::vector<UnitResult>& units) {
  std::vector<double> best = units.front().segment_s;
  for (const UnitResult& u : units) {
    if (u.segment_s.size() != best.size()) continue;  // a failed unit
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], u.segment_s[i]);
  }
  return Ratio(static_cast<double>(units.front().attempted), Sum(best));
}

/// The process's own peak resident set. Not getrusage's ru_maxrss: that
/// keeps the high-water mark of the image the process exec'd from, so
/// under run.py it reported the Python interpreter's footprint.
double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// Every per-layer metric, so each workload prints the full set; a layer
/// a workload does not reach reads 0.
const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> kNames = {
      "trace.overhead_frac", "trace.unattributed_frac", "trace.workload_self_frac",
      "trace.host_self_frac", "trace.device_self_frac", "trace.cache_self_frac",
      "workload.fio.self_ns_per_io", "sim.events_per_io",
      "core.read_ns_p50", "core.read_ns_p99", "core.write_ns_p50", "core.write_ns_p99",
      "core.reset_ns_mean",
      "ftl.translator.miss_rate", "ftl.translator.fetches_per_miss",
      "ftl.l2p_cache.lookups_per_io", "ftl.l2p_cache.inserts_per_io",
      "ftl.l2p_cache.evictions_per_io",
      "buffer.conflicts_per_kio", "core.premature_flushes_per_kio", "core.folds_per_kio",
      "gc.runs_per_gib", "gc.slots_migrated_per_host_slot", "gc.busy_frac",
      "flash.page_reads_per_io", "flash.slc_slots_per_host_slot",
      "flash.normal_slots_per_host_slot", "flash.chip_busy_frac", "flash.channel_busy_frac",
      "legacy.read_ns_p50", "legacy.read_ns_p99", "legacy.write_ns_p50",
      "host.volume.self_ns_per_io", "host.member_calls_per_io", "exec.member_ns_over_wall",
      "cache.self_ns_per_op", "cache.device_ns_per_op", "cache.migrated_slots_per_put",
      "cache.journal_records_per_put", "cache.hit_ratio",
      "core.recover_ms", "cache.mount_ms", "cache.remount_ms", "cache.sim_remount_ms",
      "core.recover_pages_scanned", "core.recover_pages_skipped",
      "sim.event_queue.ns_per_event", "ftl.l2p_cache.ns_per_lookup",
      "ftl.l2p_cache.ns_per_insert", "ftl.translator.ns_per_translate",
      "flash.timing_engine.ns_per_op",
      "est.sim.event_queue.wall_frac", "est.ftl.l2p_cache.wall_frac",
      "est.ftl.translator.wall_frac", "est.flash.timing_engine.wall_frac"};
  return kNames;
}

double Pct(const conzone::LatencyHistogram& h, double q) {
  return h.count() ? static_cast<double>(h.Percentile(q).ns()) : 0.0;
}

/// Per-layer metrics from the traced units, the untraced units they
/// alternated with, and the standalone drives.
std::map<std::string, double> PerLayer(const TraceTotals& t,
                                       const std::vector<UnitResult>& plain,
                                       const std::vector<UnitResult>& traced,
                                       const DriveResults& dr, std::string* problem) {
  std::map<std::string, double> m;
  for (const std::string& n : PerLayerNames()) m[n] = 0;
  for (const auto& [k, v] : traced.front().counts) m[k] = v;

  double ops = 0;
  for (const UnitResult& u : traced) ops += static_cast<double>(u.attempted);
  const double plain_best = BestOpsPerSecond(plain);
  m["trace.overhead_frac"] = 1.0 - Ratio(BestOpsPerSecond(traced), plain_best);

  const auto ns = [](std::int64_t v) { return static_cast<double>(v); };
  // Layer self times. The top decorator is a frame only over a volume;
  // otherwise it is the device layer's leaf.
  const double workload = ns(t.fio_run.self_ns);
  const double host = t.top_is_volume ? ns(t.top.all.self_ns) : 0.0;
  const double device =
      (t.top_is_volume ? ns(t.top.all.total_ns - t.top.all.self_ns) : ns(t.top.all.total_ns)) +
      ns(t.recover.total_ns) + ns(t.power_cut.total_ns);
  const double cache = ns(t.cache_run.self_ns) + ns(t.cache_mount.self_ns);
  const double wall = ns(t.phase.total_ns);
  m["trace.workload_self_frac"] = Ratio(workload, wall);
  m["trace.host_self_frac"] = Ratio(host, wall);
  m["trace.device_self_frac"] = Ratio(device, wall);
  m["trace.cache_self_frac"] = Ratio(cache, wall);
  m["trace.unattributed_frac"] = 1.0 - Ratio(workload + host + device + cache, wall);
  if (std::fabs(m["trace.unattributed_frac"]) > kSelfTimeTolerance) {
    *problem = "boundary self times miss the traced wall time by " +
               std::to_string(m["trace.unattributed_frac"]);
  }
  for (double self : {workload, host, ns(t.cache_run.self_ns), ns(t.cache_mount.self_ns)}) {
    if (self < -kSelfTimeTolerance * wall) *problem = "negative self time";
  }

  m["workload.fio.self_ns_per_io"] = Ratio(workload, ops);
  if (t.top_is_conzone) {
    m["core.read_ns_p50"] = Pct(t.top.read_ns, 0.5);
    m["core.read_ns_p99"] = Pct(t.top.read_ns, 0.99);
    m["core.write_ns_p50"] = Pct(t.top.write_ns, 0.5);
    m["core.write_ns_p99"] = Pct(t.top.write_ns, 0.99);
    m["core.reset_ns_mean"] = Ratio(ns(t.top.reset_ns), static_cast<double>(t.top.resets));
  }
  if (t.top_is_volume) {
    m["legacy.read_ns_p50"] = Pct(t.members.read_ns, 0.5);
    m["legacy.read_ns_p99"] = Pct(t.members.read_ns, 0.99);
    m["legacy.write_ns_p50"] = Pct(t.members.write_ns, 0.5);
    const double calls = static_cast<double>(t.top.all.calls);
    m["host.volume.self_ns_per_io"] = Ratio(host, calls);
    m["host.member_calls_per_io"] = Ratio(static_cast<double>(t.top.all.child_calls), calls);
    m["exec.member_ns_over_wall"] = Ratio(ns(t.members.all.total_ns), ns(t.top.all.total_ns));
  }
  if (t.cache_run.calls > 0) {
    m["cache.self_ns_per_op"] = Ratio(ns(t.cache_run.self_ns), ops);
    m["cache.device_ns_per_op"] = Ratio(ns(t.cache_run.total_ns - t.cache_run.self_ns), ops);
    const double cycles = static_cast<double>(t.recover.calls);
    m["core.recover_ms"] = Ratio(ns(t.recover.total_ns) / 1e6, cycles);
    m["cache.mount_ms"] = Ratio(ns(t.cache_mount.total_ns) / 1e6, cycles);
    m["cache.remount_ms"] =
        Ratio(ns(t.power_cut.total_ns + t.recover.total_ns + t.cache_mount.total_ns) / 1e6,
              cycles);
  }

  m["sim.event_queue.ns_per_event"] = dr.event_ns;
  m["ftl.l2p_cache.ns_per_lookup"] = dr.lookup_ns;
  m["ftl.l2p_cache.ns_per_insert"] = dr.insert_ns;
  m["ftl.translator.ns_per_translate"] = dr.translate_ns;
  m["flash.timing_engine.ns_per_op"] = dr.engine_ns;
  // Estimates: the traced unit's count times the drive's cost per op, as a
  // share of the fastest untraced unit's wall time.
  const DriveInputs& in = traced.front().drive;
  const double unit_ns =
      Ratio(static_cast<double>(plain.front().attempted), plain_best) * 1e9;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["est.sim.event_queue.wall_frac"] = Ratio(d(in.events) * dr.event_ns, unit_ns);
  m["est.ftl.l2p_cache.wall_frac"] =
      Ratio(d(in.l2p_lookups) * dr.lookup_ns + d(in.l2p_inserts) * dr.insert_ns, unit_ns);
  m["est.ftl.translator.wall_frac"] = Ratio(d(in.translations) * dr.translate_ns, unit_ns);
  m["est.flash.timing_engine.wall_frac"] =
      Ratio(d(in.page_reads + in.programs) * dr.engine_ns, unit_ns);
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: conzone_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "conzone_perfbench: refusing to measure an unoptimised build "
                       "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  auto workload = MakeWorkload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const bool traced_run = args.trace == 1;
  const std::size_t min_each = traced_run ? 2 : 3;
  Tracer tracer;
  TraceTotals totals;
  std::vector<UnitResult> plain, traced;
  std::string problem;
  // The process's high-water mark after the first unit: later units reuse
  // freed heap in an order that depends on how many ran, which moves the
  // process-wide peak by up to a third between otherwise equal runs.
  double unit_rss_mib = 0;
  const std::int64_t start = NowNs();
  const auto elapsed_s = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  while (problem.empty()) {
    const bool enough = plain.size() >= min_each && (!traced_run || traced.size() >= min_each);
    if (enough && elapsed_s() >= args.seconds) break;
    const bool trace_this = traced_run && traced.size() < plain.size();
    UnitResult u = trace_this ? workload->RunUnit(&tracer, &totals)
                              : workload->RunUnit(nullptr, nullptr);
    if (!u.error.empty()) problem = u.error;
    (trace_this ? traced : plain).push_back(std::move(u));
    if (unit_rss_mib == 0) unit_rss_mib = PeakRssMiB();
  }

  std::uint64_t attempted = 0, failed = 0;
  const std::uint64_t fp = plain.front().fingerprint;
  for (const auto* set : {&plain, &traced}) {
    for (const UnitResult& u : *set) {
      attempted += u.attempted;
      failed += u.failed;
      if (problem.empty() && u.fingerprint != fp) {
        problem = "fingerprint differs between same-seed units";
      }
    }
  }
  if (problem.empty() && failed != 0) problem = "failed ops";
  std::vector<double> rates;
  for (const UnitResult& u : plain) rates.push_back(OpsPerSecond(u));
  std::fprintf(stderr, "untraced ops/s: median %.6g best %.6g; peak RSS %.1f MiB\n",
               Median(rates), BestOpsPerSecond(plain), PeakRssMiB());
  std::fprintf(stderr, "%s seed=%llu units: %zu untraced, %zu traced; fingerprint %016llx\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               plain.size(), traced.size(), static_cast<unsigned long long>(fp));

  std::map<std::string, double> metrics;
  if (problem.empty() && traced_run) {
    metrics = PerLayer(totals, plain, traced, RunDrives(traced.front().drive), &problem);
  } else if (problem.empty()) {
    std::vector<double> setup;
    for (const UnitResult& u : plain) setup.push_back(u.setup_s);
    const UnitResult& u = plain.front();
    metrics = {{"ops_per_s", BestOpsPerSecond(plain)}, {"setup_s", Median(setup)},
               {"peak_rss_mib", unit_rss_mib}, {"sim_kiops", u.sim_kiops},
               {"sim_p99_us", u.sim_p99_us},   {"write_amp", u.write_amp}};
  }
  const bool correct = problem.empty();
  if (!correct) std::fprintf(stderr, "INCORRECT: %s\n", problem.c_str());

  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    out += (first ? "\"" : ", \"") + name + "\": " + buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
