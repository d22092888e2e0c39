// The four benchmark workloads. Each runs in units: one unit builds a
// fresh device stack (set-up), runs a fixed amount of deterministic work
// against it (the measured phase) and checks the simulated outputs. Every
// unit of one process uses the same seed, so every unit must produce the
// same fingerprint; the untraced units, the traced units and the repeats
// are therefore each other's same-seed reruns.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Host-time boundary totals accumulated over the traced units.
struct TraceTotals {
  BoundaryStats phase;        ///< Measured-phase root spans; self = glue.
  BoundaryStats fio_run;      ///< FioRunner::Run.
  BoundaryStats cache_run;    ///< CacheWorkloadRunner::Run.
  BoundaryStats cache_mount;  ///< ZoneCache::Mount after a cut.
  BoundaryStats recover;      ///< ConZoneDevice::Recover.
  BoundaryStats power_cut;    ///< ConZoneDevice::PowerCut.
  DeviceBoundaryStats top;      ///< Above the top device (under ZoneCache).
  DeviceBoundaryStats members;  ///< Under each volume member, merged.
  bool top_is_volume = false;
  bool top_is_conzone = false;
};

/// Work counts the standalone drives take their op mix and size from.
struct DriveInputs {
  std::uint64_t events = 0;         ///< Simulator events of the FIO run.
  std::uint32_t in_flight = 1;      ///< Submission chains (jobs x iodepth).
  std::uint64_t mean_latency_ns = 50000;
  std::uint64_t l2p_lookups = 0;
  std::uint64_t l2p_hits = 0;
  std::uint64_t l2p_inserts = 0;
  std::uint64_t translations = 0;
  std::uint64_t hits_by_gran[3] = {0, 0, 0};
  std::uint64_t page_reads = 0;
  std::uint64_t programs = 0;  ///< Program operations (slots / slots per page).
};

/// What one unit produced.
struct UnitResult {
  std::string error;  ///< Non-empty: the unit failed (counted, reported).
  std::uint64_t attempted = 0;  ///< Workload ops issued.
  std::uint64_t failed = 0;     ///< Ops that returned an error.
  double setup_s = 0;           ///< Create + precondition (+ format mount).
  /// Host time of each measured segment, in order: one FIO run, or each
  /// cache block and each remount after it.
  std::vector<double> segment_s;
  std::uint64_t fingerprint = 0;
  // Simulated end-to-end results (deterministic for a seed).
  double sim_kiops = 0;
  double sim_p99_us = 0;
  double write_amp = 0;
  /// Per-layer work counts from the layers' own accessors, by metric name.
  std::map<std::string, double> counts;
  DriveInputs drive;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Run one unit. With a tracer, spans go to `totals`.
  virtual UnitResult RunUnit(Tracer* tracer, TraceTotals* totals) = 0;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
