#include "fault/fault_model.hpp"

#include <cmath>

namespace conzone {

namespace {
Status CheckProbability(double p, const char* name) {
  if (p < 0.0 || p > 1.0) {
    return Status::InvalidArgument(std::string("fault: ") + name +
                                   " must be in [0, 1]");
  }
  return Status::Ok();
}

Status CheckRates(const FaultRates& r, const char* region) {
  if (Status st = CheckProbability(r.program_fail, region); !st.ok()) return st;
  if (Status st = CheckProbability(r.erase_fail, region); !st.ok()) return st;
  if (Status st = CheckProbability(r.read_retry, region); !st.ok()) return st;
  return Status::Ok();
}
}  // namespace

FaultConfig FaultConfig::ConsumerDefaults() {
  FaultConfig cfg;
  // SLC staging sees the most program traffic (slot-granular partial
  // programs) but the widest margins; the normal region fails less often
  // per op but every failure burns a whole one-shot unit.
  cfg.slc.program_fail = 2e-4;
  cfg.slc.erase_fail = 1e-3;
  cfg.slc.read_retry = 0.02;
  cfg.normal.program_fail = 1e-4;
  cfg.normal.erase_fail = 5e-4;
  cfg.normal.read_retry = 0.01;
  cfg.read_retry_decay = 0.25;
  cfg.max_read_retries = 7;
  return cfg;
}

Status FaultConfig::Validate() const {
  if (Status st = CheckRates(slc, "slc rate"); !st.ok()) return st;
  if (Status st = CheckRates(normal, "normal rate"); !st.ok()) return st;
  if (Status st = CheckProbability(read_retry_decay, "read_retry_decay"); !st.ok()) {
    return st;
  }
  if (wear_slope < 0.0) {
    return Status::InvalidArgument("fault: wear_slope must be >= 0");
  }
  if (AnyFaults() && max_read_retries == 0 &&
      (slc.read_retry > 0 || normal.read_retry > 0)) {
    return Status::InvalidArgument(
        "fault: read_retry > 0 needs max_read_retries >= 1");
  }
  return Status::Ok();
}

FaultModel::FaultModel(const FaultConfig& config)
    : cfg_(config),
      rng_(config.seed),
      enabled_(config.AnyFaults()) {}

CutStream::CutStream(CutScheduleKind kind, std::uint64_t interval_ns,
                     std::uint64_t seed)
    : kind_(kind),
      interval_ns_(interval_ns),
      rng_(MixSeeds(seed, 0x50C0FFEEull, 0xC07ull)) {}

SimTime CutStream::Next(SimTime t) {
  if (kind_ == CutScheduleKind::kFixedInterval) {
    return t + SimDuration::Nanos(interval_ns_);
  }
  // Exponential inter-arrival, quantized to >= 1 ns so the schedule
  // always makes progress.
  const double mean = static_cast<double>(interval_ns_);
  const double u = rng_.NextDouble();  // [0, 1)
  const double gap = -mean * std::log(1.0 - u);
  const std::uint64_t ns =
      gap < 1.0 ? 1ull
                : static_cast<std::uint64_t>(gap < 9.2e18 ? gap : 9.2e18);
  return t + SimDuration::Nanos(ns);
}

double FaultModel::WearMultiplier(std::uint32_t erase_count) const {
  if (cfg_.rated_endurance == 0 || erase_count <= cfg_.rated_endurance) return 1.0;
  return 1.0 + cfg_.wear_slope * static_cast<double>(erase_count - cfg_.rated_endurance);
}

bool FaultModel::ProgramFails(bool slc, std::uint32_t erase_count) {
  const double p = For(slc).program_fail * WearMultiplier(erase_count);
  const bool fail = rng_.NextDouble() < p;
  if (fail) ++counters_.program_faults;
  return fail;
}

bool FaultModel::EraseFails(bool slc, std::uint32_t erase_count) {
  const double p = For(slc).erase_fail * WearMultiplier(erase_count);
  const bool fail = rng_.NextDouble() < p;
  if (fail) ++counters_.erase_faults;
  return fail;
}

std::uint32_t FaultModel::ReadRetryLevel(bool slc, std::uint32_t erase_count) {
  double p = For(slc).read_retry * WearMultiplier(erase_count);
  std::uint32_t level = 0;
  while (level < cfg_.max_read_retries && rng_.NextDouble() < p) {
    ++level;
    p *= cfg_.read_retry_decay;
  }
  if (level > 0) {
    ++counters_.reads_with_retry;
    counters_.retry_steps += level;
  }
  return level;
}

}  // namespace conzone
