// Standalone drives for the classes the decorators cannot wrap: the
// EventQueue, the L2PCache, the Translator and the FlashTimingEngine live
// inside the devices, so their host cost is measured by driving each one
// directly, with the op mix and sizes taken from a traced unit's counts.
#pragma once

#include "workloads.hpp"

namespace perfbench {

struct DriveResults {
  double event_ns = 0;      ///< EventQueue Schedule + RunNext, per event.
  double lookup_ns = 0;     ///< L2PCache::Lookup at the traced hit ratio.
  double insert_ns = 0;     ///< L2PCache::Insert into a full cache (evicts).
  double translate_ns = 0;  ///< Translator::Translate, weighted by granularity.
  double engine_ns = 0;     ///< FlashTimingEngine ReadPage/Program mix.
};

DriveResults RunDrives(const DriveInputs& in);

}  // namespace perfbench
