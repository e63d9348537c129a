#pragma once

// The benchmark's three workloads. Each call makes one pass over the
// workload's simulation points, back to back on the calling thread, and
// fills one Iteration: rows of simulated results, deterministic counts and
// host seconds. Inputs (payload bytes, reduction operands, fault targets)
// derive from `seed`, which is also passed into GigeMeshConfig::seed.

#include <cstdint>
#include <string>

#include "probes.hpp"

namespace perfbench {

struct Ctx {
  std::uint64_t seed = 1;
  Probe& probe;
  Checks& checks;
  Iteration& it;
};

using WorkloadFn = void (*)(Ctx&);

/// nullptr for an unknown name.
WorkloadFn find_workload(const std::string& name);

}  // namespace perfbench
