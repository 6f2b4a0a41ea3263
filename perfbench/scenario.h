// One repetition of a workload: generate its inputs from the seed, build
// and initialize the program, serve the open-loop trace, then read the
// program's own counters and check its outputs.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct RepOptions {
  // Traced run: slice the simulation with RunUntil and time the calls into
  // the router / cluster front. Never set for end-to-end numbers.
  bool probes = false;
  // The program's trace recorder (on by default in the program).
  bool trace_enabled = true;
};

struct RepResult {
  // Virtual-time metrics and event/byte/swap/trace counts. For one seed
  // they must repeat exactly across repetitions.
  std::map<std::string, double> exact;
  // Allocation counts; they repeat exactly once the thread-local pools
  // have grown (from the second repetition on).
  std::map<std::string, double> allocs;
  // Host-time figures: the only values allowed to vary.
  std::map<std::string, double> host;
  // Correctness-gate violations; empty when the repetition is correct.
  std::vector<std::string> failures;
};

RepResult RunRep(const Workload& w, std::uint64_t seed,
                 const RepOptions& options);

}  // namespace perfbench
