// The benchmark's three workloads: their fixed parameters, the request
// trace generated from the workload seed, and the serving configuration.
// The program under test receives only what is built here (requests as
// OpenAI JSON bodies or InferenceRequests, and a core::Config).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "fault/fault_injector.h"

namespace perfbench {

namespace core = swapserve::core;
namespace fault = swapserve::fault;

// Where requests enter the program.
enum class Front {
  kRouter,   // OpenAiRouter::ChatCompletions on one SwapServe
  kCluster,  // cluster::ClusterServe::Accept (the JSON parser is bypassed)
};

struct Workload {
  std::string_view name;
  Front front;
  std::uint64_t default_seed;
  std::uint64_t heldout_seed;  // reserved for checking later claims
  double traffic_s;     // open-loop arrival window (virtual)
  double drain_s;       // virtual time after the last arrival
  double ttft_limit_s;  // SLO: a completed request within it attains
  double probe_window_s;  // RunUntil slice length of the traced run
};

// Null for an unknown name.
const Workload* FindWorkload(std::string_view name);
const std::vector<Workload>& AllWorkloads();

// One arrival of the open-loop trace.
struct Request {
  double due_s = 0;  // offset from the start of serving (virtual)
  std::string model;
  std::int64_t prompt_tokens = 0;
  std::int64_t max_tokens = 0;
  std::string body;  // OpenAI chat body; empty on the cluster front
};

// Deterministic in (workload, seed). Router bodies are built so that
// OpenAiRouter::EstimatePromptTokens reads back exactly prompt_tokens; a
// one-message chat body cannot estimate below 4 tokens, so shorter
// prompts are raised to 4 (rare: the prompt medians are 60 and 220).
std::vector<Request> MakeRequests(const Workload& w, std::uint64_t seed);

// The serving configuration (already valid for the default catalog).
core::Config MakeConfig(const Workload& w, std::uint64_t seed);

// Faults armed once Initialize() has finished and disarmed at the end of
// the traffic window (empty for fault-free workloads).
fault::FaultPlan ChaosPlan(const Workload& w);

}  // namespace perfbench
