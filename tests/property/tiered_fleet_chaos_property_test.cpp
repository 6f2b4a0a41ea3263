// Tiered-fleet crash chaos: node power loss on a 3-node fleet whose nodes
// keep snapshots in a bounded host cache (NVMe spill + prefetch) and swap
// with the chunked pipeline. Two crash deadlocks used to strand requests
// here:
//   - a promotion that found the host cache full waited for "some move or
//     pin to settle" while the only move and pin were its own, holding the
//     backend's exclusive lock forever;
//   - a pipelined swap-in holding the exclusive lock waited for a chunk
//     reservation that only the memory freed by the crash could satisfy,
//     but that memory was credited to the task manager inside Recover(),
//     which queued behind the same lock.
// Invariants: every accepted request reaches exactly one terminal outcome,
// and every node drains to InFlight() == 0.
//
// Labeled `chaos` and `cluster`.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "fault/fault_injector.h"
#include "model/catalog.h"
#include "sim/simulation.h"
#include "workload/arrival.h"
#include "workload/request_gen.h"
#include "workload/trace.h"

namespace swapserve::cluster {
namespace {

struct FleetModel {
  const char* id;
  const char* engine;
  double rps;
  int node;
  int gpu;
};

// Six models homed across GPUs {2, 1, 1}; the vLLM/SGLang reservations
// oversubscribe a GPU that also holds standby replicas, so restores evict.
constexpr FleetModel kModels[] = {
    {"llama-3.2-1b-fp16", "vllm", 0.3, 0, 0},
    {"llama-3.2-3b-fp16", "ollama", 0.3, 0, 1},
    {"deepseek-r1-7b-fp16", "vllm", 0.2, 1, 0},
    {"llama-3.2-1b-q8", "ollama", 0.3, 1, 0},
    {"deepseek-r1-8b-q8", "ollama", 0.2, 2, 0},
    {"llama-3.2-3b-q8", "sglang", 0.2, 2, 0},
};

core::Config TieredFleetConfig(std::uint64_t seed) {
  core::Config cfg;
  for (const FleetModel& m : kModels) {
    core::ModelEntry e;
    e.model_id = m.id;
    e.engine = m.engine;
    e.node = m.node;
    e.gpu = m.gpu;
    if (e.engine != "ollama") e.gpu_memory_utilization = 0.35;
    cfg.models.push_back(std::move(e));
  }
  cfg.global.pipelined_swap = true;
  cfg.global.stream_tokens = true;
  cfg.global.host_cache_mib = 40 * 1024.0;
  cfg.global.snapshot_prefetch = true;
  cfg.cluster.nodes = 3;
  cfg.cluster.node_gpus = {2, 1, 1};
  cfg.cluster.replicate = 2;
  cfg.cluster.placement = "locality";
  cfg.cluster.migration = true;
  cfg.cluster.heartbeat_interval_s = 0.5;
  cfg.cluster.suspect_after_s = 1.0;
  cfg.cluster.down_after_s = 3.0;
  cfg.cluster.node_restart_s = 10.0;
  cfg.cluster.repair_interval_s = 2.0;
  cfg.cluster.repair_concurrency = 2;
  cfg.fault.seed = seed;
  return cfg;
}

// Power loss rolled once per heartbeat per node; each outage lasts 25 s.
fault::FaultPlan CrashPlan() {
  fault::FaultRule crash;
  crash.point = "node.crash";
  crash.probability = 0.002;
  crash.fail = true;
  crash.stall_s = 25.0;
  fault::FaultPlan plan;
  plan.rules.push_back(std::move(crash));
  return plan;
}

struct Outcome {
  std::uint64_t accepted = 0;
  std::uint64_t terminals = 0;
  std::uint64_t multi_terminal = 0;
  std::uint64_t crashes = 0;
};

Outcome RunTieredChaos(std::uint64_t seed, double traffic_s) {
  sim::Simulation sim;
  model::ModelCatalog catalog = model::ModelCatalog::Default();
  ClusterServe cluster(sim, TieredFleetConfig(seed), catalog);

  std::vector<std::unique_ptr<workload::RateCurve>> rates;
  std::vector<workload::ModelWorkload> mix;
  const workload::RequestProfile profile =
      workload::RequestProfile::Conversational();
  for (const FleetModel& m : kModels) {
    rates.push_back(std::make_unique<workload::ConstantRate>(m.rps));
    mix.push_back({m.id, rates.back().get(), &profile});
  }
  const std::vector<workload::TraceEvent> trace =
      workload::GenerateTrace(mix, traffic_s, seed);

  Outcome out;
  sim::Spawn([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    for (int i = 0; i < cluster.nodes(); ++i) {
      cluster.node(i).serve().fault_injector().Configure(CrashPlan());
    }
    const sim::SimTime start = sim.Now();
    for (const workload::TraceEvent& ev : trace) {
      co_await sim.WaitUntil(start + sim::Seconds(ev.time_s));
      core::InferenceRequest req;
      req.model = ev.model_id;
      req.prompt_tokens = ev.prompt_tokens;
      req.max_tokens = ev.output_tokens;
      Result<core::ResponseChannelPtr> ch = cluster.Accept(std::move(req));
      if (!ch.ok()) continue;  // every replica's node is down right now
      ++out.accepted;
      sim::Spawn([&out, channel = *ch]() -> sim::Task<> {
        int terminals = 0;
        while (auto chunk = co_await channel->Recv()) {
          if (chunk->kind == core::ResponseChunk::Kind::kDone ||
              chunk->kind == core::ResponseChunk::Kind::kError) {
            ++terminals;
          }
        }
        out.terminals += terminals == 1 ? 1 : 0;
        out.multi_terminal += terminals > 1 ? 1 : 0;
      });
    }
    // Disarm so every outage is finite, then let reboots and the
    // supervisors' restarts drain what is left.
    for (int i = 0; i < cluster.nodes(); ++i) {
      cluster.node(i).serve().fault_injector().Configure(fault::FaultPlan{});
    }
    co_await sim.Delay(sim::Minutes(10));
    for (int i = 0; i < cluster.nodes(); ++i) {
      EXPECT_EQ(cluster.node(i).serve().InFlight(), 0u)
          << "node" << i << " stranded requests (seed " << seed << ")";
      out.crashes += cluster.node(i).crashes();
    }
    cluster.Shutdown();
  });
  sim.Run();
  return out;
}

class TieredFleetChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TieredFleetChaos, EveryRequestReachesOneTerminalOutcome) {
  const std::uint64_t seed = GetParam();
  Outcome out = RunTieredChaos(seed, /*traffic_s=*/3600);
  EXPECT_GT(out.accepted, 0u);
  EXPECT_GT(out.crashes, 0u);  // the plan did crash nodes under load
  EXPECT_EQ(out.multi_terminal, 0u) << "seed " << seed;
  EXPECT_EQ(out.terminals, out.accepted)
      << "requests never reached a terminal outcome (seed " << seed << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TieredFleetChaos,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{9}));

}  // namespace
}  // namespace swapserve::cluster
