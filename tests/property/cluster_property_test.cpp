// Cluster chaos suite: random seeded fault schedules — including the new
// cluster.fetch and cluster.migrate points — pushed through a 3-node fleet
// with replication and live migration enabled, checked against the
// cluster invariants:
//   - every accepted request reaches exactly one terminal outcome, even
//     when its queue is drained and re-dispatched mid-migration;
//   - the replication ledger drains: no in-flight fetches or bytes
//     survive the run, on any path (success, fault-abort, poison);
//   - placement never targets a quarantined node (enforced by a
//     SWAP_CHECK inside PlacementPolicy::Pick — a violation aborts);
//   - identical seeds give identical fleets (per-node fault streams are
//     derived deterministically from the cluster seed).
//
// Labeled `chaos` (runs with `scripts/check.sh chaos` under asan/tsan) and
// `cluster` (runs with `scripts/check.sh cluster`).

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/backend.h"
#include "fault/fault_injector.h"
#include "model/catalog.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace swapserve::cluster {
namespace {

// Small models only: every node in the 3x1-GPU fleet must be able to host
// a standby, so migration and rerouting always have somewhere to go.
constexpr const char* kPool[] = {
    "llama-3.2-1b-fp16",
    "llama-3.2-3b-fp16",
    "deepseek-r1-7b-fp16",
};
constexpr int kPoolSize = 3;

// Chaos plan mixing the cluster fault points with the core swap points the
// per-node SwapServe instances already handle. Probabilities are low
// enough that retries usually absorb the fault but high enough that every
// cluster recovery path fires across 100 seeds.
fault::FaultPlan RandomPlan(sim::Rng& rng) {
  struct PointSpec {
    const char* point;
    double max_probability;
    bool fail;
    double stall_s;
  };
  static constexpr PointSpec kPoints[] = {
      {"cluster.fetch", 0.35, true, 0},
      {"cluster.migrate", 0.50, true, 0},
      {"ckpt.swap_out", 0.10, true, 0},
      {"ckpt.swap_in", 0.20, true, 0},
      {"storage.read", 0.12, true, 0},
      {"hw.link", 0.12, false, 1.5},
  };
  fault::FaultPlan plan;
  for (const PointSpec& spec : kPoints) {
    if (!rng.Bernoulli(0.75)) continue;
    fault::FaultRule rule;
    rule.point = spec.point;
    rule.probability = rng.Uniform(0.01, spec.max_probability);
    rule.fail = spec.fail;
    rule.stall_s = spec.stall_s > 0 ? rng.Uniform(0.5, spec.stall_s) : 0.0;
    rule.code = rng.Bernoulli(0.5) ? StatusCode::kUnavailable
                                   : StatusCode::kInternal;
    // A slice of cluster.fetch faults poison the landed bytes instead of
    // failing the wire: DATA_LOSS lands the copy then corrupts it, so the
    // verify-before-restore path must catch it downstream.
    if (rule.point == std::string("cluster.fetch") && rng.Bernoulli(0.25)) {
      rule.code = StatusCode::kDataLoss;
    }
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

struct ClusterOutcome {
  std::uint64_t accepted = 0;
  std::uint64_t terminal_done = 0;
  std::uint64_t terminal_error = 0;
  std::uint64_t rejected = 0;
  std::uint64_t fetches = 0;
  std::uint64_t fetch_failures = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migration_aborts = 0;
  std::uint64_t routed = 0;
  std::uint64_t faults_injected = 0;

  bool operator==(const ClusterOutcome&) const = default;
};

ClusterOutcome RunClusterChaos(std::uint64_t seed, int n_requests) {
  sim::Simulation sim;
  model::ModelCatalog catalog = model::ModelCatalog::Default();
  sim::Rng rng(seed);

  core::Config cfg;
  cfg.cluster.nodes = 3;
  cfg.cluster.replicate = 2;
  cfg.cluster.migration = true;
  // Sub-second sweeps: the small models drain their bursts in a couple of
  // seconds, so a coarser interval would only ever see idle nodes.
  cfg.cluster.migrate_interval_s = 0.5;
  cfg.cluster.migrate_hysteresis = 1.2;
  cfg.global.queue_capacity = 16;
  cfg.fault.seed = seed;
  // Node 0 has two GPUs hosting two models; the skewed burst traffic on
  // the second GPU pressures the node while the first model idles
  // resident — exactly the state the migration sweep moves off-node. A
  // single-GPU node would never show it: preemption swaps the idle model
  // out before the sweep sees it running.
  cfg.cluster.node_gpus = {2, 1, 1};
  const int kHomes[] = {0, 0, 1};
  const int kGpus[] = {0, 1, 0};
  for (int i = 0; i < kPoolSize; ++i) {
    core::ModelEntry m;
    m.model_id = kPool[i];
    m.engine = "vllm";
    m.node = kHomes[i];
    m.gpu = kGpus[i];
    cfg.models.push_back(std::move(m));
  }
  // Draw the full chaos plan up front. The cluster.* rules go into the
  // config so they are armed from construction: background replication
  // (which starts inside Initialize) must also roll the cluster.fetch
  // dice, and a failed background copy is absorbed by design — the
  // standby just keeps its placeholder. The core swap points would fail
  // node cold-starts, so those stay disarmed until after init.
  fault::FaultPlan plan = RandomPlan(rng);
  for (const fault::FaultRule& rule : plan.rules) {
    if (rule.point.rfind("cluster.", 0) == 0) {
      cfg.fault.plan.rules.push_back(rule);
    }
  }
  ClusterServe cluster(sim, cfg, catalog);

  ClusterOutcome out;
  sim::Spawn([&]() -> sim::Task<> {
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    // Arm the full plan (core points included) only after init, on every
    // node: each node's injector draws from its own derived seed, so the
    // same plan produces distinct per-node streams. Configure resets the
    // fire counter, so bank the cluster.fetch fires replication rolled.
    for (int i = 0; i < cluster.nodes(); ++i) {
      out.faults_injected +=
          cluster.node(i).serve().fault_injector().total_fires();
      cluster.node(i).serve().fault_injector().Configure(plan);
    }

    for (int i = 0; i < n_requests; ++i) {
      // Bursty arrivals: batches of ~4 back-to-back requests build real
      // queue depth between migration sweeps instead of trickling in.
      if (i % 4 == 0) {
        co_await sim.Delay(sim::Seconds(rng.Exponential(2.0)));
      }
      core::InferenceRequest req;
      // The first request warms the first model on its home node so the
      // migration sweep has a resident-but-idle candidate; after that,
      // skew half the traffic onto the second model — bursts on node 0's
      // other GPU pressure the node, which is exactly the imbalance the
      // migration sweep looks for.
      req.model = i == 0               ? kPool[0]
                  : rng.Bernoulli(0.5) ? kPool[1]
                                       : kPool[rng.UniformInt(0, kPoolSize - 1)];
      req.prompt_tokens = rng.UniformInt(8, 512);
      req.max_tokens = rng.UniformInt(32, 512);
      Result<core::ResponseChannelPtr> ch = cluster.Accept(std::move(req));
      if (!ch.ok()) {
        ++out.rejected;
        continue;
      }
      ++out.accepted;
      sim::Spawn([&out, channel = *ch]() -> sim::Task<> {
        int terminals = 0;
        while (auto chunk = co_await channel->Recv()) {
          if (chunk->kind == core::ResponseChunk::Kind::kDone) {
            ++terminals;
            ++out.terminal_done;
          }
          if (chunk->kind == core::ResponseChunk::Kind::kError) {
            ++terminals;
            ++out.terminal_error;
          }
        }
        EXPECT_EQ(terminals, 1);  // exactly one terminal chunk, always
      });
    }
    co_await sim.Delay(sim::Minutes(60));  // drain through retries
    cluster.Shutdown();
  });
  sim.Run();

  // --- invariants ---------------------------------------------------------
  // Nothing lost: migration re-dispatches queued requests with their
  // response channels attached, so every accepted request still reaches
  // exactly one terminal, fleet-wide.
  EXPECT_EQ(out.terminal_done + out.terminal_error, out.accepted)
      << "request lost across migration/fetch (seed " << seed << ")";
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (int i = 0; i < cluster.nodes(); ++i) {
    completed += cluster.node(i).serve().metrics().TotalCompleted();
    failed += cluster.node(i).serve().metrics().TotalFailed();
  }
  EXPECT_EQ(out.accepted, completed + failed)
      << "fleet metrics disagree with terminals (seed " << seed << ")";
  EXPECT_EQ(out.terminal_done, completed);

  // The replication ledger drains on every path: success, fault-abort,
  // and DATA_LOSS poison all settle their in-flight entry.
  SWAP_CHECK(cluster.replicator() != nullptr);
  EXPECT_EQ(cluster.replicator()->in_flight(), 0)
      << "leaked in-flight fetch (seed " << seed << ")";
  EXPECT_EQ(cluster.replicator()->in_flight_bytes().count(), 0)
      << "leaked in-flight fetch bytes (seed " << seed << ")";

  out.fetches = cluster.replicator()->fetches();
  out.fetch_failures = cluster.replicator()->fetch_failures();
  out.migrations = cluster.migrations();
  out.migration_aborts = cluster.migration_aborts();
  out.routed = cluster.routed();
  for (int i = 0; i < cluster.nodes(); ++i) {
    out.faults_injected +=
        cluster.node(i).serve().fault_injector().total_fires();
  }
  return out;
}

class ClusterChaosProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterChaosProperty, FleetInvariantsHoldUnderRandomFaults) {
  ClusterOutcome out = RunClusterChaos(GetParam(), 20);
  EXPECT_GT(out.accepted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ClusterChaosProperty,
    ::testing::Range(std::uint64_t{0}, std::uint64_t{100}));

// Guard against a sweep of quiet runs: across a prefix of the seed range
// the cluster paths under test must actually fire — cross-node fetches,
// fetch failures (the cluster.fetch point), and live migrations.
TEST(ClusterChaosSweepSummary, ClusterFaultPointsActuallyFire) {
  ClusterOutcome totals;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    ClusterOutcome out = RunClusterChaos(seed, 20);
    totals.fetches += out.fetches;
    totals.fetch_failures += out.fetch_failures;
    totals.migrations += out.migrations;
    totals.migration_aborts += out.migration_aborts;
    totals.routed += out.routed;
    totals.faults_injected += out.faults_injected;
  }
  EXPECT_GT(totals.fetches, 10u);
  EXPECT_GT(totals.fetch_failures, 0u);
  // The sweep must decide to move models; the cluster.migrate point may
  // abort individual attempts, so attempts (moves + aborts) is the signal
  // that the path ran.
  EXPECT_GT(totals.migrations + totals.migration_aborts, 0u);
  EXPECT_GT(totals.routed, 0u);
  EXPECT_GE(totals.faults_injected, 10u);
}

TEST(ClusterChaosDeterminismTest, IdenticalSeedsGiveIdenticalFleets) {
  for (std::uint64_t seed : {5ull, 23ull, 71ull}) {
    ClusterOutcome a = RunClusterChaos(seed, 20);
    ClusterOutcome b = RunClusterChaos(seed, 20);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

}  // namespace
}  // namespace swapserve::cluster
