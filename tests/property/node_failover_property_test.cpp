// Node-failure chaos suite: random seeded schedules of whole-node faults —
// node.crash (power loss + delayed reboot), node.partition (fabric
// blackhole / degrade), node.restart (reboots that fail) — pushed through
// a 3-node fleet with replication, repair, and live migration enabled,
// checked against the fleet invariants:
//   - every accepted request reaches exactly one terminal outcome, even
//     when its node dies with the request queued and failover re-dispatches
//     it to a survivor;
//   - fleet balance: accepted == completed + failed + redispatch-dropped
//     (the loss budget is explicit — nothing vanishes silently);
//   - the replication and repair ledgers drain: no in-flight fetches or
//     bytes survive the run on any path;
//   - every crash reboots: with the fault plan disarmed, outages are finite
//     and the whole fleet is alive and healthy after the drain;
//   - identical seeds give identical fleets (per-node fault streams derive
//     deterministically from the cluster seed).
//
// Labeled `chaos` (runs with `scripts/check.sh chaos` under asan/tsan) and
// `cluster` (runs with `scripts/check.sh cluster` and
// `scripts/check.sh failover`).

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

// Small models only: every node in the fleet must be able to host a
// standby, so failover re-dispatch always has somewhere to go.
constexpr const char* kPool[] = {
    "llama-3.2-1b-fp16",
    "llama-3.2-3b-fp16",
    "deepseek-r1-7b-fp16",
};
constexpr int kPoolSize = 3;

// Node-fault chaos plan. For node.crash and node.partition the rule's
// stall_s is the fault's *duration* (outage length / partition length) and
// the probability is rolled once per heartbeat per node (or per pair), so
// per-beat probabilities stay low: a 0.5s beat over a ~2 minute active
// phase is ~240 rolls per point. The aggressive variant (coverage sweep)
// raises them so every point demonstrably fires within a few seeds.
fault::FaultPlan NodeChaosPlan(sim::Rng& rng, bool aggressive) {
  const double boost = aggressive ? 4.0 : 1.0;
  fault::FaultPlan plan;
  {
    fault::FaultRule rule;
    rule.point = "node.crash";
    rule.probability = rng.Uniform(0.001, 0.006) * boost;
    rule.fail = true;
    rule.stall_s = rng.Uniform(3.0, 15.0);  // outage before reboot starts
    rule.code = StatusCode::kUnavailable;
    plan.rules.push_back(std::move(rule));
  }
  {
    fault::FaultRule rule;
    rule.point = "node.partition";
    // fail=true blackholes the pair; a stall-only rule degrades it 8x.
    rule.probability = rng.Uniform(0.001, 0.006) * boost;
    rule.fail = rng.Bernoulli(0.5);
    rule.stall_s = rng.Uniform(2.0, 10.0);  // partition length
    rule.code = StatusCode::kUnavailable;
    plan.rules.push_back(std::move(rule));
  }
  {
    fault::FaultRule rule;
    rule.point = "node.restart";
    // Evaluated once per reboot attempt, not per beat: a failed roll costs
    // another node_restart_s, so even 0.5 only stretches the outage.
    rule.probability = rng.Uniform(0.1, 0.5);
    rule.fail = true;
    rule.code = StatusCode::kUnavailable;
    plan.rules.push_back(std::move(rule));
  }
  return plan;
}

struct FleetOutcome {
  std::uint64_t accepted = 0;
  std::uint64_t terminal_done = 0;
  std::uint64_t terminal_error = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failovers = 0;
  std::uint64_t redispatched = 0;
  std::uint64_t redispatch_dropped = 0;
  std::uint64_t standby_promotions = 0;
  std::uint64_t node_restart_failures = 0;
  std::uint64_t partitions = 0;
  std::uint64_t crashes = 0;
  std::uint64_t boots = 0;
  std::uint64_t repairs_launched = 0;
  std::uint64_t repairs_completed = 0;
  std::uint64_t repairs_failed = 0;
  std::uint64_t crash_fires = 0;
  std::uint64_t partition_fires = 0;
  std::uint64_t restart_fires = 0;

  bool operator==(const FleetOutcome&) const = default;
};

FleetOutcome RunNodeChaos(std::uint64_t seed, int n_requests,
                          bool aggressive) {
  sim::Simulation sim;
  model::ModelCatalog catalog = model::ModelCatalog::Default();
  sim::Rng rng(seed);

  core::Config cfg;
  cfg.cluster.nodes = 3;
  cfg.cluster.replicate = 2;
  cfg.cluster.migration = true;
  cfg.cluster.migrate_interval_s = 0.5;
  cfg.cluster.migrate_hysteresis = 1.2;
  // Fast detection so short chaos outages walk the full membership state
  // machine: suspect after two silent beats, down after six.
  cfg.cluster.heartbeat_interval_s = 0.5;
  cfg.cluster.suspect_after_s = 1.0;
  cfg.cluster.down_after_s = 3.0;
  cfg.cluster.node_restart_s = 4.0;
  cfg.cluster.repair_interval_s = 1.0;
  cfg.cluster.repair_concurrency = 2;
  // Deep queues: this suite's loss budget is failover re-dispatch, not
  // queue overflow, so keep admission out of the picture.
  cfg.global.queue_capacity = 64;
  cfg.fault.seed = seed;
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
  fault::FaultPlan plan = NodeChaosPlan(rng, aggressive);
  ClusterServe cluster(sim, cfg, catalog);

  FleetOutcome out;
  sim::Spawn([&]() -> sim::Task<> {
    // Cold-start with the plan unarmed: a node dying mid-Initialize is a
    // deployment failure, not a serving fault domain. Arm each node's
    // injector right after — every node.* point draws from the involved
    // node's own derived stream.
    SWAP_CHECK((co_await cluster.Initialize()).ok());
    for (int i = 0; i < cluster.nodes(); ++i) {
      cluster.node(i).serve().fault_injector().Configure(plan);
    }

    for (int i = 0; i < n_requests; ++i) {
      if (i % 4 == 0) {
        co_await sim.Delay(sim::Seconds(rng.Exponential(2.0)));
      }
      core::InferenceRequest req;
      req.model = kPool[rng.UniformInt(0, kPoolSize - 1)];
      req.prompt_tokens = rng.UniformInt(8, 256);
      req.max_tokens = rng.UniformInt(32, 256);
      Result<core::ResponseChannelPtr> ch = cluster.Accept(std::move(req));
      if (!ch.ok()) {
        // Every replica of the model sits on dead/suspect nodes right now:
        // admission says so instead of queueing into a black hole.
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
    // Keep the plan armed past the traffic so crashes also land on an idle
    // fleet (repair and rejoin run with no demand to mask them).
    co_await sim.Delay(sim::Seconds(60));
    // Bank the per-point fire counts (Configure resets them), then disarm
    // so every pending outage is finite and the fleet can settle.
    for (int i = 0; i < cluster.nodes(); ++i) {
      fault::FaultInjector& inj = cluster.node(i).serve().fault_injector();
      out.crash_fires += inj.fires("node.crash");
      out.partition_fires += inj.fires("node.partition");
      out.restart_fires += inj.fires("node.restart");
      inj.Configure(fault::FaultPlan{});
    }
    co_await sim.Delay(sim::Minutes(30));  // reboots, repair, rejoin, drain
    cluster.Shutdown();
  });
  sim.Run();

  // --- fleet invariants --------------------------------------------------
  // Nothing lost, nothing doubled: failover re-dispatch moves the queued
  // request with its response channel attached, and the drop path closes
  // the channel with a terminal error.
  EXPECT_EQ(out.terminal_done + out.terminal_error, out.accepted)
      << "request lost across node failover (seed " << seed << ")";
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (int i = 0; i < cluster.nodes(); ++i) {
    completed += cluster.node(i).serve().metrics().TotalCompleted();
    failed += cluster.node(i).serve().metrics().TotalFailed();
  }
  EXPECT_EQ(out.accepted, completed + failed + cluster.redispatch_dropped())
      << "fleet balance broken (seed " << seed << ")";
  EXPECT_EQ(out.terminal_done, completed);

  // With the plan disarmed every outage is finite: the whole fleet is back
  // up, heard, and healthy after the drain, and every crash rebooted.
  for (int i = 0; i < cluster.nodes(); ++i) {
    EXPECT_TRUE(cluster.node(i).alive())
        << "node" << i << " never rebooted (seed " << seed << ")";
    EXPECT_EQ(cluster.node(i).membership(), NodeState::kHealthy)
        << "node" << i << " not re-adopted (seed " << seed << ")";
    EXPECT_EQ(cluster.node(i).crashes(), cluster.node(i).boots())
        << "node" << i << " crash without reboot (seed " << seed << ")";
    out.crashes += cluster.node(i).crashes();
    out.boots += cluster.node(i).boots();
  }

  // Both transfer ledgers drain on every path: background replication,
  // urgent failover fetches, and repair copies all settle.
  SWAP_CHECK(cluster.replicator() != nullptr);
  EXPECT_EQ(cluster.replicator()->in_flight(), 0)
      << "leaked in-flight fetch (seed " << seed << ")";
  EXPECT_EQ(cluster.replicator()->in_flight_bytes().count(), 0)
      << "leaked in-flight fetch bytes (seed " << seed << ")";
  SWAP_CHECK(cluster.repairer() != nullptr);
  EXPECT_EQ(cluster.repairer()->in_flight(), 0)
      << "leaked repair fetch (seed " << seed << ")";

  out.failovers = cluster.failovers();
  out.redispatched = cluster.redispatched();
  out.redispatch_dropped = cluster.redispatch_dropped();
  out.standby_promotions = cluster.standby_promotions();
  out.node_restart_failures = cluster.node_restart_failures();
  SWAP_CHECK(cluster.fabric() != nullptr);
  out.partitions = cluster.fabric()->partitions();
  out.repairs_launched = cluster.repairer()->launched();
  out.repairs_completed = cluster.repairer()->completed();
  out.repairs_failed = cluster.repairer()->failed();
  return out;
}

class NodeChaosProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NodeChaosProperty, FleetInvariantsHoldUnderNodeFaults) {
  FleetOutcome out = RunNodeChaos(GetParam(), 20, /*aggressive=*/false);
  EXPECT_GT(out.accepted + out.rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, NodeChaosProperty,
    ::testing::Range(std::uint64_t{0}, std::uint64_t{100}));

// Guard against a sweep of quiet runs: across an aggressive prefix of the
// seed range all three node.* points must actually fire, crashes must walk
// through detection to failover, and repair must restore copies.
TEST(NodeChaosSweepSummary, NodeFaultPointsActuallyFire) {
  FleetOutcome totals;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    FleetOutcome out = RunNodeChaos(seed, 20, /*aggressive=*/true);
    totals.crash_fires += out.crash_fires;
    totals.partition_fires += out.partition_fires;
    totals.restart_fires += out.restart_fires;
    totals.crashes += out.crashes;
    totals.boots += out.boots;
    totals.failovers += out.failovers;
    totals.redispatched += out.redispatched;
    totals.standby_promotions += out.standby_promotions;
    totals.node_restart_failures += out.node_restart_failures;
    totals.partitions += out.partitions;
    totals.repairs_launched += out.repairs_launched;
    totals.repairs_completed += out.repairs_completed;
  }
  EXPECT_GT(totals.crash_fires, 0u);
  EXPECT_GT(totals.partition_fires, 0u);
  EXPECT_GT(totals.restart_fires, 0u);
  EXPECT_GT(totals.crashes, 0u);
  EXPECT_EQ(totals.crashes, totals.boots);
  EXPECT_GT(totals.failovers, 0u);
  EXPECT_GT(totals.partitions, 0u);
  EXPECT_GT(totals.node_restart_failures, 0u);
  EXPECT_GT(totals.repairs_launched, 0u);
  EXPECT_GT(totals.repairs_completed, 0u);
}

TEST(NodeChaosDeterminismTest, IdenticalSeedsGiveIdenticalFleets) {
  for (std::uint64_t seed : {3ull, 41ull, 97ull}) {
    FleetOutcome a = RunNodeChaos(seed, 20, /*aggressive=*/false);
    FleetOutcome b = RunNodeChaos(seed, 20, /*aggressive=*/false);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

}  // namespace
}  // namespace swapserve::cluster
