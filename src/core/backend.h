// Backend: the per-model serving unit SwapServeLLM hot-swaps.
//
// Bundles the inference engine, its request queue, the §3.5 write-lock
// (shared = request forwarding, exclusive = swap operations), LRU metadata,
// and the snapshot handle while swapped out.

#pragma once

#include <memory>
#include <string>

#include "ckpt/snapshot_store.h"
#include "core/config.h"
#include "core/types.h"
#include "engine/engine.h"
#include "fault/circuit_breaker.h"
#include "obs/observability.h"
#include "sim/channel.h"
#include "sim/sync.h"

namespace swapserve::core {

// Supervisor-maintained health record. Healthy backends serve normally;
// Degraded ones just recovered (first success re-promotes them);
// Quarantined ones fast-fail requests until the breaker's cooldown admits
// a probe; Recovering marks an in-flight supervisor restart.
struct BackendHealth {
  enum class State { kHealthy, kDegraded, kQuarantined, kRecovering };

  explicit BackendHealth(sim::Simulation& sim)
      : breaker(sim, /*failure_threshold=*/3, sim::Seconds(10)) {}

  State state = State::kHealthy;
  fault::CircuitBreaker breaker;
  // When the backend last became resident (swap-in, cold start, or
  // restart); drives age-based rejuvenation.
  sim::SimTime last_resident;
  std::uint64_t recoveries = 0;   // successful supervisor restarts
  std::uint64_t quarantines = 0;  // transitions into kQuarantined
};

inline std::string_view HealthStateName(BackendHealth::State s) {
  switch (s) {
    case BackendHealth::State::kHealthy: return "healthy";
    case BackendHealth::State::kDegraded: return "degraded";
    case BackendHealth::State::kQuarantined: return "quarantined";
    case BackendHealth::State::kRecovering: return "recovering";
  }
  return "?";
}

struct Backend {
  Backend(sim::Simulation& sim, ModelEntry entry, model::ModelSpec spec,
          std::unique_ptr<engine::InferenceEngine> eng,
          std::size_t queue_capacity)
      : config(std::move(entry)),
        model(std::move(spec)),
        engine(std::move(eng)),
        queue(std::make_unique<sim::Channel<QueuedRequest>>(sim,
                                                            queue_capacity)),
        lock(sim, "backend:" + config.model_id),
        swap_done(sim),
        health(sim) {}

  const std::string& name() const { return config.model_id; }
  hw::GpuId gpu() const { return config.gpu; }
  // Device ids the backend's tensor-parallel group occupies:
  // [gpu, gpu + tp).
  std::vector<hw::GpuId> GpuIds() const {
    std::vector<hw::GpuId> out;
    for (int i = 0; i < config.tp; ++i) out.push_back(config.gpu + i);
    return out;
  }
  bool OnGpu(hw::GpuId id) const {
    return id >= config.gpu && id < config.gpu + config.tp;
  }

  // Demand metric for the preemption policy's first tier: requests queued
  // plus requests currently being served.
  std::size_t Demand() const {
    return queue->size() +
           static_cast<std::size_t>(engine->active_requests());
  }

  ModelEntry config;
  model::ModelSpec model;
  std::unique_ptr<engine::InferenceEngine> engine;
  std::unique_ptr<sim::Channel<QueuedRequest>> queue;

  // Forwarding holds shared access; swap-in/out take exclusive access, so a
  // preemption naturally waits for in-flight generations to drain and no
  // request is forwarded into a half-checkpointed engine.
  sim::SimRwLock lock;

  // LRU tie-breaker metadata (tier 2 of the preemption policy), updated by
  // the request handler on every accepted request.
  sim::SimTime last_accessed;

  // Valid while the backend is swapped out.
  ckpt::SnapshotId snapshot = 0;
  bool has_snapshot = false;
  Bytes resident_bytes{0};  // GPU footprint to re-reserve on swap-in

  // Swap-in deduplication: concurrent triggers await the in-flight one.
  bool swap_in_progress = false;
  sim::SimEvent swap_done;

  // Self-healing state (supervisor + circuit breaker).
  BackendHealth health;

  // Per-event registry series labelled with this backend's model, shared
  // by the request handler, model worker and scheduler. No-ops until
  // BindObservability.
  struct Series {
    obs::GaugeHandle queue_depth;
    obs::HistogramHandle queue_wait;
    obs::HistogramHandle reservation_wait;
    obs::CounterHandle stream_chunks;
    // swapserve_swap_latency_seconds{direction,model}, recorded through
    // Metrics::RecordSwapOut / RecordSwapIn.
    obs::HistogramHandle swap_out_latency;
    obs::HistogramHandle swap_in_latency;
  };
  Series series;

  void BindObservability(obs::Observability* obs) {
    series = Series{
        .queue_depth = {obs, "swapserve_queue_depth", {{"model", name()}}},
        .queue_wait = {obs, "swapserve_queue_wait_seconds",
                       {{"model", name()}}},
        .reservation_wait = {obs, "swapserve_reservation_wait_seconds",
                             {{"model", name()}}},
        .stream_chunks = {obs, "swapserve_stream_chunks_total",
                          {{"model", name()}}},
        .swap_out_latency = {obs, "swapserve_swap_latency_seconds",
                             {{"direction", "out"}, {"model", name()}}},
        .swap_in_latency = {obs, "swapserve_swap_latency_seconds",
                            {{"direction", "in"}, {"model", name()}}},
    };
  }
};

}  // namespace swapserve::core
