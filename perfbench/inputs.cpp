#include "inputs.h"

#include <algorithm>
#include <memory>

#include "workload/arrival.h"
#include "workload/request_gen.h"
#include "workload/trace.h"

namespace perfbench {
namespace {

using swapserve::workload::ConstantRate;
using swapserve::workload::DiurnalRate;
using swapserve::workload::MmppRate;
using swapserve::workload::ModelWorkload;
using swapserve::workload::RateCurve;
using swapserve::workload::RequestProfile;
using swapserve::workload::TraceEvent;

constexpr double kDay = 86400.0;

// One served model: catalog id, engine, home placement, arrival rate.
struct ModelSpec {
  const char* id;
  const char* engine;
  double rate;  // meaning depends on the workload (see the tables below)
  int node = 0;
  int gpu = 0;
};

// month_sparse: bench_fig3_utilization's six Ollama models on one H100.
// `rate` is unused: every model gets the Fig. 3 MMPP.
constexpr ModelSpec kMonthModels[] = {
    {"deepseek-r1-14b-q8", "ollama", 0},
    {"deepseek-r1-7b-q8", "ollama", 0},
    {"deepseek-r1-8b-q8", "ollama", 0},
    {"deepseek-coder-6.7b-fp16", "ollama", 0},
    {"llama-3.2-3b-fp16", "ollama", 0},
    {"llama-3.2-1b-fp16", "ollama", 0},
};

// swap_storm: the consolidation pool oversubscribing one H100. `rate` is
// the base rps of each model's coding-shaped diurnal curve; the three
// non-Ollama engines run at a fifth of the Ollama rate so the queue stays
// bounded (their swap-ins are several times slower). At these rates about
// a third of requests find their model resident, so the TTFT median sits
// well inside the swap-wait mode instead of on the boundary between modes.
constexpr ModelSpec kStormModels[] = {
    {"llama-3.2-1b-fp16", "ollama", 0.15},
    {"llama-3.2-3b-fp16", "ollama", 0.15},
    {"deepseek-coder-6.7b-fp16", "ollama", 0.15},
    {"deepseek-r1-7b-fp16", "vllm", 0.03},
    {"llama-3.1-8b-fp16", "sglang", 0.03},
    {"gemma-7b-fp16", "ollama", 0.15},
    {"deepseek-r1-8b-fp16", "ollama", 0.15},
    {"deepseek-r1-14b-q8", "ollama", 0.15},
    {"deepseek-r1-7b-q8", "ollama", 0.15},
    {"deepseek-r1-14b-q4", "ollama", 0.15},
    {"llama-3.2-1b-q8", "trtllm", 0.03},
    {"llama-3.2-3b-q8", "ollama", 0.15},
};

// fleet_chaos: six models homed across a 3-node fleet (GPUs {2, 1, 1}).
// `rate` is each model's constant Poisson rate (rps).
constexpr ModelSpec kFleetModels[] = {
    {"llama-3.2-1b-fp16", "vllm", 0.3, 0, 0},
    {"llama-3.2-3b-fp16", "ollama", 0.3, 0, 1},
    {"deepseek-r1-7b-fp16", "vllm", 0.2, 1, 0},
    {"llama-3.2-1b-q8", "ollama", 0.3, 1, 0},
    {"deepseek-r1-8b-q8", "ollama", 0.2, 2, 0},
    {"llama-3.2-3b-q8", "sglang", 0.2, 2, 0},
};

const std::vector<Workload> kWorkloads = {
    {.name = "month_sparse",
     .front = Front::kRouter,
     .default_seed = 0xf163,  // bench_fig3_utilization's trace seed
     .heldout_seed = 0x5a17,
     .traffic_s = 30 * kDay,
     .drain_s = 3600,
     .ttft_limit_s = 1.0,
     .probe_window_s = 60},
    {.name = "swap_storm",
     .front = Front::kRouter,
     .default_seed = 0xab4,  // bench_abl_consolidation's trace seed
     .heldout_seed = 0x71c3,
     .traffic_s = kDay,
     .drain_s = 1800,
     .ttft_limit_s = 15.0,
     .probe_window_s = 60},
    {.name = "fleet_chaos",
     .front = Front::kCluster,
     .default_seed = 17,  // bench_node_failover's fault seed
     .heldout_seed = 0x2e9d,
     .traffic_s = 4 * 3600,
     .drain_s = 180,
     .ttft_limit_s = 5.0,
     .probe_window_s = 10},
    // fleet_chaos plus the bounded host snapshot cache with prefetch. Not
    // in BENCHMARK.json: on about one seed in five, node crashes leave
    // requests that never reach a terminal outcome and the gate fails
    // (README.md).
    {.name = "fleet_chaos_tiered",
     .front = Front::kCluster,
     .default_seed = 17,
     .heldout_seed = 0x2e9d,
     .traffic_s = 4 * 3600,
     .drain_s = 180,
     .ttft_limit_s = 5.0,
     .probe_window_s = 10},
};

template <std::size_t N>
std::vector<TraceEvent> Trace(const ModelSpec (&models)[N],
                              const std::vector<std::unique_ptr<RateCurve>>&
                                  rates,
                              const RequestProfile& profile, double horizon,
                              std::uint64_t seed) {
  std::vector<ModelWorkload> mix;
  for (std::size_t i = 0; i < N; ++i) {
    mix.push_back({models[i].id, rates[i].get(), &profile});
  }
  return swapserve::workload::GenerateTrace(mix, horizon, seed);
}

std::vector<TraceEvent> MakeTrace(const Workload& w, std::uint64_t seed) {
  std::vector<std::unique_ptr<RateCurve>> rates;
  if (w.name == "month_sparse") {
    // Fig. 3's sporadic academic usage: hours of silence, short bursts.
    std::uint64_t rate_seed = seed;
    for (std::size_t i = 0; i < std::size(kMonthModels); ++i) {
      rates.push_back(std::make_unique<MmppRate>(
          /*quiet_rps=*/0.00012, /*burst_rps=*/0.02,
          /*mean_quiet_s=*/5 * 3600, /*mean_burst_s=*/1200, rate_seed++,
          w.traffic_s));
    }
    return Trace(kMonthModels, rates, RequestProfile::Conversational(),
                 w.traffic_s, seed);
  }
  if (w.name == "swap_storm") {
    for (const ModelSpec& m : kStormModels) {
      rates.push_back(
          std::make_unique<DiurnalRate>(DiurnalRate::CodingPreset(m.rate)));
    }
    return Trace(kStormModels, rates, RequestProfile::ShortQa(), w.traffic_s,
                 seed);
  }
  for (const ModelSpec& m : kFleetModels) {
    rates.push_back(std::make_unique<ConstantRate>(m.rate));
  }
  return Trace(kFleetModels, rates, RequestProfile::Conversational(),
               w.traffic_s, seed);
}

// Message text: `chars` characters of plain prose (no JSON escapes).
std::string_view Filler(std::size_t chars) {
  static const std::string text = [] {
    const std::string_view phrase =
        "please review this function and explain what it returns ";
    std::string s;
    while (s.size() < 65536) s.append(phrase);
    return s;
  }();
  return std::string_view(text).substr(0, chars);
}

// {"model": ..., "messages": [{"role": "user", "content": ...}],
//  "max_tokens": ...} whose prompt estimate (chars / 4 + 4 per message)
// is exactly prompt_tokens; `pad` (0..3) varies the length within it.
std::string ChatBody(const Request& r, std::size_t pad) {
  const auto chars =
      static_cast<std::size_t>(4 * (r.prompt_tokens - 4)) + pad;
  std::string body;
  body.reserve(chars + r.model.size() + 96);
  body.append(R"({"model":")").append(r.model);
  body.append(R"(","messages":[{"role":"user","content":")");
  body.append(Filler(chars));
  body.append(R"("}],"max_tokens":)");
  body.append(std::to_string(r.max_tokens)).append("}");
  return body;
}

template <std::size_t N>
void AddModels(core::Config& cfg, const ModelSpec (&models)[N]) {
  for (const ModelSpec& m : models) {
    core::ModelEntry e;
    e.model_id = m.id;
    e.engine = m.engine;
    e.node = m.node;
    e.gpu = m.gpu;
    // Engines that pre-reserve a share of device memory (vLLM-style)
    // take a quarter of the H100 so the pool still oversubscribes it.
    if (e.engine != "ollama") e.gpu_memory_utilization = 0.25;
    cfg.models.push_back(std::move(e));
  }
}

}  // namespace

const std::vector<Workload>& AllWorkloads() { return kWorkloads; }

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Request> MakeRequests(const Workload& w, std::uint64_t seed) {
  std::vector<TraceEvent> trace = MakeTrace(w, seed);
  std::vector<Request> out;
  out.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    TraceEvent& ev = trace[i];
    Request r;
    r.due_s = ev.time_s;
    r.model = std::move(ev.model_id);
    r.prompt_tokens = ev.prompt_tokens;
    r.max_tokens = ev.output_tokens;
    if (w.front == Front::kRouter) {
      r.prompt_tokens = std::max<std::int64_t>(r.prompt_tokens, 4);
      r.body = ChatBody(r, i % 4);
    }
    out.push_back(std::move(r));
  }
  return out;
}

core::Config MakeConfig(const Workload& w, std::uint64_t seed) {
  core::Config cfg;
  if (w.name == "month_sparse") {
    cfg.global.monitor_interval_s = 300;  // Fig. 3's sampling period
    AddModels(cfg, kMonthModels);
    return cfg;
  }
  if (w.name == "swap_storm") {
    AddModels(cfg, kStormModels);
    return cfg;
  }
  // fleet_chaos: every optional path the other two leave off.
  AddModels(cfg, kFleetModels);
  // Larger reservations than swap_storm's, so a GPU holding its home
  // models plus standby replicas can be oversubscribed and restores evict.
  for (core::ModelEntry& e : cfg.models) {
    if (e.engine != "ollama") e.gpu_memory_utilization = 0.35;
  }
  cfg.global.pipelined_swap = true;
  cfg.global.stream_tokens = true;
  if (w.name == "fleet_chaos_tiered") {
    cfg.global.host_cache_mib = 40 * 1024.0;
    cfg.global.snapshot_prefetch = true;
  }
  // Requested, but ClusterServe does not pass the admission section on to
  // its nodes, so no node constructs an AdmissionController (README.md).
  cfg.admission.enabled = true;
  cfg.admission.default_budget_s = 4.0;
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

fault::FaultPlan ChaosPlan(const Workload& w) {
  fault::FaultPlan plan;
  if (w.front != Front::kCluster) return plan;
  // Whole-node power loss, evaluated once per heartbeat per node; the
  // outage lasts stall_s before the reboot starts.
  fault::FaultRule crash;
  crash.point = "node.crash";
  crash.probability = 0.0005;
  crash.fail = true;
  crash.stall_s = 25.0;
  plan.rules.push_back(std::move(crash));
  return plan;
}

}  // namespace perfbench
