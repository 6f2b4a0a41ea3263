#include "scenario.h"

#include <chrono>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "alloc_count.h"
#include "cluster/cluster.h"
#include "container/runtime.h"
#include "core/router.h"
#include "core/swap_serve.h"
#include "hw/gpu_device.h"
#include "hw/gpu_spec.h"
#include "hw/link.h"
#include "json/document.h"
#include "model/catalog.h"
#include "sim/simulation.h"
#include "util/stats.h"

namespace perfbench {
namespace {

namespace cluster = swapserve::cluster;
namespace container = swapserve::container;
namespace hw = swapserve::hw;
namespace json = swapserve::json;
namespace model = swapserve::model;
namespace obs = swapserve::obs;
namespace sim = swapserve::sim;
using swapserve::Result;
using swapserve::Samples;
using swapserve::Status;
using swapserve::StatusCode;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The single-node workloads' server: bench_fig3_utilization's machine, one
// H100 with the H100 host's NVMe volume.
struct Machine {
  explicit Machine(sim::Simulation& sim)
      : host(hw::HostSpec::H100Host()),
        storage(sim, "nvme", host.disk_read, sim::Seconds(0.1)),
        runtime(sim, container::ImageRegistry::WithDefaultImages()),
        gpu(sim, 0, hw::GpuSpec::H100Hbm3_80GB()) {}

  hw::HostSpec host;
  hw::StorageDevice storage;
  container::ContainerRuntime runtime;
  hw::GpuDevice gpu;
};

// The program under test: one SwapServe behind its router, or a fleet.
struct Program {
  Program(sim::Simulation& sim, const Workload& w, core::Config config,
          const model::ModelCatalog& catalog) {
    if (w.front == Front::kCluster) {
      fleet = std::make_unique<cluster::ClusterServe>(sim, std::move(config),
                                                      catalog);
      for (int i = 0; i < fleet->nodes(); ++i) {
        cluster::Node& node = fleet->node(i);
        Node& view = nodes.emplace_back(Node{&node.serve(), {}});
        for (const auto& gpu : node.gpus()) view.gpus.push_back(gpu.get());
      }
      return;
    }
    machine = std::make_unique<Machine>(sim);
    core::Hardware hardware;
    hardware.gpus = {&machine->gpu};
    hardware.storage = &machine->storage;
    hardware.runtime = &machine->runtime;
    serve = std::make_unique<core::SwapServe>(sim, std::move(config), catalog,
                                              hardware);
    nodes.push_back(Node{serve.get(), {&machine->gpu}});
  }

  sim::Task<Status> Initialize() {
    if (fleet != nullptr) co_return co_await fleet->Initialize();
    co_return co_await serve->Initialize();
  }
  void Shutdown() {
    if (fleet != nullptr) {
      fleet->Shutdown();
    } else {
      serve->Shutdown();
    }
  }
  std::size_t InFlight() const {
    std::size_t n = 0;
    for (const Node& node : nodes) n += node.serve->InFlight();
    return n;
  }
  void ConfigureFaults(const fault::FaultPlan& plan) {
    for (Node& node : nodes) node.serve->fault_injector().Configure(plan);
  }

  std::unique_ptr<Machine> machine;          // router front only
  std::unique_ptr<core::SwapServe> serve;    // router front only
  std::unique_ptr<cluster::ClusterServe> fleet;  // cluster front only
  // One machine each; GPU (and so link) names repeat across machines.
  struct Node {
    core::SwapServe* serve;
    std::vector<hw::GpuDevice*> gpus;
  };
  std::vector<Node> nodes;
};

// What the benchmark itself saw of every request.
struct Tally {
  explicit Tally(std::size_t n) : terminal(n, 0) {}

  std::vector<std::uint8_t> terminal;  // terminal outcomes per request
  std::uint64_t completed = 0;
  std::uint64_t errored = 0;   // kError chunk on the response channel
  std::uint64_t rejected = 0;  // refused at submit: queue full
  std::uint64_t shed = 0;      // refused at submit: admission control
  std::uint64_t unroutable = 0;  // refused by the cluster: no eligible node
  std::uint64_t invalid = 0;   // refused for any other reason (a bug)
  std::uint64_t late = 0;      // submitted at another time than due
  std::uint64_t after_terminal = 0;  // chunks after kDone/kError
  std::uint64_t within_limit = 0;
  Samples ttft;
  Samples chunk_gaps;  // traced run, streaming workloads only
};

sim::Task<> Collect(sim::Simulation* sim, Tally* tally, std::size_t i,
                    core::ResponseChannelPtr channel, double limit_s,
                    bool gaps) {
  std::optional<sim::SimTime> last_chunk;
  while (std::optional<core::ResponseChunk> chunk = co_await channel->Recv()) {
    if (tally->terminal[i] != 0) ++tally->after_terminal;
    switch (chunk->kind) {
      case core::ResponseChunk::Kind::kFirstToken:
      case core::ResponseChunk::Kind::kTokens:
        if (gaps) {
          if (last_chunk) {
            tally->chunk_gaps.Add((sim->Now() - *last_chunk).ToSeconds());
          }
          last_chunk = sim->Now();
        }
        break;
      case core::ResponseChunk::Kind::kDone:
        ++tally->terminal[i];
        ++tally->completed;
        tally->ttft.Add(chunk->ttft_s);
        if (chunk->ttft_s <= limit_s) ++tally->within_limit;
        break;
      case core::ResponseChunk::Kind::kError:
        ++tally->terminal[i];
        ++tally->errored;
        break;
    }
  }
}

bool HasLabel(const obs::MetricsRegistry::Instrument& inst,
              std::string_view key, std::string_view value) {
  for (const auto& [k, v] : inst.labels) {
    if (k == key) return v == value;
  }
  return false;
}

// Sum of a counter family's series, optionally only those whose label
// `key` is (or, with `negate`, is not) `value`.
double CounterSum(const obs::MetricsRegistry& reg, const std::string& name,
                  std::string_view key = {}, std::string_view value = {},
                  bool negate = false) {
  auto it = reg.families().find(name);
  if (it == reg.families().end()) return 0;
  double sum = 0;
  for (const auto& [label_key, inst] : it->second.series) {
    if (!key.empty() && HasLabel(inst, key, value) == negate) continue;
    if (inst.counter) sum += inst.counter->value();
  }
  return sum;
}

struct HistTotal {
  double sum = 0;
  std::uint64_t count = 0;
};

void AddHistogram(const obs::MetricsRegistry& reg, const std::string& name,
                  HistTotal& total) {
  auto it = reg.families().find(name);
  if (it == reg.families().end()) return;
  for (const auto& [label_key, inst] : it->second.series) {
    if (!inst.histogram) continue;
    total.sum += inst.histogram->sum();
    total.count += inst.histogram->count();
  }
}

// When `r` is due. Same arithmetic as bench_fig3_utilization, so the month
// reproduces its row exactly.
sim::SimTime DueTime(double start_s, const Request& r) {
  return sim::SimTime(static_cast<std::int64_t>((start_s + r.due_s) * 1e9));
}

void Fail(RepResult& r, std::string what) {
  r.failures.push_back(std::move(what));
}

void Expect(RepResult& r, const char* what, double seen, double counted) {
  if (seen != counted) {
    Fail(r, std::string(what) + ": benchmark saw " + std::to_string(seen) +
                ", program counted " + std::to_string(counted));
  }
}

// Every body must estimate back to its trace event's prompt_tokens.
void CheckBodies(const std::vector<Request>& requests, RepResult& r) {
  json::Document doc;
  std::string buffer;
  std::uint64_t bad = 0;
  for (const Request& req : requests) {
    buffer = req.body;
    if (!doc.ParseInSitu(buffer).ok() ||
        core::OpenAiRouter::EstimatePromptTokens(
            doc.root().Find("messages")) != req.prompt_tokens) {
      ++bad;
    }
  }
  if (bad > 0) {
    Fail(r, std::to_string(bad) +
                " JSON bodies do not estimate to their prompt_tokens");
  }
}

}  // namespace

RepResult RunRep(const Workload& w, std::uint64_t seed,
                 const RepOptions& options) {
  RepResult r;
  const Clock::time_point t_gen = Clock::now();
  const std::vector<Request> requests = MakeRequests(w, seed);
  const double gen_s = SecondsSince(t_gen);

  const Clock::time_point t_build = Clock::now();
  const model::ModelCatalog catalog = model::ModelCatalog::Default();
  sim::Simulation sim;
  const core::Config config = MakeConfig(w, seed);
  Program program(sim, w, config, catalog);
  for (Program::Node& node : program.nodes) {
    node.serve->obs().trace.set_enabled(options.trace_enabled);
  }
  const fault::FaultPlan chaos = ChaosPlan(w);
  const std::size_t n = requests.size();
  const bool streaming = config.global.stream_tokens;

  Tally tally(n);
  Clock::time_point t_serve{};
  std::uint64_t events_at_serve = 0;
  std::uint64_t allocs_at_serve = 0;
  bool serving = false;
  double start_s = 0;
  double shutdown_s = 0;
  double submit_host_s = 0;
  std::uint64_t submit_allocs = 0;

  sim::Spawn([&]() -> sim::Task<> {
    const Status init = co_await program.Initialize();
    if (!init.ok()) {
      Fail(r, "Initialize: " + init.ToString());
      co_return;
    }
    t_serve = Clock::now();
    events_at_serve = sim.processed_events();
    allocs_at_serve = AllocCount();
    if (!chaos.empty()) program.ConfigureFaults(chaos);
    start_s = sim.Now().ToSeconds();
    serving = true;
    for (std::size_t i = 0; i < n; ++i) {
      const Request& req = requests[i];
      const sim::SimTime due = DueTime(start_s, req);
      co_await sim.WaitUntil(due);
      if (sim.Now() != due) ++tally.late;

      Clock::time_point t0{};
      std::uint64_t a0 = 0;
      if (options.probes) {
        a0 = AllocCount();
        t0 = Clock::now();
      }
      Result<core::ResponseChannelPtr> channel = [&] {
        if (program.fleet == nullptr) {
          return program.serve->router().ChatCompletions(req.body);
        }
        core::InferenceRequest ir;
        ir.model = req.model;
        ir.prompt_tokens = req.prompt_tokens;
        ir.max_tokens = req.max_tokens;
        return program.fleet->Accept(std::move(ir));
      }();
      if (options.probes) {
        submit_host_s += SecondsSince(t0);
        submit_allocs += AllocCount() - a0;
      }

      if (!channel.ok()) {
        ++tally.terminal[i];
        const Status& st = channel.status();
        if (program.fleet != nullptr &&
            st.code() == StatusCode::kUnavailable) {
          ++tally.unroutable;
        } else if (st.code() != StatusCode::kResourceExhausted) {
          ++tally.invalid;
        } else if (st.message().rfind("admission:", 0) == 0) {
          ++tally.shed;
        } else {
          ++tally.rejected;
        }
        continue;
      }
      sim::Spawn(Collect(&sim, &tally, i, std::move(*channel),
                         w.ttft_limit_s, options.probes && streaming));
    }
    if (!chaos.empty()) program.ConfigureFaults(fault::FaultPlan{});
    co_await sim.Delay(sim::Seconds(w.drain_s));
    shutdown_s = sim.Now().ToSeconds();
    program.Shutdown();
  });

  // --- serve -------------------------------------------------------------
  std::uint64_t idle_windows = 0;
  std::uint64_t idle_events = 0;
  double idle_host_s = 0;
  if (!options.probes) {
    sim.Run();
  } else {
    const sim::SimDuration window = sim::Seconds(w.probe_window_s);
    std::size_t next = 0;  // first request due at or after the window
    while (sim.HasPendingEvents()) {
      const sim::SimTime a = sim.Now();
      const sim::SimTime b = a + window;
      bool idle = false;
      if (serving) {
        while (next < n && DueTime(start_s, requests[next]) < a) ++next;
        idle = (next == n || DueTime(start_s, requests[next]) >= b) &&
               program.InFlight() == 0;
      }
      const std::uint64_t e0 = sim.processed_events();
      const Clock::time_point t0 = Clock::now();
      sim.RunUntil(b);
      if (idle) {
        ++idle_windows;
        idle_events += sim.processed_events() - e0;
        idle_host_s += SecondsSince(t0);
      }
    }
  }
  if (!serving) {
    Fail(r, "serving never started");
    return r;
  }
  const double serve_s = SecondsSince(t_serve);
  const double setup_s =
      std::chrono::duration<double>(t_serve - t_gen).count();
  const std::uint64_t serve_events = sim.processed_events() - events_at_serve;
  const std::uint64_t serve_allocs = AllocCount() - allocs_at_serve;
  const double attempted = static_cast<double>(n);
  const double completed = static_cast<double>(tally.completed);
  const double traffic_end_s = start_s + w.traffic_s;

  // --- host time ---------------------------------------------------------
  r.host["workload.gen_s"] = gen_s;
  r.host["setup.init_host_s"] =
      std::chrono::duration<double>(t_serve - t_build).count();
  r.host["setup_s"] = setup_s;
  r.host["serve_s"] = serve_s;
  r.host["host_us_per_req"] = serve_s * 1e6 / attempted;
  r.host["sim.host_ns_per_event"] =
      serve_s * 1e9 / static_cast<double>(serve_events);
  r.allocs["sim.allocs_per_req"] =
      static_cast<double>(serve_allocs) / attempted;
  if (options.probes) {
    const double idle_h = static_cast<double>(idle_windows) *
                          w.probe_window_s / 3600.0;
    if (idle_windows > 0) {
      r.exact["control.idle_events_per_sim_h"] =
          static_cast<double>(idle_events) / idle_h;
      r.host["control.idle_host_us_per_sim_h"] = idle_host_s * 1e6 / idle_h;
    }
    r.host["control.idle_wall_share"] = idle_host_s / serve_s;
    const char* front = program.fleet != nullptr
                            ? "cluster.accept_host_us_per_call"
                            : "router.host_us_per_call";
    r.host[front] = submit_host_s * 1e6 / attempted;
    if (program.fleet == nullptr) {
      r.allocs["router.allocs_per_call"] =
          static_cast<double>(submit_allocs) / attempted;
    }
    if (tally.chunk_gaps.count() > 0) {
      r.exact["engine.chunk_gap_p99_s"] = tally.chunk_gaps.P99();
    }
  }

  // --- program counters ------------------------------------------------
  std::uint64_t m_completed = 0, m_rejected = 0, m_shed = 0, m_errors = 0;
  std::uint64_t swap_ins = 0, swap_overs = 0, preemptions = 0;
  std::uint64_t resident = 0, after_swap = 0;
  std::uint64_t recoveries = 0, requeues = 0, swap_retries = 0;
  std::uint64_t trace_events = 0, trace_dropped = 0, series = 0;
  std::uint64_t monitor_samples = 0;
  std::int64_t output_tokens = 0;
  double swap_wait_sum = 0, ttft_sum = 0, cold_starts = 0, chunks = 0;
  double link_busy_s = 0, router_refused = 0, router_accepted = 0;
  double mem_gib = 0, util_sum = 0;
  Samples program_ttft, swap_in_s, swap_out_s;
  HistTotal queue_wait, reservation_wait, overlap_ratio;
  std::uint64_t tier_host_hits = 0, tier_misses = 0, tier_promotions = 0,
                tier_demotions = 0, tier_prefetches = 0,
                tier_prefetch_hits = 0;
  bool tiered = false;
  double h2d_bytes = 0, d2h_bytes = 0;
  std::size_t gpu_count = 0;
  for (const Program::Node& node : program.nodes) {
    core::SwapServe* s = node.serve;
    const core::Metrics& m = s->metrics();
    m_completed += m.TotalCompleted();
    m_rejected += m.TotalRejected();
    m_shed += m.TotalShed();
    m_errors += m.TotalFailed();  // failed + expired
    swap_ins += m.swap_ins;
    swap_overs += m.swap_overs;
    preemptions += m.preemptions;
    recoveries += m.recoveries;
    requeues += m.requeues;
    swap_retries += m.swap_retries;
    output_tokens += m.TotalOutputTokens();
    for (const auto& [name, mm] : m.per_model()) {
      resident += mm.served_resident;
      after_swap += mm.served_after_swap_in;
      for (double v : mm.swap_wait_s.values()) swap_wait_sum += v;
      for (double v : mm.ttft_s.values()) {
        ttft_sum += v;
        program_ttft.Add(v);
      }
    }
    for (double v : m.swap_in_latency_s.values()) swap_in_s.Add(v);
    for (double v : m.swap_out_latency_s.values()) swap_out_s.Add(v);

    const obs::MetricsRegistry& reg = s->obs().metrics;
    trace_events += s->obs().trace.total_emitted();
    trace_dropped += s->obs().trace.dropped();
    series += reg.series_count();
    cold_starts +=
        CounterSum(reg, "swapserve_recovery_total", "kind", "cold_fallback");
    chunks += CounterSum(reg, "swapserve_stream_chunks_total");
    router_accepted += CounterSum(reg, "swapserve_router_requests_total",
                                  "outcome", "accepted");
    router_refused += CounterSum(reg, "swapserve_router_requests_total",
                                 "outcome", "accepted", /*negate=*/true);
    AddHistogram(reg, "swapserve_queue_wait_seconds", queue_wait);
    AddHistogram(reg, "swapserve_reservation_wait_seconds",
                 reservation_wait);
    AddHistogram(reg, "swapserve_swap_overlap_ratio", overlap_ratio);

    for (std::size_t g = 0; g < s->monitor().gpu_count(); ++g) {
      const auto& mem = s->monitor().MemorySeries(g);
      monitor_samples += mem.size();
      mem_gib += mem.TimeWeightedMean(start_s, traffic_end_s);
      util_sum += s->monitor().UtilizationSeries(g).TimeWeightedMean(
          start_s, traffic_end_s);
    }
    if (const auto* tier = s->tier_manager(); tier != nullptr) {
      tiered = true;
      tier_host_hits += tier->host_hits();
      tier_misses += tier->nvme_misses();
      tier_promotions += tier->promotions();
      tier_demotions += tier->demotions();
      tier_prefetches += tier->prefetch_issued();
      tier_prefetch_hits += tier->prefetch_hits();
    }
    for (hw::GpuDevice* gpu : node.gpus) {
      ++gpu_count;
      for (hw::Link* link : {&gpu->pcie().h2d(), &gpu->pcie().d2h()}) {
        const double bytes =
            static_cast<double>(link->total_transferred().count());
        (link == &gpu->pcie().h2d() ? h2d_bytes : d2h_bytes) += bytes;
        link_busy_s += CounterSum(reg, "swapserve_link_busy_seconds_total",
                                  "link", link->name());
      }
    }
  }
  constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
  const double gpus = static_cast<double>(gpu_count);

  // --- end-to-end (virtual) ------------------------------------------------
  auto& x = r.exact;
  x["attempted"] = attempted;
  x["completed"] = completed;
  x["ttft_samples"] = static_cast<double>(tally.ttft.count());
  if (tally.ttft.count() > 0) {
    x["ttft_p50_s"] = tally.ttft.Median();
    x["ttft_p99_s"] = tally.ttft.P99();
  }
  x["slo_attainment"] = static_cast<double>(tally.within_limit) / attempted;
  x["completed_share"] = completed / attempted;
  x["gpu_mem_gib_mean"] = mem_gib;
  x["outcome.error_rate"] = (attempted - completed) / attempted;

  // --- per layer (virtual time and counts) --------------------------------
  x["sim.events"] = static_cast<double>(serve_events);
  x["sim.events_per_req"] = static_cast<double>(serve_events) / attempted;
  x["sim.oversized_payloads"] =
      static_cast<double>(sim.alloc_stats().oversized_payloads);
  x["control.monitor_samples"] = static_cast<double>(monitor_samples);
  x["control.recoveries"] = static_cast<double>(recoveries);
  x["control.requeues"] = static_cast<double>(requeues);
  x["control.swap_retries"] = static_cast<double>(swap_retries);
  if (program.fleet == nullptr) {
    double body_bytes = 0;
    for (const Request& req : requests) {
      body_bytes += static_cast<double>(req.body.size());
    }
    x["router.body_bytes_mean"] = body_bytes / attempted;
    x["router.rejected"] = router_refused;
  }
  if (program.nodes.front().serve->admission() != nullptr) {
    x["admission.shed_share"] = static_cast<double>(m_shed) / attempted;
  }
  if (queue_wait.count > 0) {
    x["sched.queue_wait_mean_s"] =
        queue_wait.sum / static_cast<double>(queue_wait.count);
  }
  if (reservation_wait.count > 0) {
    x["sched.reservation_wait_mean_s"] =
        reservation_wait.sum / static_cast<double>(reservation_wait.count);
  }
  if (ttft_sum > 0) x["sched.swap_wait_share"] = swap_wait_sum / ttft_sum;
  x["sched.preemptions_per_req"] = static_cast<double>(preemptions) / attempted;
  if (resident + after_swap > 0) {
    x["sched.resident_hit_ratio"] = static_cast<double>(resident) /
                                    static_cast<double>(resident + after_swap);
  }
  x["ckpt.swap_ins"] = static_cast<double>(swap_ins);
  x["ckpt.swap_ins_per_req"] = static_cast<double>(swap_ins) / attempted;
  if (swap_in_s.count() > 0) {
    x["ckpt.swap_in_p50_s"] = swap_in_s.Median();
    x["ckpt.swap_in_p99_s"] = swap_in_s.P99();
  }
  if (swap_out_s.count() > 0) x["ckpt.swap_out_p99_s"] = swap_out_s.P99();
  x["link.h2d_gib_per_req"] = h2d_bytes / kGiB / attempted;
  x["link.d2h_gib_per_req"] = d2h_bytes / kGiB / attempted;
  x["link.busy_share"] = link_busy_s / (2 * gpus * shutdown_s);
  if (config.global.pipelined_swap) {
    x["ckpt.swap_overs"] = static_cast<double>(swap_overs);
    if (overlap_ratio.count > 0) {
      x["ckpt.overlap_ratio"] =
          overlap_ratio.sum / static_cast<double>(overlap_ratio.count);
    }
  }
  if (tiered) {
    if (tier_host_hits + tier_misses > 0) {
      x["tier.host_hit_ratio"] =
          static_cast<double>(tier_host_hits) /
          static_cast<double>(tier_host_hits + tier_misses);
    }
    x["tier.promotions"] = static_cast<double>(tier_promotions);
    x["tier.demotions"] = static_cast<double>(tier_demotions);
    if (tier_prefetches > 0) {
      x["tier.prefetch_hit_ratio"] = static_cast<double>(tier_prefetch_hits) /
                                     static_cast<double>(tier_prefetches);
    }
  }
  x["engine.gpu_util_mean"] = util_sum / gpus;
  if (completed > 0) {
    x["engine.output_tokens_per_req"] =
        static_cast<double>(output_tokens) / completed;
    if (streaming) x["engine.stream_chunks_per_req"] = chunks / completed;
  }
  x["engine.cold_starts"] = cold_starts;
  x["obs.trace_events_per_req"] = static_cast<double>(trace_events) / attempted;
  x["obs.trace_dropped"] = static_cast<double>(trace_dropped);
  x["obs.metric_series"] = static_cast<double>(series);

  std::uint64_t dropped = 0;
  if (cluster::ClusterServe* fleet = program.fleet.get(); fleet != nullptr) {
    dropped = fleet->redispatch_dropped();
    const double migrations = static_cast<double>(fleet->migrations());
    const double aborts = static_cast<double>(fleet->migration_aborts());
    x["cluster.fetches_per_req"] =
        static_cast<double>(fleet->replicator()->fetches()) / attempted;
    x["cluster.fabric_gib"] =
        static_cast<double>(fleet->fabric()->total_transferred().count()) /
        kGiB;
    x["cluster.repairs"] = fleet->repairer() != nullptr
                               ? static_cast<double>(fleet->repairer()->completed())
                               : 0.0;
    x["cluster.migrations"] = migrations;
    x["cluster.migration_abort_ratio"] =
        migrations + aborts > 0 ? aborts / (migrations + aborts) : 0.0;
    x["cluster.failovers"] = static_cast<double>(fleet->failovers());
    x["cluster.redispatched"] = static_cast<double>(fleet->redispatched());
    x["cluster.redispatch_dropped"] = static_cast<double>(dropped);
    x["cluster.unroutable"] = static_cast<double>(tally.unroutable);
    Expect(r, "routed", attempted - static_cast<double>(tally.unroutable),
           static_cast<double>(fleet->routed()));
  }

  // --- correctness gate -------------------------------------------------
  if (tally.late > 0) {
    Fail(r, std::to_string(tally.late) + " requests submitted after due time");
  }
  if (tally.invalid > 0) {
    Fail(r, std::to_string(tally.invalid) + " requests refused as invalid");
  }
  if (tally.after_terminal > 0) {
    Fail(r, std::to_string(tally.after_terminal) +
                " response chunks arrived after a terminal chunk");
  }
  std::uint64_t no_outcome = 0;
  std::uint64_t many_outcomes = 0;
  for (std::uint8_t t : tally.terminal) {
    no_outcome += t == 0 ? 1 : 0;
    many_outcomes += t > 1 ? 1 : 0;
  }
  if (no_outcome > 0) {
    Fail(r, std::to_string(no_outcome) +
                " requests never reached a terminal outcome (the simulation "
                "drained with them in flight)");
  }
  if (many_outcomes > 0) {
    Fail(r, std::to_string(many_outcomes) +
                " requests reached more than one terminal outcome");
  }
  Expect(r, "completed", completed, static_cast<double>(m_completed));
  Expect(r, "rejected (queue full)", static_cast<double>(tally.rejected),
         static_cast<double>(m_rejected));
  Expect(r, "shed (admission)", static_cast<double>(tally.shed),
         static_cast<double>(m_shed));
  Expect(r, "errored (failed + expired + redispatch-dropped)",
         static_cast<double>(tally.errored),
         static_cast<double>(m_errors + dropped));
  if (program.fleet == nullptr) {
    Expect(r, "router accepted",
           attempted - static_cast<double>(tally.rejected + tally.shed),
           router_accepted);
    CheckBodies(requests, r);
  }
  Expect(r, "TTFT samples", static_cast<double>(tally.ttft.count()),
         static_cast<double>(program_ttft.count()));
  if (tally.ttft.count() > 0 && program_ttft.count() > 0) {
    Expect(r, "TTFT p50", tally.ttft.Median(), program_ttft.Median());
    Expect(r, "TTFT p99", tally.ttft.P99(), program_ttft.P99());
  }
  return r;
}

}  // namespace perfbench
