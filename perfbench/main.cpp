// perfbench: the repository's scenario benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats one workload (fresh inputs from the seed, fresh program, full
// serve) until --seconds of host time have passed, checks every
// repetition, and prints the metrics as one JSON object on the last line
// of stdout. --trace 0 reports the end-to-end metrics from untraced
// repetitions; --trace 1 reports the per-layer metrics from a traced run
// that cycles probe, plain and trace-off repetitions. Any failed check
// prints the reason to stderr and exits 1 without a result. README.md
// documents every metric.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "inputs.h"
#include "scenario.h"
#include "util/log.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* clock;  // "virtual", "host" or "count"
};

// BENCHMARK.json lists the same names, units and directions.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "host"},
    {"host_us_per_req", "us", "host"},
    {"peak_rss_mib", "MiB", "host"},
    {"ttft_p50_s", "s", "virtual"},
    {"ttft_p99_s", "s", "virtual"},
    {"slo_attainment", "ratio", "virtual"},
    {"completed_share", "ratio", "virtual"},
    {"gpu_mem_gib_mean", "GiB", "virtual"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_req", "events/req", "count"},
    {"sim.host_ns_per_event", "ns", "host"},
    {"sim.allocs_per_req", "allocs/req", "count"},
    {"sim.oversized_payloads", "count", "count"},
    {"control.idle_events_per_sim_h", "events/h", "count"},
    {"control.idle_host_us_per_sim_h", "us/h", "host"},
    {"control.idle_wall_share", "ratio", "host"},
    {"control.monitor_samples", "count", "count"},
    {"control.recoveries", "count", "count"},
    {"control.requeues", "count", "count"},
    {"control.swap_retries", "count", "count"},
    {"router.host_us_per_call", "us", "host"},
    {"router.allocs_per_call", "allocs/call", "count"},
    {"router.body_bytes_mean", "B", "count"},
    {"router.rejected", "count", "count"},
    {"admission.shed_share", "ratio", "count"},
    {"sched.queue_wait_mean_s", "s", "virtual"},
    {"sched.reservation_wait_mean_s", "s", "virtual"},
    {"sched.swap_wait_share", "ratio", "virtual"},
    {"sched.preemptions_per_req", "1/req", "count"},
    {"sched.resident_hit_ratio", "ratio", "count"},
    {"ckpt.swap_ins_per_req", "1/req", "count"},
    {"ckpt.swap_in_p50_s", "s", "virtual"},
    {"ckpt.swap_in_p99_s", "s", "virtual"},
    {"ckpt.swap_out_p99_s", "s", "virtual"},
    {"ckpt.swap_overs", "count", "count"},
    {"ckpt.overlap_ratio", "ratio", "virtual"},
    {"link.h2d_gib_per_req", "GiB/req", "count"},
    {"link.d2h_gib_per_req", "GiB/req", "count"},
    {"link.busy_share", "ratio", "virtual"},
    {"tier.host_hit_ratio", "ratio", "count"},
    {"tier.promotions", "count", "count"},
    {"tier.demotions", "count", "count"},
    {"tier.prefetch_hit_ratio", "ratio", "count"},
    {"engine.gpu_util_mean", "ratio", "virtual"},
    {"engine.output_tokens_per_req", "tokens/req", "count"},
    {"engine.cold_starts", "count", "count"},
    {"engine.stream_chunks_per_req", "chunks/req", "count"},
    {"engine.chunk_gap_p99_s", "s", "virtual"},
    {"obs.trace_events_per_req", "events/req", "count"},
    {"obs.trace_off_delta_pct", "%", "host"},
    {"obs.trace_dropped", "count", "count"},
    {"obs.metric_series", "count", "count"},
    {"cluster.accept_host_us_per_call", "us", "host"},
    {"cluster.fetches_per_req", "1/req", "count"},
    {"cluster.fabric_gib", "GiB", "count"},
    {"cluster.repairs", "count", "count"},
    {"cluster.migrations", "count", "count"},
    {"cluster.migration_abort_ratio", "ratio", "count"},
    {"cluster.failovers", "count", "count"},
    {"cluster.redispatched", "count", "count"},
    {"cluster.redispatch_dropped", "count", "count"},
    {"cluster.unroutable", "count", "count"},
    {"workload.gen_s", "s", "host"},
    {"setup.init_host_s", "s", "host"},
    {"outcome.error_rate", "ratio", "count"},
    {"outcome.ttft_samples", "count", "count"},
    {"probe.host_us_per_req", "us", "host"},
    {"probe.overhead_pct", "%", "host"},
};

using Values = std::map<std::string, double>;
using Clock = std::chrono::steady_clock;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// One host figure over the warm repetitions (the first of each kind warms
// the thread-local pools and the page cache and is left out). Every
// repetition replays identical deterministic work, so the spread between
// them is interference from the machine: timings take the fastest
// repetition, set-up times the median.
enum class Stat { kMin, kMedian, kMax };
double HostStat(const std::vector<RepResult>& reps, const std::string& key,
                Stat stat = Stat::kMin) {
  std::vector<double> v;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    auto it = reps[i].host.find(key);
    if (it != reps[i].host.end()) v.push_back(it->second);
  }
  if (v.empty()) return NAN;
  switch (stat) {
    case Stat::kMin:
      return *std::min_element(v.begin(), v.end());
    case Stat::kMax:
      return *std::max_element(v.begin(), v.end());
    case Stat::kMedian:
      break;
  }
  return Median(std::move(v));
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::string> g_failures;

void Failure(std::string what) { g_failures.push_back(std::move(what)); }

// Every key of `want` must hold the identical value in `got` (keys whose
// name starts with `skip_prefix` excepted).
void CheckSame(const char* what, const Values& want, const Values& got,
               std::string_view skip_prefix = {}) {
  for (const auto& [key, value] : want) {
    if (!skip_prefix.empty() && key.rfind(skip_prefix, 0) == 0) continue;
    auto it = got.find(key);
    if (it == got.end() || it->second != value) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s: %s differs (%.17g vs %.17g)", what,
                    key.c_str(), value,
                    it == got.end() ? NAN : it->second);
      Failure(buf);
    }
  }
}

// Runs repetitions of `kinds` round-robin until `seconds` have passed (and
// at least `min_rounds` full rounds), collecting each kind's results.
std::vector<std::vector<RepResult>> RunRounds(
    const Workload& w, std::uint64_t seed, double seconds,
    const std::vector<RepOptions>& kinds, int min_rounds) {
  std::vector<std::vector<RepResult>> out(kinds.size());
  const Clock::time_point t0 = Clock::now();
  for (int round = 0;; ++round) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (round >= min_rounds && elapsed >= seconds) break;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      RepResult r = RunRep(w, seed, kinds[k]);
      for (std::string& f : r.failures) {
        Failure("rep " + std::to_string(round) + ": " + f);
      }
      out[k].push_back(std::move(r));
    }
    if (!g_failures.empty()) break;
  }
  return out;
}

// Determinism gate: within one kind, virtual metrics and counts repeat
// exactly; allocation counts repeat from the second repetition on.
void CheckRepeats(const char* kind, const std::vector<RepResult>& reps) {
  for (std::size_t i = 1; i < reps.size(); ++i) {
    CheckSame(kind, reps[0].exact, reps[i].exact);
    if (i >= 2) CheckSame(kind, reps[1].allocs, reps[i].allocs);
  }
}

// Ties the benchmark to EXPERIMENTS.md: the month at its default seed is
// bench_fig3_utilization's SwapServeLLM row.
void CheckReference(const Workload& w, std::uint64_t seed, const Values& x) {
  if (w.name != "month_sparse" || seed != w.default_seed) return;
  const double p99 = x.count("ttft_p99_s") ? x.at("ttft_p99_s") : NAN;
  if (x.at("completed") != 22365 || x.at("ckpt.swap_ins") != 6 ||
      !(std::fabs(p99 - 0.09) < 0.005)) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "reference: Fig. 3 row is 22365 completed, 6 swap-ins, "
                  "p99 TTFT 0.09 s; got %.0f, %.0f, %.4f",
                  x.at("completed"), x.at("ckpt.swap_ins"), p99);
    Failure(buf);
  }
}

void PrintResult(const Workload& w, std::uint64_t seed, int trace,
                 std::size_t reps, const Values& x, const Values& metrics,
                 const MetricDef* defs, std::size_t ndefs) {
  std::printf(
      "perfbench %s seed=%llu (default %llu, held-out %llu) trace=%d "
      "repetitions=%zu\n",
      std::string(w.name).c_str(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(w.default_seed),
      static_cast<unsigned long long>(w.heldout_seed), trace, reps);
  const double samples = x.at("ttft_samples");
  std::printf("  requests attempted %.0f, completed %.0f; TTFT samples %.0f "
              "(%.0f beyond p99), limit %.1f s\n",
              x.at("attempted"), x.at("completed"), samples,
              std::floor(samples * 0.01), w.ttft_limit_s);
  for (std::size_t i = 0; i < ndefs; ++i) {
    auto it = metrics.find(defs[i].name);
    if (it == metrics.end()) {
      std::printf("  %-34s %16s %-11s %s\n", defs[i].name, "n/a", defs[i].unit,
                  defs[i].clock);
    } else {
      std::printf("  %-34s %16.6g %-11s %s\n", defs[i].name, it->second,
                  defs[i].unit, defs[i].clock);
    }
  }
  // Metrics a workload's layers never run are reported as 0 (listed as
  // n/a above and in README.md) so every run carries the full metric set.
  std::string json = "{\"correct\": true, \"attempted\": ";
  json += std::to_string(static_cast<long long>(x.at("attempted")));
  json += ", \"failed\": 0, \"metrics\": {";
  for (std::size_t i = 0; i < ndefs; ++i) {
    auto it = metrics.find(defs[i].name);
    const double v = it == metrics.end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int ReportFailures() {
  for (const std::string& f : g_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const Workload& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", std::string(w.name).c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      w = FindWorkload(value);
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 0);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  if (w == nullptr || argc % 2 == 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  if (!have_seed) seed = w->default_seed;
  // The chaos workload logs every injected crash, retry and quarantine;
  // the benchmark counts those outcomes itself, so the simulator's log is
  // switched off (a level above kError) and stderr carries only the
  // benchmark's own failures.
  swapserve::Logger::Global().set_level(static_cast<swapserve::LogLevel>(
      static_cast<int>(swapserve::LogLevel::kError) + 1));
  // Repetitions free and re-allocate the same large blocks (trace rings,
  // sample vectors). Keep them in the heap instead of returning them to
  // the kernel, so each warm repetition reuses memory rather than paying
  // fresh page faults whose cost depends on the allocator's adaptive mmap
  // threshold (it made fleet set-up times bimodal across runs).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  Values metrics;
  Values exact;
  std::size_t reps = 0;
  if (trace == 0) {
    auto rounds = RunRounds(*w, seed, seconds, {RepOptions{}}, 4);
    if (!g_failures.empty()) return ReportFailures();
    const std::vector<RepResult>& plain = rounds[0];
    reps = plain.size();
    CheckRepeats("repeat", plain);
    exact = plain[0].exact;
    metrics["setup_s"] = HostStat(plain, "setup_s", Stat::kMedian);
    metrics["host_us_per_req"] = HostStat(plain, "host_us_per_req");
    std::printf("host_us_per_req over %zu warm repetitions: min %.3f, "
                "median %.3f, max %.3f\n",
                plain.size() - 1, metrics["host_us_per_req"],
                HostStat(plain, "host_us_per_req", Stat::kMedian),
                HostStat(plain, "host_us_per_req", Stat::kMax));
    metrics["peak_rss_mib"] = PeakRssMib();
    for (const char* key : {"ttft_p50_s", "ttft_p99_s", "slo_attainment",
                            "completed_share", "gpu_mem_gib_mean"}) {
      if (exact.count(key)) metrics[key] = exact.at(key);
    }
  } else {
    const RepOptions plain_on{};
    const RepOptions probe{.probes = true};
    const RepOptions plain_off{.trace_enabled = false};
    auto rounds = RunRounds(*w, seed, seconds, {plain_on, probe, plain_off}, 3);
    if (!g_failures.empty()) return ReportFailures();
    reps = rounds[0].size() * 3;
    CheckRepeats("plain repeat", rounds[0]);
    CheckRepeats("probe repeat", rounds[1]);
    CheckRepeats("trace-off repeat", rounds[2]);
    // Probes and tracing observe; they must not change what is simulated.
    CheckSame("probe vs plain", rounds[0][0].exact, rounds[1][0].exact);
    CheckSame("trace-off vs plain", rounds[0][0].exact, rounds[2][0].exact,
              "obs.trace");
    exact = rounds[1][0].exact;
    metrics = exact;
    metrics["outcome.ttft_samples"] = exact.at("ttft_samples");
    metrics["sim.allocs_per_req"] = rounds[0].back().allocs.at(
        "sim.allocs_per_req");
    if (auto it = rounds[1].back().allocs.find("router.allocs_per_call");
        it != rounds[1].back().allocs.end()) {
      metrics[it->first] = it->second;
    }
    metrics["workload.gen_s"] =
        HostStat(rounds[0], "workload.gen_s", Stat::kMedian);
    metrics["setup.init_host_s"] =
        HostStat(rounds[0], "setup.init_host_s", Stat::kMedian);
    metrics["sim.host_ns_per_event"] =
        HostStat(rounds[0], "sim.host_ns_per_event");
    for (const char* key :
         {"control.idle_host_us_per_sim_h", "control.idle_wall_share",
          "router.host_us_per_call", "cluster.accept_host_us_per_call"}) {
      const double v = HostStat(rounds[1], key);
      if (!std::isnan(v)) metrics[key] = v;
    }
    const double on = HostStat(rounds[0], "host_us_per_req");
    const double probed = HostStat(rounds[1], "host_us_per_req");
    const double off = HostStat(rounds[2], "host_us_per_req");
    metrics["probe.host_us_per_req"] = probed;
    metrics["probe.overhead_pct"] = (probed / on - 1) * 100;
    metrics["obs.trace_off_delta_pct"] = (on - off) / on * 100;
  }
  if (g_failures.empty()) CheckReference(*w, seed, exact);
  for (const auto& [key, value] : metrics) {
    if (!std::isfinite(value)) Failure("metric " + key + " is not finite");
  }
  if (!g_failures.empty()) return ReportFailures();
  if (trace == 0) {
    PrintResult(*w, seed, trace, reps, exact, metrics, kEndToEnd,
                std::size(kEndToEnd));
  } else {
    PrintResult(*w, seed, trace, reps, exact, metrics, kPerLayer,
                std::size(kPerLayer));
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
