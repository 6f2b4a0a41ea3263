#include "core/metrics.h"

namespace swapserve::core {
namespace {

constexpr const char* kRequestsTotal = "swapserve_requests_total";
constexpr const char* kTtftSeconds = "swapserve_request_ttft_seconds";
constexpr const char* kLatencySeconds = "swapserve_request_latency_seconds";
constexpr const char* kSwapWaitSeconds = "swapserve_swap_wait_seconds";
constexpr const char* kOutputTokens = "swapserve_output_tokens_total";
constexpr const char* kSwapsTotal = "swapserve_swaps_total";
constexpr const char* kSwapLatency = "swapserve_swap_latency_seconds";

}  // namespace

ModelSeries::ModelSeries(obs::Observability* obs, const std::string& model)
    : bound(true),
      completed(obs, kRequestsTotal,
                {{"model", model}, {"outcome", "completed"}}),
      rejected(obs, kRequestsTotal,
               {{"model", model}, {"outcome", "rejected"}}),
      shed(obs, kRequestsTotal, {{"model", model}, {"outcome", "shed"}}),
      failed(obs, kRequestsTotal, {{"model", model}, {"outcome", "failed"}}),
      expired(obs, kRequestsTotal,
              {{"model", model}, {"outcome", "expired"}}),
      ttft(obs, kTtftSeconds, {{"model", model}}),
      latency(obs, kLatencySeconds, {{"model", model}}),
      swap_wait(obs, kSwapWaitSeconds, {{"model", model}}),
      output_tokens(obs, kOutputTokens, {{"model", model}}) {}

void Metrics::BindObservability(obs::Observability* obs) {
  obs_ = obs;
  swaps_out_explicit_ = {obs, kSwapsTotal,
                         {{"direction", "out"}, {"trigger", "explicit"}}};
  swaps_out_preemption_ = {obs, kSwapsTotal,
                           {{"direction", "out"}, {"trigger", "preemption"}}};
  swaps_in_ = {obs, kSwapsTotal, {{"direction", "in"}, {"trigger", "demand"}}};
  requests_help_set_ = false;
  for (auto& [model, mm] : per_model_) mm.series = ModelSeries();
}

ModelMetrics& Metrics::Entry(const std::string& model) {
  ModelMetrics& mm = per_model_[model];
  if (obs_ != nullptr && !mm.series.bound) {
    mm.series = ModelSeries(obs_, model);
  }
  return mm;
}

void Metrics::CountRequest(obs::CounterHandle& outcome) {
  if (obs_ == nullptr) return;
  outcome.Increment();
  if (!requests_help_set_) {
    obs_->metrics.SetHelp(kRequestsTotal,
                          "Requests by model and terminal outcome");
    requests_help_set_ = true;
  }
}

void Metrics::RecordCompleted(const std::string& model, double ttft_s,
                              double total_s, double swap_wait_s,
                              std::int64_t output_tokens) {
  ModelMetrics& mm = Entry(model);
  ++mm.completed;
  mm.output_tokens += output_tokens;
  mm.ttft_s.Add(ttft_s);
  mm.total_s.Add(total_s);
  mm.swap_wait_s.Add(swap_wait_s);
  if (swap_wait_s > 0) {
    ++mm.served_after_swap_in;
  } else {
    ++mm.served_resident;
  }

  CountRequest(mm.series.completed);
  mm.series.ttft.Observe(ttft_s);
  mm.series.latency.Observe(total_s);
  mm.series.swap_wait.Observe(swap_wait_s);
  mm.series.output_tokens.Increment(static_cast<double>(output_tokens));
}

void Metrics::RecordRejected(const std::string& model) {
  ModelMetrics& mm = Entry(model);
  ++mm.rejected;
  CountRequest(mm.series.rejected);
}

void Metrics::RecordShed(const std::string& model,
                         const std::string& slo_class) {
  ModelMetrics& mm = Entry(model);
  ++mm.shed;
  CountRequest(mm.series.shed);
  obs::IncCounter(obs_, "swapserve_admission_shed_total",
                  {{"model", model},
                   {"slo_class", slo_class.empty() ? "default" : slo_class}});
}

void Metrics::RecordFailed(const std::string& model) {
  ModelMetrics& mm = Entry(model);
  ++mm.failed;
  CountRequest(mm.series.failed);
}

void Metrics::RecordExpired(const std::string& model) {
  ModelMetrics& mm = Entry(model);
  ++mm.expired;
  CountRequest(mm.series.expired);
}

void Metrics::RecordSwapOut(obs::HistogramHandle& latency_series,
                            double latency_s, bool preemption) {
  ++swap_outs;
  if (preemption) ++preemptions;
  swap_out_latency_s.Add(latency_s);
  (preemption ? swaps_out_preemption_ : swaps_out_explicit_).Increment();
  latency_series.Observe(latency_s);
}

void Metrics::RecordSwapIn(obs::HistogramHandle& latency_series,
                           double latency_s) {
  ++swap_ins;
  swap_in_latency_s.Add(latency_s);
  swaps_in_.Increment();
  latency_series.Observe(latency_s);
}

void Metrics::RecordSwapOver(const std::string& out_model,
                             const std::string& in_model, double latency_s,
                             double overlap_s) {
  ++swap_overs;
  swap_over_latency_s.Add(latency_s);
  swap_overlap_s.Add(overlap_s);
  obs::IncCounter(obs_, "swapserve_swap_overs_total",
                  {{"out", out_model}, {"in", in_model}});
  obs::Observe(obs_, kSwapLatency,
               {{"direction", "over"}, {"model", in_model}}, latency_s);
}

void Metrics::RecordPrefetch(const std::string& model) {
  ++prefetches;
  obs::IncCounter(obs_, "swapserve_prefetches_total", {{"model", model}});
}

void Metrics::RecordSwapRetry(const std::string& model) {
  ++swap_retries;
  obs::IncCounter(obs_, "swapserve_swap_retries_total", {{"model", model}});
}

void Metrics::RecordRequeue(const std::string& model) {
  ++requeues;
  obs::IncCounter(obs_, "swapserve_requeues_total", {{"model", model}});
}

void Metrics::RecordRecovery(const std::string& model,
                             const std::string& kind, double latency_s) {
  ++recoveries;
  recovery_latency_s.Add(latency_s);
  obs::IncCounter(obs_, "swapserve_recovery_total",
                  {{"model", model}, {"kind", kind}});
  obs::Observe(obs_, "swapserve_recovery_seconds", {{"model", model}},
               latency_s);
}

void Metrics::RecordQuarantine(const std::string& model) {
  ++quarantines;
  obs::IncCounter(obs_, "swapserve_quarantine_total", {{"model", model}});
}

void Metrics::RecordRejuvenation(const std::string& model) {
  ++rejuvenations;
  obs::IncCounter(obs_, "swapserve_rejuvenation_total", {{"model", model}});
}

std::uint64_t Metrics::TotalCompleted() const {
  std::uint64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.completed;
  return total;
}

std::uint64_t Metrics::TotalRejected() const {
  std::uint64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.rejected;
  return total;
}

std::uint64_t Metrics::TotalShed() const {
  std::uint64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.shed;
  return total;
}

std::uint64_t Metrics::TotalFailed() const {
  std::uint64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.failed + m.expired;
  return total;
}

std::uint64_t Metrics::TotalExpired() const {
  std::uint64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.expired;
  return total;
}

std::int64_t Metrics::TotalOutputTokens() const {
  std::int64_t total = 0;
  for (const auto& [model, m] : per_model_) total += m.output_tokens;
  return total;
}

Samples Metrics::AllTtft() const {
  Samples all;
  for (const auto& [model, m] : per_model_) {
    for (double v : m.ttft_s.values()) all.Add(v);
  }
  return all;
}

}  // namespace swapserve::core
