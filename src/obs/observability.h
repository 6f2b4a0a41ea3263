// The observability context handed through the serving stack.
//
// SwapServe owns one Observability; every instrumented component (router,
// request handler, scheduler, task manager, engine controller, checkpoint
// engine, snapshot store, GPU devices, links, monitor) holds a nullable
// pointer to it. The helpers below are null-safe so instrumentation reads
// as one line at the call site and compiles to nothing observable when the
// component runs without telemetry (unit tests that construct layers
// directly). The trace helpers take views and typed args (obs/trace.h):
// literals and owner-held names reach the recorder without a copy, and a
// disabled recorder returns before it interns anything. The metric helpers
// look the series up on every call; per-event sites hold the series handles
// further down instead.

#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace swapserve::obs {

struct Observability {
  explicit Observability(
      sim::Simulation& sim,
      std::size_t trace_capacity = TraceRecorder::kDefaultCapacity)
      : trace(sim, trace_capacity) {}

  TraceRecorder trace;
  MetricsRegistry metrics;
};

// --- null-safe instrumentation helpers ---------------------------------

inline Span StartSpan(Observability* obs, std::string_view name,
                      std::string_view category, std::string_view track) {
  if (obs == nullptr) return Span();
  return obs->trace.StartSpan(name, category, track);
}

inline void Instant(Observability* obs, std::string_view name,
                    std::string_view category, std::string_view track,
                    std::initializer_list<TraceArg> args = {}) {
  if (obs == nullptr) return;
  obs->trace.Instant(name, category, track, args);
}

inline void IncCounter(Observability* obs, const std::string& name,
                       const LabelSet& labels = {}, double delta = 1.0) {
  if (obs == nullptr) return;
  obs->metrics.GetCounter(name, labels).Increment(delta);
}

inline void SetGauge(Observability* obs, const std::string& name,
                     const LabelSet& labels, double value) {
  if (obs == nullptr) return;
  obs->metrics.GetGauge(name, labels).Set(value);
}

inline void Observe(Observability* obs, const std::string& name,
                    const LabelSet& labels, double value,
                    const std::vector<double>& upper_bounds =
                        DefaultLatencyBuckets()) {
  if (obs == nullptr) return;
  obs->metrics.GetHistogram(name, labels, upper_bounds).Observe(value);
}

// --- resolve-once series handles --------------------------------------
//
// A handle names one series (metric name, labels and, for a histogram,
// buckets) and resolves it through MetricsRegistry::Get* on first use —
// exactly when the helper above would have created the series — then
// caches the instrument, so later events pay neither a label-set
// canonicalization nor a map walk, and allocate nothing. The cache relies
// on the registry's invariant (obs/metrics.h): series are never erased and
// instruments never move. A handle bound to a null Observability is a
// no-op. Owners build their handles in BindObservability, so a rebind
// drops every pointer cached from the previous registry.
//
// `name` is a string literal (it is stored, not copied); `upper_bounds`
// must outlive the handle, as the shared bucket layouts do.

class SeriesHandle {
 protected:
  SeriesHandle() = default;
  SeriesHandle(Observability* obs, const char* name, LabelSet labels)
      : obs_(obs), name_(name), labels_(std::move(labels)) {}

  Observability* obs_ = nullptr;
  const char* name_ = "";
  LabelSet labels_;
};

class CounterHandle : SeriesHandle {
 public:
  CounterHandle() = default;
  CounterHandle(Observability* obs, const char* name, LabelSet labels = {})
      : SeriesHandle(obs, name, std::move(labels)) {}

  void Increment(double delta = 1.0) {
    if (obs_ == nullptr) return;
    if (counter_ == nullptr) {
      counter_ = &obs_->metrics.GetCounter(name_, labels_);
    }
    counter_->Increment(delta);
  }

 private:
  Counter* counter_ = nullptr;
};

class GaugeHandle : SeriesHandle {
 public:
  GaugeHandle() = default;
  GaugeHandle(Observability* obs, const char* name, LabelSet labels = {})
      : SeriesHandle(obs, name, std::move(labels)) {}

  void Set(double value) {
    if (obs_ == nullptr) return;
    if (gauge_ == nullptr) gauge_ = &obs_->metrics.GetGauge(name_, labels_);
    gauge_->Set(value);
  }

 private:
  Gauge* gauge_ = nullptr;
};

class HistogramHandle : SeriesHandle {
 public:
  HistogramHandle() = default;
  HistogramHandle(Observability* obs, const char* name, LabelSet labels = {},
                  const std::vector<double>& upper_bounds =
                      DefaultLatencyBuckets())
      : SeriesHandle(obs, name, std::move(labels)),
        upper_bounds_(&upper_bounds) {}

  void Observe(double value) {
    if (obs_ == nullptr) return;
    if (histogram_ == nullptr) {
      histogram_ =
          &obs_->metrics.GetHistogram(name_, labels_, *upper_bounds_);
    }
    histogram_->Observe(value);
  }

 private:
  const std::vector<double>* upper_bounds_ = nullptr;
  HistogramMetric* histogram_ = nullptr;
};

}  // namespace swapserve::obs
