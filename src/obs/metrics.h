// Labeled metrics registry: named counters, gauges, and fixed-bucket
// histograms in the Prometheus data model.
//
// A *family* is a metric name plus a type and help string; each distinct
// label set under a family is one time series backed by a stable instrument
// object. Get* canonicalizes the labels and walks two maps, so per-event
// call sites do not call it per event: they hold a handle
// (obs/observability.h) that resolves the series once and keeps the
// instrument's address:
//
//   obs::CounterHandle swaps_in(obs, "swapserve_swaps_total",
//                               {{"direction", "in"}, {"trigger", "demand"}});
//   swaps_in.Increment();  // first call creates the series
//
// Series are never erased, and each instrument lives behind a unique_ptr
// in its map node, so a returned reference stays valid for the registry's
// lifetime; handles depend on that.
//
// Families and series are stored in ordered maps so exporters (Prometheus
// text exposition / JSON snapshot, see obs/exporters.h) emit deterministic
// output — the bench harness diffs these artifacts across PRs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace swapserve::obs {

// Label pairs; order does not matter (the registry canonicalizes by key).
using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };
std::string_view MetricTypeName(MetricType t);

// Monotonically increasing value.
class Counter {
 public:
  void Increment(double delta = 1.0);
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Point-in-time value, settable up and down.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Fixed-bucket cumulative histogram. `upper_bounds` are inclusive bucket
// ceilings in ascending order; an implicit +Inf bucket catches the rest.
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> upper_bounds);

  void Observe(double v);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  // Samples with value <= upper_bounds()[i] (cumulative, Prometheus `le`).
  std::uint64_t CumulativeCount(std::size_t i) const;
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> bucket_counts_;  // per-bucket, +Inf last
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Shared bucket layouts. Latencies span 1 ms (a cgroup freeze) to 600 s (a
// cold start); byte sizes span 1 MiB to 128 GiB (an 80 GB HBM part + host
// staging).
const std::vector<double>& DefaultLatencyBuckets();
const std::vector<double>& DefaultBytesBuckets();

class MetricsRegistry {
 public:
  struct Instrument {
    LabelSet labels;  // canonical (sorted by key)
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    // Keyed by the serialized label set for deterministic iteration.
    std::map<std::string, Instrument> series;
  };

  // Fetch-or-create. Checks fail when `name` is reused with a different
  // type or (for histograms) different bucket bounds.
  Counter& GetCounter(const std::string& name, const LabelSet& labels = {});
  Gauge& GetGauge(const std::string& name, const LabelSet& labels = {});
  HistogramMetric& GetHistogram(const std::string& name,
                                const LabelSet& labels = {},
                                const std::vector<double>& upper_bounds =
                                    DefaultLatencyBuckets());

  // Attach a help string emitted by the exporters (idempotent).
  void SetHelp(const std::string& name, std::string help);

  const std::map<std::string, Family>& families() const { return families_; }
  std::size_t family_count() const { return families_.size(); }
  std::size_t series_count() const;

  // Canonical serialized form of a label set ("k1=v1,k2=v2", sorted).
  static std::string LabelKey(LabelSet labels);

 private:
  // LabelKey of a label set that is already sorted.
  static std::string SortedLabelKey(const LabelSet& sorted);

  Instrument& Series(const std::string& name, MetricType type,
                     const LabelSet& labels);

  std::map<std::string, Family> families_;
};

}  // namespace swapserve::obs
