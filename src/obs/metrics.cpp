#include "obs/metrics.h"

#include <algorithm>

#include "util/status.h"

namespace swapserve::obs {

std::string_view MetricTypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "?";
}

void Counter::Increment(double delta) {
  SWAP_CHECK_MSG(delta >= 0.0, "counters only go up");
  value_ += delta;
}

HistogramMetric::HistogramMetric(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      bucket_counts_(bounds_.size() + 1, 0) {
  SWAP_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket");
  SWAP_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must be ascending");
}

void HistogramMetric::Observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++bucket_counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

std::uint64_t HistogramMetric::CumulativeCount(std::size_t i) const {
  SWAP_CHECK_MSG(i < bounds_.size(), "bucket index out of range");
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i; ++b) total += bucket_counts_[b];
  return total;
}

const std::vector<double>& DefaultLatencyBuckets() {
  static const std::vector<double> kBuckets = {
      0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
      1.0,   2.5,    5.0,   10.0, 25.0,  50.0, 100.0, 250.0, 600.0};
  return kBuckets;
}

const std::vector<double>& DefaultBytesBuckets() {
  static const std::vector<double> kBuckets = [] {
    std::vector<double> b;
    for (double v = 1024.0 * 1024.0; v <= 128.0 * 1024.0 * 1024.0 * 1024.0;
         v *= 4.0) {
      b.push_back(v);
    }
    return b;
  }();
  return kBuckets;
}

std::string MetricsRegistry::LabelKey(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return SortedLabelKey(labels);
}

std::string MetricsRegistry::SortedLabelKey(const LabelSet& sorted) {
  std::string key;
  for (const auto& [k, v] : sorted) {
    if (!key.empty()) key += ',';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

MetricsRegistry::Instrument& MetricsRegistry::Series(const std::string& name,
                                                     MetricType type,
                                                     const LabelSet& labels) {
  SWAP_CHECK_MSG(!name.empty(), "metric name must not be empty");
  auto [fit, family_inserted] = families_.try_emplace(name);
  Family& family = fit->second;
  if (family_inserted) {
    family.name = name;
    family.type = type;
  } else {
    SWAP_CHECK_MSG(family.type == type,
                   "metric " + name + " re-registered as a different type");
  }
  LabelSet canonical = labels;
  std::sort(canonical.begin(), canonical.end());
  auto [sit, series_inserted] =
      family.series.try_emplace(SortedLabelKey(canonical));
  if (series_inserted) sit->second.labels = std::move(canonical);
  return sit->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const LabelSet& labels) {
  Instrument& series = Series(name, MetricType::kCounter, labels);
  if (series.counter == nullptr) {
    series.counter = std::make_unique<Counter>();
  }
  return *series.counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const LabelSet& labels) {
  Instrument& series = Series(name, MetricType::kGauge, labels);
  if (series.gauge == nullptr) series.gauge = std::make_unique<Gauge>();
  return *series.gauge;
}

HistogramMetric& MetricsRegistry::GetHistogram(
    const std::string& name, const LabelSet& labels,
    const std::vector<double>& upper_bounds) {
  Instrument& series = Series(name, MetricType::kHistogram, labels);
  if (series.histogram == nullptr) {
    series.histogram = std::make_unique<HistogramMetric>(upper_bounds);
  } else {
    SWAP_CHECK_MSG(series.histogram->upper_bounds() == upper_bounds,
                   "histogram " + name + " re-registered with different "
                   "buckets");
  }
  return *series.histogram;
}

void MetricsRegistry::SetHelp(const std::string& name, std::string help) {
  auto it = families_.find(name);
  SWAP_CHECK_MSG(it != families_.end(),
                 "SetHelp for unregistered metric " + name);
  it->second.help = std::move(help);
}

std::size_t MetricsRegistry::series_count() const {
  std::size_t n = 0;
  for (const auto& [name, family] : families_) n += family.series.size();
  return n;
}

}  // namespace swapserve::obs
