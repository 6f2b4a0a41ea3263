// Metrics registry tests: fetch-or-create semantics, label
// canonicalization, histogram bucket accounting, and the resolve-once
// series handles built on them.

#include "obs/metrics.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/exporters.h"
#include "obs/observability.h"

namespace swapserve::obs {
namespace {

TEST(CounterTest, IncrementAccumulates) {
  Counter c;
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  c.Increment();
  c.Increment(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10.0);
  g.Add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(HistogramMetricTest, CumulativeBuckets) {
  HistogramMetric h({1.0, 5.0, 10.0});
  h.Observe(0.5);   // bucket 0
  h.Observe(1.0);   // bucket 0 (inclusive ceiling)
  h.Observe(3.0);   // bucket 1
  h.Observe(100.0); // +Inf overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  EXPECT_EQ(h.CumulativeCount(0), 2u);
  EXPECT_EQ(h.CumulativeCount(1), 3u);
  EXPECT_EQ(h.CumulativeCount(2), 3u);  // 100 is only in +Inf
}

TEST(MetricsRegistryTest, FetchOrCreateReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("requests", {{"model", "m1"}});
  a.Increment();
  Counter& b = reg.GetCounter("requests", {{"model", "m1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
  // A different label set is a distinct series under the same family.
  Counter& c = reg.GetCounter("requests", {{"model", "m2"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.family_count(), 1u);
  EXPECT_EQ(reg.series_count(), 2u);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotMatter) {
  MetricsRegistry reg;
  Counter& a =
      reg.GetCounter("swaps", {{"direction", "in"}, {"model", "m1"}});
  Counter& b =
      reg.GetCounter("swaps", {{"model", "m1"}, {"direction", "in"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(MetricsRegistryTest, LabelKeyCanonicalizes) {
  EXPECT_EQ(MetricsRegistry::LabelKey({{"b", "2"}, {"a", "1"}}),
            "a=1,b=2");
  EXPECT_EQ(MetricsRegistry::LabelKey({}), "");
}

TEST(MetricsRegistryTest, HistogramKeepsBoundsAcrossFetches) {
  MetricsRegistry reg;
  HistogramMetric& h =
      reg.GetHistogram("lat", {{"model", "m1"}}, {0.1, 1.0});
  h.Observe(0.05);
  HistogramMetric& again =
      reg.GetHistogram("lat", {{"model", "m1"}}, {0.1, 1.0});
  EXPECT_EQ(&h, &again);
  EXPECT_EQ(again.count(), 1u);
  ASSERT_EQ(again.upper_bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(again.upper_bounds()[0], 0.1);
}

TEST(MetricsRegistryTest, SetHelpSurvivesAndIsIdempotent) {
  MetricsRegistry reg;
  reg.GetGauge("used_bytes", {{"gpu", "0"}}).Set(42.0);
  reg.SetHelp("used_bytes", "Bytes in use");
  reg.SetHelp("used_bytes", "Bytes in use");
  EXPECT_EQ(reg.families().at("used_bytes").help, "Bytes in use");
}

TEST(MetricsRegistryTest, DefaultBucketsAreAscending) {
  for (const std::vector<double>* bounds :
       {&DefaultLatencyBuckets(), &DefaultBytesBuckets()}) {
    ASSERT_FALSE(bounds->empty());
    for (std::size_t i = 1; i < bounds->size(); ++i) {
      EXPECT_LT((*bounds)[i - 1], (*bounds)[i]);
    }
  }
}

TEST(MetricsRegistryTest, FamiliesIterateInNameOrder) {
  MetricsRegistry reg;
  reg.GetCounter("zzz");
  reg.GetCounter("aaa");
  reg.GetCounter("mmm");
  std::vector<std::string> names;
  for (const auto& [name, family] : reg.families()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"aaa", "mmm", "zzz"}));
}

// --- series handles (obs/observability.h) --------------------------------

TEST(SeriesHandleTest, CreatesNoSeriesBeforeFirstUse) {
  sim::Simulation sim;
  Observability obs(sim);
  CounterHandle counter(&obs, "requests", {{"model", "m1"}});
  GaugeHandle gauge(&obs, "depth", {{"model", "m1"}});
  HistogramHandle histogram(&obs, "wait", {{"model", "m1"}});
  EXPECT_EQ(obs.metrics.family_count(), 0u);
  EXPECT_EQ(obs.metrics.series_count(), 0u);

  counter.Increment();
  EXPECT_EQ(obs.metrics.series_count(), 1u);
  gauge.Set(3);
  histogram.Observe(0.5);
  EXPECT_EQ(obs.metrics.series_count(), 3u);
  EXPECT_DOUBLE_EQ(
      obs.metrics.GetCounter("requests", {{"model", "m1"}}).value(), 1.0);
  EXPECT_DOUBLE_EQ(obs.metrics.GetGauge("depth", {{"model", "m1"}}).value(),
                   3.0);
  EXPECT_EQ(obs.metrics.GetHistogram("wait", {{"model", "m1"}}).count(), 1u);
}

TEST(SeriesHandleTest, LabelOrderDoesNotSplitTheSeries) {
  sim::Simulation sim;
  Observability obs(sim);
  CounterHandle a(&obs, "swaps", {{"direction", "in"}, {"model", "m1"}});
  CounterHandle b(&obs, "swaps", {{"model", "m1"}, {"direction", "in"}});
  a.Increment();
  b.Increment(2);
  EXPECT_EQ(obs.metrics.series_count(), 1u);
  EXPECT_DOUBLE_EQ(
      obs.metrics.GetCounter("swaps", {{"direction", "in"}, {"model", "m1"}})
          .value(),
      3.0);
}

TEST(SeriesHandleTest, NullObservabilityIsANoOp) {
  CounterHandle counter(nullptr, "requests", {{"model", "m1"}});
  GaugeHandle gauge(nullptr, "depth");
  HistogramHandle histogram(nullptr, "wait");
  counter.Increment();
  gauge.Set(1);
  histogram.Observe(1);
  // Default-constructed handles are unbound too.
  CounterHandle unbound_counter;
  GaugeHandle unbound_gauge;
  HistogramHandle unbound_histogram;
  unbound_counter.Increment();
  unbound_gauge.Set(1);
  unbound_histogram.Observe(1);
}

TEST(SeriesHandleTest, ResolvedInstrumentSurvivesLaterInsertions) {
  sim::Simulation sim;
  Observability obs(sim);
  CounterHandle counter(&obs, "requests", {{"model", "m1"}});
  GaugeHandle gauge(&obs, "depth", {{"model", "m1"}});
  HistogramHandle histogram(&obs, "wait", {{"model", "m1"}});
  counter.Increment();
  gauge.Set(1);
  histogram.Observe(1);
  const Counter* counter_at = &obs.metrics.GetCounter("requests",
                                                      {{"model", "m1"}});
  const Gauge* gauge_at = &obs.metrics.GetGauge("depth", {{"model", "m1"}});
  const HistogramMetric* histogram_at =
      &obs.metrics.GetHistogram("wait", {{"model", "m1"}});

  // 1,000 more series, in the same families and in new ones, force every
  // map to rebalance around the cached instruments.
  for (int i = 0; i < 1000; ++i) {
    const std::string model = "m" + std::to_string(1000 + i);
    obs.metrics.GetCounter(i % 2 == 0 ? "requests" : "f" + std::to_string(i),
                           {{"model", model}});
  }
  counter.Increment();
  gauge.Set(7);
  histogram.Observe(2);
  EXPECT_EQ(&obs.metrics.GetCounter("requests", {{"model", "m1"}}),
            counter_at);
  EXPECT_EQ(&obs.metrics.GetGauge("depth", {{"model", "m1"}}), gauge_at);
  EXPECT_EQ(&obs.metrics.GetHistogram("wait", {{"model", "m1"}}),
            histogram_at);
  EXPECT_DOUBLE_EQ(counter_at->value(), 2.0);
  EXPECT_DOUBLE_EQ(gauge_at->value(), 7.0);
  EXPECT_EQ(histogram_at->count(), 2u);
}

TEST(SeriesHandleTest, HandlesAndHelpersExportIdentically) {
  // One event sequence, driven once through the one-shot helpers and once
  // through handles, must expose byte-identical text — including series
  // created mid-sequence and custom histogram buckets.
  const auto run = [](bool handles) {
    sim::Simulation sim;
    Observability obs(sim);
    CounterHandle chunks(&obs, "swapserve_stream_chunks_total",
                         {{"model", "m1"}});
    GaugeHandle depth(&obs, "swapserve_queue_depth", {{"model", "m1"}});
    HistogramHandle wait(&obs, "swapserve_queue_wait_seconds",
                         {{"model", "m1"}});
    HistogramHandle bytes(&obs, "swapserve_bytes", {{"gpu", "0"}},
                          DefaultBytesBuckets());
    for (int i = 0; i < 50; ++i) {
      const double v = 0.001 * i * i;
      if (handles) {
        chunks.Increment();
        if (i % 3 == 0) depth.Set(i);
        if (i >= 10) wait.Observe(v);
        if (i % 7 == 0) bytes.Observe(v * 1e9);
      } else {
        IncCounter(&obs, "swapserve_stream_chunks_total", {{"model", "m1"}});
        if (i % 3 == 0) SetGauge(&obs, "swapserve_queue_depth",
                                 {{"model", "m1"}}, i);
        if (i >= 10) Observe(&obs, "swapserve_queue_wait_seconds",
                             {{"model", "m1"}}, v);
        if (i % 7 == 0) Observe(&obs, "swapserve_bytes", {{"gpu", "0"}},
                                v * 1e9, DefaultBytesBuckets());
      }
    }
    obs.metrics.SetHelp("swapserve_queue_depth", "Queued requests");
    return ToPrometheusText(obs.metrics);
  };
  const std::string via_helpers = run(false);
  EXPECT_FALSE(via_helpers.empty());
  EXPECT_EQ(run(true), via_helpers);
}

}  // namespace
}  // namespace swapserve::obs
