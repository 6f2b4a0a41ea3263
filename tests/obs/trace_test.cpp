// Trace recorder tests: ring semantics, span timing against the virtual
// clock, inert-span behavior, and the interned/typed record contract.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "sim/simulation.h"

namespace swapserve::obs {
namespace {

TEST(TraceRecorderTest, EmitAndSnapshotInOrder) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  rec.Instant("a", "test", "main");
  rec.Instant("b", "test", "main");
  rec.Instant("c", "test", "main");
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.total_emitted(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a");
  EXPECT_EQ(snap[1].name, "b");
  EXPECT_EQ(snap[2].name, "c");
}

TEST(TraceRecorderTest, RingWrapsKeepingNewest) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    rec.Instant(std::to_string(i), "test", "main");
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_emitted(), 6u);
  EXPECT_EQ(rec.dropped(), 2u);
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().name, "2");  // oldest retained
  EXPECT_EQ(snap.back().name, "5");
}

TEST(TraceRecorderTest, SpanMeasuresVirtualTime) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  Span span;
  sim.Schedule(sim::Seconds(1), [&] {
    span = rec.StartSpan("work", "test", "main");
    span.AddArg("k", "v");
  });
  sim.Schedule(sim::Seconds(3), [&] { span.End(); });
  sim.Run();
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].phase, TraceEvent::Phase::kComplete);
  EXPECT_EQ(snap[0].ts_ns, sim::Seconds(1).ns());
  EXPECT_EQ(snap[0].dur_ns, sim::Seconds(2).ns());
  EXPECT_EQ(snap[0].name, "work");
  EXPECT_EQ(snap[0].category, "test");
  EXPECT_EQ(snap[0].track, "main");
  ASSERT_EQ(snap[0].args.size(), 1u);
  EXPECT_EQ(snap[0].args[0].first, "k");
  EXPECT_EQ(snap[0].args[0].second, "v");
}

TEST(TraceRecorderTest, NestedSpansShareTrack) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  Span outer;
  Span inner;
  sim.Schedule(sim::Seconds(0), [&] {
    outer = rec.StartSpan("outer", "test", "model-a");
  });
  sim.Schedule(sim::Seconds(1), [&] {
    inner = rec.StartSpan("inner", "test", "model-a");
  });
  sim.Schedule(sim::Seconds(2), [&] { inner.End(); });
  sim.Schedule(sim::Seconds(4), [&] { outer.End(); });
  sim.Run();
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  // Inner ends first so it emits first; time containment is what viewers
  // use to nest them.
  EXPECT_EQ(snap[0].name, "inner");
  EXPECT_EQ(snap[1].name, "outer");
  EXPECT_GE(snap[0].ts_ns, snap[1].ts_ns);
  EXPECT_LE(snap[0].ts_ns + snap[0].dur_ns,
            snap[1].ts_ns + snap[1].dur_ns);
}

TEST(TraceRecorderTest, EndIsIdempotent) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  Span span = rec.StartSpan("once", "test", "main");
  span.End();
  span.End();
  EXPECT_EQ(rec.total_emitted(), 1u);
}

TEST(TraceRecorderTest, DefaultAndMovedFromSpansAreInert) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  {
    Span inert;  // never attached
    EXPECT_FALSE(inert.active());
  }
  Span a = rec.StartSpan("moved", "test", "main");
  Span b = std::move(a);
  EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.active());
  a.End();  // no-op
  EXPECT_EQ(rec.total_emitted(), 0u);
  b.End();
  EXPECT_EQ(rec.total_emitted(), 1u);
}

TEST(TraceRecorderTest, DisabledRecorderEmitsNothing) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  rec.set_enabled(false);
  Span span = rec.StartSpan("off", "test", "main");
  span.End();
  rec.Instant("off-instant", "test", "main");
  EXPECT_EQ(rec.total_emitted(), 0u);
  EXPECT_EQ(rec.Snapshot().size(), 0u);
}

TEST(TraceRecorderTest, InstantCarriesArgs) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  rec.Instant("decision", "policy", "gpu0", {{"victim", "model-b"}});
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(snap[0].dur_ns, 0);
  ASSERT_EQ(snap[0].args.size(), 1u);
  EXPECT_EQ(snap[0].args[0].second, "model-b");
}

// Numeric args are stored as numbers and rendered at Snapshot() with the
// std::to_string overload of their type, so they read exactly as the text
// the call sites used to build.
TEST(TraceRecorderTest, NumericArgsRenderAsToString) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::uint64_t kUMax = std::numeric_limits<std::uint64_t>::max();
  rec.Instant("ints", "test", "main",
              {{"min", kMin}, {"max", kMax}, {"neg", -42}, {"umax", kUMax},
               {"int", 7}});
  {
    Span span = rec.StartSpan("doubles", "test", "main");
    span.AddArg("half", 0.5);
    span.AddArg("neg", -1234.5678901);
    span.AddArg("tiny", 1e-9);
    span.AddArg("big", 6.02e23);
    span.AddArg("zero", 0.0);
  }
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  const std::vector<std::pair<std::string, std::string>> ints = {
      {"min", std::to_string(kMin)},  {"max", std::to_string(kMax)},
      {"neg", std::to_string(-42)},   {"umax", std::to_string(kUMax)},
      {"int", std::to_string(7)}};
  EXPECT_EQ(snap[0].args, ints);
  const std::vector<std::pair<std::string, std::string>> doubles = {
      {"half", std::to_string(0.5)},
      {"neg", std::to_string(-1234.5678901)},
      {"tiny", std::to_string(1e-9)},
      {"big", std::to_string(6.02e23)},
      {"zero", std::to_string(0.0)}};
  EXPECT_EQ(snap[1].args, doubles);
}

// The front cache keys on (data pointer, length) but only trusts a hit
// whose bytes match: a buffer rewritten in place must not get the id of
// what it held before.
TEST(TraceRecorderTest, ReusedAddressWithNewContentsInternsFresh) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  std::string buffer = "model-a-long-enough-for-the-heap";
  const char* const data = buffer.data();
  const TraceStringId first = rec.Intern(buffer);
  EXPECT_EQ(rec.Intern(buffer), first);
  buffer[6] = 'b';  // same address, same length, different bytes
  ASSERT_EQ(buffer.data(), data);
  const TraceStringId second = rec.Intern(buffer);
  EXPECT_NE(second, first);
  EXPECT_EQ(rec.Intern("model-b-long-enough-for-the-heap"), second);
  buffer[6] = 'a';
  EXPECT_EQ(rec.Intern(buffer), first);
  EXPECT_EQ(rec.interned_count(), 2u);

  // Both strings render through the ring unchanged.
  rec.Instant(buffer, "test", "main");
  buffer[6] = 'b';
  rec.Instant(buffer, "test", "main");
  const std::vector<TraceEvent> snap = rec.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "model-a-long-enough-for-the-heap");
  EXPECT_EQ(snap[1].name, "model-b-long-enough-for-the-heap");
}

TEST(TraceRecorderTest, DisabledRecorderInternsNothing) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  rec.set_enabled(false);
  {
    Span span = rec.StartSpan("off", "test", "main");
    span.AddArg("key", "value");
    span.AddArg("bytes", 1024);
  }
  rec.Instant("off-instant", "test", "main", {{"victim", "model-b"}});
  EXPECT_EQ(rec.interned_count(), 0u);
  EXPECT_EQ(rec.total_emitted(), 0u);
}

#if GTEST_HAS_DEATH_TEST

TEST(TraceRecorderDeathTest, SixthArgTripsTheCheck) {
  sim::Simulation sim;
  TraceRecorder rec(sim, /*capacity=*/8);
  Span span = rec.StartSpan("full", "test", "main");
  for (std::size_t i = 0; i < TraceRecord::kMaxArgs; ++i) {
    span.AddArg("arg", static_cast<int>(i));
  }
  EXPECT_DEATH(span.AddArg("sixth", 6), "at most TraceRecord::kMaxArgs");
  EXPECT_DEATH(rec.Instant("full", "test", "main",
                           {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5},
                            {"f", 6}}),
               "at most TraceRecord::kMaxArgs");
}

#endif  // GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace swapserve::obs
