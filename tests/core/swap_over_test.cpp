// Combined pipelined hot-swap (SwapOver): the eviction's D2H drain overlaps
// the restore's H2D stream on the duplex PCIe link, gated by the
// freed-bytes watermark. Covers the happy path, preconditions, the
// scheduler's chunk-gated swap-in, and the speedup over the serial path.

#include <gtest/gtest.h>

#include "core/swap_serve.h"
#include "fixture.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

constexpr const char* kBig = "deepseek-r1-14b-fp16";
constexpr const char* kSmall = "llama-3.1-8b-fp16";

Config TwoModelConfig(TestBed& bed, bool pipelined) {
  Config cfg = bed.MakeConfig({{kBig, "vllm"}, {kSmall, "vllm"}});
  cfg.global.pipelined_swap = pipelined;
  return cfg;
}

TEST(SwapOverTest, SwitchesModelsWithOverlap) {
  TestBed bed;
  SwapServe serve(bed.sim, TwoModelConfig(bed, true), bed.catalog,
                  bed.hardware());
  Backend* big = serve.backend(kBig);
  Backend* small = serve.backend(kSmall);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    // Exercises the scheduler's pipelined (chunk-gated) swap-in too.
    ChatResult r = co_await serve.ChatAndWait(kBig, 64, 16);
    EXPECT_TRUE(r.ok) << r.error;

    auto over = co_await serve.controller().SwapOver(*big, *small);
    EXPECT_TRUE(over.ok()) << over.status();
    EXPECT_EQ(big->engine->state(), engine::BackendState::kSwappedOut);
    EXPECT_TRUE(big->has_snapshot);
    EXPECT_EQ(small->engine->state(), engine::BackendState::kRunning);
    EXPECT_FALSE(small->has_snapshot);
    // The two transfer directions actually overlapped.
    EXPECT_GT(over->overlap.ns(), 0);
    EXPECT_GT(over->elapsed.ns(), 0);
    // Memory accounting is clean: only the incoming model is resident and
    // no reservation or release promise is left dangling.
    EXPECT_EQ(bed.gpus[0]->used(), bed.gpus[0]->UsedBy(kSmall));
    EXPECT_EQ(bed.gpus[0]->UsedBy(kBig), Bytes(0));
    EXPECT_EQ(serve.task_manager().OutstandingReserved(0), Bytes(0));
    EXPECT_EQ(serve.task_manager().PendingRelease(0), Bytes(0));

    // The incoming model serves immediately, no further swap.
    const std::uint64_t swaps_before = serve.metrics().swap_ins;
    ChatResult r2 = co_await serve.ChatAndWait(kSmall, 64, 16);
    EXPECT_TRUE(r2.ok) << r2.error;
    EXPECT_EQ(serve.metrics().swap_ins, swaps_before);
    serve.Shutdown();
  });
  EXPECT_EQ(serve.metrics().swap_overs, 1u);
  EXPECT_GT(serve.metrics().swap_overlap_s.max(), 0.0);
}

TEST(SwapOverTest, BeatsSerialSwapOutThenSwapIn) {
  auto switch_latency = [](bool pipelined) {
    TestBed bed;
    SwapServe serve(bed.sim, TwoModelConfig(bed, pipelined), bed.catalog,
                    bed.hardware());
    Backend* big = serve.backend(kBig);
    Backend* small = serve.backend(kSmall);
    double latency = -1;
    bed.RunTask([&]() -> sim::Task<> {
      EXPECT_TRUE((co_await serve.Initialize()).ok());
      ChatResult r = co_await serve.ChatAndWait(kBig, 64, 16);
      EXPECT_TRUE(r.ok) << r.error;
      const sim::SimTime start = bed.sim.Now();
      if (pipelined) {
        auto over = co_await serve.controller().SwapOver(*big, *small);
        EXPECT_TRUE(over.ok()) << over.status();
        latency = over->elapsed.ToSeconds();
      } else {
        EXPECT_TRUE(
            (co_await serve.controller().SwapOut(*big, false)).ok());
        auto pin = co_await serve.scheduler().EnsureRunningAndPin(*small);
        EXPECT_TRUE(pin.ok()) << pin.status();
        latency = (bed.sim.Now() - start).ToSeconds();
        pin->Release();
      }
      serve.Shutdown();
    });
    return latency;
  };
  const double serial = switch_latency(false);
  const double pipelined = switch_latency(true);
  ASSERT_GT(serial, 0.0);
  ASSERT_GT(pipelined, 0.0);
  // The issue's acceptance bar: >= 30% lower model-switch latency.
  EXPECT_LT(pipelined, serial * 0.7)
      << "serial " << serial << " s, pipelined " << pipelined << " s";
}

TEST(SwapOverTest, RequiresPipelining) {
  TestBed bed;
  SwapServe serve(bed.sim, TwoModelConfig(bed, false), bed.catalog,
                  bed.hardware());
  Backend* big = serve.backend(kBig);
  Backend* small = serve.backend(kSmall);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    ChatResult r = co_await serve.ChatAndWait(kBig, 64, 16);
    EXPECT_TRUE(r.ok) << r.error;
    auto over = co_await serve.controller().SwapOver(*big, *small);
    EXPECT_EQ(over.status().code(), StatusCode::kFailedPrecondition);
    serve.Shutdown();
  });
}

TEST(SwapOverTest, FailsWhenOutgoingNotRunning) {
  TestBed bed;
  SwapServe serve(bed.sim, TwoModelConfig(bed, true), bed.catalog,
                  bed.hardware());
  Backend* big = serve.backend(kBig);
  Backend* small = serve.backend(kSmall);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    // Both models are parked after init; there is nothing to evict.
    auto over = co_await serve.controller().SwapOver(*big, *small);
    EXPECT_EQ(over.status().code(), StatusCode::kFailedPrecondition);
    // Nothing changed; the incoming side still restores normally.
    ChatResult r = co_await serve.ChatAndWait(kSmall, 64, 16);
    EXPECT_TRUE(r.ok) << r.error;
    serve.Shutdown();
  });
}

TEST(SwapOverTest, FailsWhenIncomingHasNoSnapshot) {
  TestBed bed;
  SwapServe serve(bed.sim, TwoModelConfig(bed, true), bed.catalog,
                  bed.hardware());
  Backend* big = serve.backend(kBig);
  Backend* small = serve.backend(kSmall);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    ChatResult r = co_await serve.ChatAndWait(kBig, 64, 16);
    EXPECT_TRUE(r.ok) << r.error;
    // Simulate a dropped snapshot: the incoming side cannot restore.
    small->has_snapshot = false;
    auto over = co_await serve.controller().SwapOver(*big, *small);
    EXPECT_EQ(over.status().code(), StatusCode::kFailedPrecondition);
    // The outgoing model is untouched and keeps serving.
    EXPECT_EQ(big->engine->state(), engine::BackendState::kRunning);
    ChatResult r2 = co_await serve.ChatAndWait(kBig, 64, 16);
    EXPECT_TRUE(r2.ok) << r2.error;
    serve.Shutdown();
  });
}

// A corrupt incoming snapshot (DATA_LOSS at restore) gets the same
// treatment as on the plain swap-in paths: the snapshot is dropped and the
// incoming backend is rebuilt from a cold start.
TEST(SwapOverTest, CorruptIncomingSnapshotFallsBackToColdStart) {
  TestBed bed;
  SwapServe serve(bed.sim, TwoModelConfig(bed, true), bed.catalog,
                  bed.hardware());
  Backend* big = serve.backend(kBig);
  Backend* small = serve.backend(kSmall);
  fault::FaultRule corrupt;
  corrupt.point = "snapshot.corrupt";
  corrupt.owner = kSmall;
  corrupt.max_fires = 1;
  serve.fault_injector().Configure(fault::FaultPlan{.rules = {corrupt}});
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    ChatResult r = co_await serve.ChatAndWait(kBig, 64, 16);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(small->has_snapshot);
    const ckpt::SnapshotId corrupt_id = small->snapshot;
    EXPECT_EQ(serve.snapshot_store().Verify(corrupt_id).code(),
              StatusCode::kDataLoss);

    const sim::SimTime start = bed.sim.Now();
    auto over = co_await serve.controller().SwapOver(*big, *small);
    EXPECT_TRUE(over.ok()) << over.status();
    EXPECT_EQ(small->engine->state(), engine::BackendState::kRunning);
    EXPECT_FALSE(small->has_snapshot);
    EXPECT_FALSE(serve.snapshot_store().Get(corrupt_id).ok());
    EXPECT_EQ(big->engine->state(), engine::BackendState::kSwappedOut);
    EXPECT_TRUE(big->has_snapshot);
    if (over.ok()) {
      // Timed to the rebuilt engine; nothing was restored, so no overlap.
      EXPECT_EQ(over->elapsed, bed.sim.Now() - start);
      EXPECT_EQ(over->overlap.ns(), 0);
    }
    ChatResult r2 = co_await serve.ChatAndWait(kSmall, 64, 16);
    EXPECT_TRUE(r2.ok) << r2.error;
    serve.Shutdown();
  });
  EXPECT_EQ(serve.metrics().recoveries, 1u);
  std::size_t fallbacks = 0;
  for (const obs::TraceEvent& e : serve.obs().trace.Snapshot()) {
    if (e.name == std::string("cold_fallback:") + kSmall) ++fallbacks;
  }
  EXPECT_EQ(fallbacks, 1u);
}

}  // namespace
}  // namespace swapserve::core
