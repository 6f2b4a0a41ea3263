// Crash at every suspension of every swap path.
//
// A node crash (power loss) can land between any two awaits of a swap
// coroutine. For each swap path this test first runs the swap fault-free
// and collects the span boundaries (`controller.*` and `ckpt.*`) it emits;
// those are exactly the instants at which the swap resumes. It then reruns
// the swap once per boundary, and once 1 ns after it, with the target
// engine crashed at that instant the way Node::Crash does it, and checks
// the crash-between-awaits contract once the run drains:
//   - a crash that found the target's process held by the swap made the
//     swap return UNAVAILABLE and left the backend crashed;
//   - no torn snapshot survives: the store holds exactly one snapshot per
//     backend that claims one;
//   - the crashed backend owns no device memory;
//   - a crash that found the target parked as a snapshot (Node::Crash
//     leaves those alone) did not disturb the swap;
//   - no task-manager reservation or release promise is left behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/engine_controller.h"
#include "engine/factory.h"
#include "fault/fault_injector.h"
#include "fixture.h"
#include "obs/observability.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

enum class SwapPath {
  kSwapOutSerial,
  kSwapOutPipelined,
  kSwapIn,
  kPipelinedSwapIn,
  kSwapOverOutgoing,
  kSwapOverIncoming,
};

const char* PathName(SwapPath path) {
  switch (path) {
    case SwapPath::kSwapOutSerial: return "SwapOut/serial";
    case SwapPath::kSwapOutPipelined: return "SwapOut/pipelined";
    case SwapPath::kSwapIn: return "SwapIn";
    case SwapPath::kPipelinedSwapIn: return "PipelinedSwapIn";
    case SwapPath::kSwapOverOutgoing: return "SwapOver/outgoing";
    case SwapPath::kSwapOverIncoming: return "SwapOver/incoming";
  }
  return "?";
}

// Two vLLM models that cannot share the H100 (~72 GiB each): every swap
// moves a full footprint, and sleep mode adds the engine's own awaits
// (PrepareForCheckpoint, AfterRestore) to the suspension points.
constexpr const char* kModelA = "llama-3.1-8b-fp16";
constexpr const char* kModelB = "llama-3.2-1b-fp16";

struct CrashBed {
  CrashBed()
      : obs(bed.sim),
        store(GiB(256)),
        ckpt(bed.sim, store),
        tm(bed.sim, {bed.gpus[0].get()}),
        controller(bed.sim, ckpt, tm, metrics) {
    tm.set_delegate(&controller);
    ckpt.BindObservability(&obs);
    controller.BindObservability(&obs);
    a = MakeBackend(kModelA);
    b = MakeBackend(kModelB);
  }

  std::unique_ptr<Backend> MakeBackend(const std::string& model_id) {
    ModelEntry entry;
    entry.model_id = model_id;
    entry.engine = "vllm";
    model::ModelSpec spec = bed.catalog.Find(model_id).value();
    engine::EngineEnv env{.sim = &bed.sim,
                          .gpu = bed.gpus[0].get(),
                          .storage = &bed.storage,
                          .runtime = &bed.runtime,
                          .tp_group = {}};
    auto backend = std::make_unique<Backend>(
        bed.sim, entry, spec,
        engine::CreateEngine(engine::EngineKind::kVllm, env, spec,
                             engine::EngineOptions{}, model_id),
        16);
    controller.RegisterBackend(backend.get());
    return backend;
  }

  // The backend whose engine the crash hits on `path`.
  Backend& Target(SwapPath path) {
    return path == SwapPath::kSwapOverIncoming ? *b : *a;
  }

  TestBed bed;
  obs::Observability obs;
  Metrics metrics;
  ckpt::SnapshotStore store;
  ckpt::CheckpointEngine ckpt;
  TaskManager tm;
  EngineController controller;
  std::unique_ptr<Backend> a;
  std::unique_ptr<Backend> b;
};

// Brings the bed to the state the swap on `path` starts from.
sim::Task<> Prepare(CrashBed& cb, SwapPath path) {
  const bool pipelined = path != SwapPath::kSwapOutSerial &&
                         path != SwapPath::kSwapIn;
  cb.controller.set_swap_pipeline({.enabled = pipelined});
  switch (path) {
    case SwapPath::kSwapOutSerial:
    case SwapPath::kSwapOutPipelined:
      SWAP_CHECK((co_await cb.a->engine->ColdStart()).ok());
      break;
    case SwapPath::kSwapIn:
    case SwapPath::kPipelinedSwapIn:
      SWAP_CHECK((co_await cb.a->engine->ColdStart()).ok());
      SWAP_CHECK((co_await cb.controller.SwapOut(*cb.a, false)).ok());
      break;
    case SwapPath::kSwapOverOutgoing:
    case SwapPath::kSwapOverIncoming:
      SWAP_CHECK((co_await cb.b->engine->ColdStart()).ok());
      SWAP_CHECK((co_await cb.controller.SwapOut(*cb.b, false)).ok());
      SWAP_CHECK((co_await cb.a->engine->ColdStart()).ok());
      break;
  }
}

sim::Task<Status> RunSwap(CrashBed& cb, SwapPath path) {
  switch (path) {
    case SwapPath::kSwapOutSerial:
    case SwapPath::kSwapOutPipelined:
      co_return co_await cb.controller.SwapOut(*cb.a, false);
    case SwapPath::kSwapIn:
      co_return co_await cb.controller.SwapIn(*cb.a);
    case SwapPath::kPipelinedSwapIn:
      co_return co_await cb.controller.PipelinedSwapIn(*cb.a);
    case SwapPath::kSwapOverOutgoing:
    case SwapPath::kSwapOverIncoming: {
      Result<SwapOverResult> over =
          co_await cb.controller.SwapOver(*cb.a, *cb.b);
      co_return over.status();
    }
  }
  co_return Internal("unknown swap path");
}

// Node::Crash powers off every engine that holds a live process; an engine
// parked as a snapshot (or never started, or already dead) is left alone.
bool Crashable(engine::BackendState state) {
  return state != engine::BackendState::kSwappedOut &&
         state != engine::BackendState::kUninitialized &&
         state != engine::BackendState::kStopped &&
         state != engine::BackendState::kCrashed;
}

struct Outcome {
  bool returned = false;
  bool crashed = false;  // the crash found the target holding a process
  Status status = Status::Ok();
};

// Runs the swap once. With `crash_after` set, the target engine is crashed
// that long after the swap is called. The crash timer is armed once the
// swap has run up to its first suspension, so at a shared instant it runs
// after the swap's already-scheduled wake-ups and before those the swap
// schedules later. `spans` receives the controller/ckpt spans the swap
// emitted, relative to its start.
Outcome RunOnce(CrashBed& cb, SwapPath path,
                std::optional<sim::SimDuration> crash_after,
                std::vector<obs::TraceEvent>* spans = nullptr) {
  Outcome outcome;
  std::size_t first_event = 0;
  sim::SimTime t0;
  cb.bed.RunTask([&]() -> sim::Task<> {
    co_await Prepare(cb, path);
    first_event = cb.obs.trace.Snapshot().size();
    t0 = cb.bed.sim.Now();
    // The bed and `outcome` outlive the run, which drains before return.
    sim::Spawn([&cb, &outcome, path]() -> sim::Task<> {
      outcome.status = co_await RunSwap(cb, path);
      outcome.returned = true;
    });
    if (!crash_after.has_value()) co_return;
    co_await cb.bed.sim.Delay(*crash_after);
    Backend& target = cb.Target(path);
    if (Crashable(target.engine->state())) {
      target.engine->MarkCrashed("node lost power");
      outcome.crashed = true;
    }
  });
  SWAP_CHECK_MSG(cb.obs.trace.dropped() == 0, "trace ring wrapped");
  if (spans != nullptr) {
    const std::vector<obs::TraceEvent> events = cb.obs.trace.Snapshot();
    for (std::size_t i = first_event; i < events.size(); ++i) {
      obs::TraceEvent e = events[i];
      if (e.phase != obs::TraceEvent::Phase::kComplete) continue;
      if (e.category != "controller" && e.category != "ckpt") continue;
      e.ts_ns -= t0.ns();
      spans->push_back(std::move(e));
    }
  }
  return outcome;
}

// The crash table of one path: every boundary of a controller/ckpt span on
// the target's track (plus the controller span, whichever track it is on)
// and 1 ns after it, up to the instant the swap returns. `held` is the
// open interval of the target's own checkpoint/restore (its `ckpt.*`
// spans), inside which the target's process always belongs to the swap.
struct CrashTable {
  std::vector<std::int64_t> instants;
  std::int64_t held_begin = 0;
  std::int64_t held_end = 0;
};

CrashTable MakeCrashTable(SwapPath path) {
  CrashBed cb;
  std::vector<obs::TraceEvent> spans;
  const Outcome ref = RunOnce(cb, path, std::nullopt, &spans);
  SWAP_CHECK_MSG(ref.returned && ref.status.ok(),
                 "fault-free reference swap failed");
  const std::string target = cb.Target(path).name();
  CrashTable table;
  table.held_begin = -1;
  std::int64_t end = -1;
  std::set<std::int64_t> bounds;
  for (const obs::TraceEvent& e : spans) {
    const bool top = e.name.rfind("controller.swap", 0) == 0;
    if (top) end = std::max(end, e.ts_ns + e.dur_ns);
    if (!top && e.track != target) continue;
    bounds.insert(e.ts_ns);
    bounds.insert(e.ts_ns + e.dur_ns);
    if (e.category == "ckpt") {
      if (table.held_begin < 0) table.held_begin = e.ts_ns;
      table.held_begin = std::min(table.held_begin, e.ts_ns);
      table.held_end = std::max(table.held_end, e.ts_ns + e.dur_ns);
    }
  }
  SWAP_CHECK_MSG(end > 0 && table.held_begin >= 0,
                 "reference run emitted no swap spans");
  for (std::int64_t t : bounds) {
    for (std::int64_t c : {t, t + 1}) {
      if (c <= end) table.instants.push_back(c);
    }
  }
  std::sort(table.instants.begin(), table.instants.end());
  table.instants.erase(
      std::unique(table.instants.begin(), table.instants.end()),
      table.instants.end());
  return table;
}

class SwapCrashTest : public ::testing::TestWithParam<SwapPath> {};

TEST_P(SwapCrashTest, CrashAtEverySuspensionLeavesNoResidue) {
  const SwapPath path = GetParam();
  const CrashTable table = MakeCrashTable(path);
  // Every path suspends at least around its freeze, lock and transfer.
  EXPECT_GE(table.instants.size(), 8u) << PathName(path);
  for (std::int64_t at_ns : table.instants) {
    SCOPED_TRACE(std::string(PathName(path)) + " crash at +" +
                 std::to_string(at_ns) + " ns");
    CrashBed cb;
    const Outcome out = RunOnce(cb, path, sim::SimDuration(at_ns));
    ASSERT_TRUE(out.returned) << "swap never returned";
    Backend& target = cb.Target(path);
    if (at_ns > table.held_begin && at_ns < table.held_end) {
      EXPECT_TRUE(out.crashed) << "mid-checkpoint crash found no process";
    }
    if (out.crashed) {
      EXPECT_EQ(out.status.code(), StatusCode::kUnavailable) << out.status;
      EXPECT_EQ(target.engine->state(), engine::BackendState::kCrashed);
      for (hw::GpuId gpu : target.GpuIds()) {
        EXPECT_EQ(cb.bed.gpus[gpu]->UsedBy(target.name()), Bytes(0))
            << "crashed backend still owns device memory on gpu" << gpu;
      }
    } else {
      // The crash came while the target sat parked as a snapshot (before
      // the incoming side's restore picked it up, or after the outgoing
      // side committed); Node::Crash leaves such an engine alone, so the
      // swap completes.
      EXPECT_TRUE(out.status.ok()) << out.status;
    }

    // No torn snapshot survives as a phantom copy, and no claimed one is
    // missing from the store.
    std::size_t claimed = 0;
    for (Backend* b : {cb.a.get(), cb.b.get()}) {
      if (!b->has_snapshot) continue;
      ++claimed;
      EXPECT_TRUE(cb.store.Get(b->snapshot).ok()) << b->name();
    }
    EXPECT_EQ(cb.store.count(), claimed);
    for (std::size_t g = 0; g < cb.bed.gpus.size(); ++g) {
      const auto gpu = static_cast<hw::GpuId>(g);
      EXPECT_EQ(cb.tm.OutstandingReserved(gpu), Bytes(0));
      EXPECT_EQ(cb.tm.PendingRelease(gpu), Bytes(0));
    }
  }
}

// A crash mid-pipeline frees every chunk restored so far (the driver's
// sweep of the dead process); a chunk that then fails sends the pipelined
// restore into its rollback, which must not free those chunks again.
TEST(SwapCrashRollbackTest, ChunkFailureAfterMidPipelineCrashIsSwept) {
  std::int64_t crash_at_ns = -1;
  {
    CrashBed ref;
    std::vector<obs::TraceEvent> spans;
    const Outcome out =
        RunOnce(ref, SwapPath::kPipelinedSwapIn, std::nullopt, &spans);
    ASSERT_TRUE(out.returned && out.status.ok()) << out.status;
    for (const obs::TraceEvent& e : spans) {
      if (e.name == "restore_pipeline") crash_at_ns = e.ts_ns + e.dur_ns / 2;
    }
  }
  ASSERT_GT(crash_at_ns, 0) << "reference run has no restore_pipeline span";

  CrashBed cb;
  fault::FaultInjector injector(cb.bed.sim, /*seed=*/1);
  cb.ckpt.BindFaultInjector(&injector);
  Outcome out;
  cb.bed.RunTask([&]() -> sim::Task<> {
    co_await Prepare(cb, SwapPath::kPipelinedSwapIn);
    // The bed and `out` outlive the run, which drains before return.
    sim::Spawn([&cb, &out]() -> sim::Task<> {
      out.status = co_await RunSwap(cb, SwapPath::kPipelinedSwapIn);
      out.returned = true;
    });
    co_await cb.bed.sim.Delay(sim::SimDuration(crash_at_ns));
    EXPECT_EQ(cb.a->engine->state(), engine::BackendState::kSwapping);
    cb.a->engine->MarkCrashed("node lost power");
    // Every chunk the pipeline starts from here on fails.
    fault::FaultRule rule;
    rule.point = "ckpt.chunk";
    rule.owner = kModelA;
    injector.Configure({.rules = {rule}});
  });
  ASSERT_TRUE(out.returned) << "swap never returned";
  EXPECT_GT(injector.fires("ckpt.chunk"), 0u);
  EXPECT_FALSE(out.status.ok());
  EXPECT_EQ(cb.a->engine->state(), engine::BackendState::kCrashed);
  EXPECT_EQ(cb.bed.gpus[0]->UsedBy(kModelA), Bytes(0));
  EXPECT_EQ(cb.tm.OutstandingReserved(0), Bytes(0));
  EXPECT_EQ(cb.tm.PendingRelease(0), Bytes(0));
}

INSTANTIATE_TEST_SUITE_P(
    AllSwapPaths, SwapCrashTest,
    ::testing::Values(SwapPath::kSwapOutSerial, SwapPath::kSwapOutPipelined,
                      SwapPath::kSwapIn, SwapPath::kPipelinedSwapIn,
                      SwapPath::kSwapOverOutgoing,
                      SwapPath::kSwapOverIncoming),
    [](const ::testing::TestParamInfo<SwapPath>& info) {
      std::string name = PathName(info.param);
      std::replace(name.begin(), name.end(), '/', '_');
      return name;
    });

}  // namespace
}  // namespace swapserve::core
