// Self-healing control plane: crash restart, quarantine + re-probe, hang
// detection, and age-based rejuvenation.

#include "core/engine_supervisor.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/swap_serve.h"
#include "fixture.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

constexpr const char* kModel = "llama-3.2-1b-fp16";

fault::FaultRule Rule(std::string point, double probability) {
  fault::FaultRule rule;
  rule.point = std::move(point);
  rule.probability = probability;
  return rule;
}

fault::FaultPlan OneRule(fault::FaultRule rule) {
  fault::FaultPlan plan;
  plan.rules.push_back(std::move(rule));
  return plan;
}

TEST(EngineSupervisorTest, CrashedBackendIsRestartedInPlace) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult after;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    ChatResult warm = co_await serve.ChatAndWait(kModel, 128, 32);
    EXPECT_TRUE(warm.ok);
    Backend* b = serve.backend(kModel);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);

    b->engine->MarkCrashed("test-induced crash");
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);
    EXPECT_EQ(bed.gpus[0]->used().count(), 0);  // crash freed the device

    // The next scan (interval 1s) restarts it; a request then serves.
    co_await bed.sim.Delay(sim::Minutes(5));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    EXPECT_GE(b->health.recoveries, 1u);
    after = co_await serve.ChatAndWait(kModel, 128, 32);
    serve.Shutdown();
  });
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_GE(serve.metrics().recoveries, 1u);
  EXPECT_EQ(serve.metrics().quarantines, 0u);
  // A post-recovery request re-promotes the backend to healthy.
  EXPECT_EQ(serve.backend(kModel)->health.state,
            BackendHealth::State::kHealthy);
}

TEST(EngineSupervisorTest, RequestsSurviveACrashViaRequeue) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    // Crash the engine, then immediately submit: the scheduler camps on
    // the crashed backend (bounded crash-wait) and the request completes
    // once the supervisor has restarted it — no terminal error.
    serve.backend(kModel)->engine->MarkCrashed("test-induced crash");
    result = co_await serve.ChatAndWait(kModel, 128, 32);
    serve.Shutdown();
  });
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(serve.metrics().recoveries, 1u);
  EXPECT_EQ(serve.metrics().TotalFailed(), 0u);
}

TEST(EngineSupervisorTest, RepeatedRestartFailureQuarantinesThenRecovers) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.breaker_cooldown_s = 30.0;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    Backend* b = serve.backend(kModel);

    // Every restart attempt fails while this rule is armed.
    fault::FaultRule rule = Rule("engine.restart", 1.0);
    rule.code = StatusCode::kInternal;
    rule.message = "node wedged";
    serve.fault_injector().Configure(OneRule(rule));
    b->engine->MarkCrashed("test-induced crash");
    co_await bed.sim.Delay(sim::Seconds(20));
    EXPECT_EQ(b->health.state, BackendHealth::State::kQuarantined);
    EXPECT_EQ(b->health.breaker.state(),
              fault::CircuitBreaker::State::kOpen);
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);

    // Quarantined backends fast-fail instead of queueing forever.
    ChatResult during = co_await serve.ChatAndWait(kModel, 64, 16);
    EXPECT_FALSE(during.ok);

    // Clear the fault; the supervisor re-probes after the breaker cooldown
    // and brings the backend back.
    serve.fault_injector().Configure({});
    co_await bed.sim.Delay(sim::Minutes(5));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    ChatResult after = co_await serve.ChatAndWait(kModel, 64, 16);
    EXPECT_TRUE(after.ok) << after.error;
    serve.Shutdown();
  });
  EXPECT_GE(serve.metrics().quarantines, 1u);
  EXPECT_GE(serve.metrics().recoveries, 1u);
}

TEST(EngineSupervisorTest, HangDetectionCrashesAndRestartsTheEngine) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.hang_deadline_s = 5.0;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    // One request wedges for 60 (virtual) seconds at entry.
    fault::FaultRule rule = Rule("engine.hang", 1.0);
    rule.stall_s = 60.0;
    rule.fail = false;
    rule.max_fires = 1;
    serve.fault_injector().Configure(OneRule(rule));
    result = co_await serve.ChatAndWait(kModel, 128, 32);
    serve.Shutdown();
  });
  // The supervisor declared the hang a crash, restarted the engine, and the
  // requeued request completed — well before the 60s stall would resolve.
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(serve.metrics().recoveries, 1u);
  EXPECT_GE(serve.metrics().requeues, 1u);
  EXPECT_GE(serve.backend(kModel)->engine->crash_count(), 1u);
}

TEST(EngineSupervisorTest, RejuvenationParksLongResidentIdleBackends) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.rejuvenate_after_s = 60.0;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    EXPECT_EQ(serve.backend(kModel)->engine->state(),
              engine::BackendState::kRunning);
    co_await bed.sim.Delay(sim::Minutes(3));  // idle past the threshold
    EXPECT_EQ(serve.backend(kModel)->engine->state(),
              engine::BackendState::kSwappedOut);
    // It comes back on demand like any parked backend.
    ChatResult again = co_await serve.ChatAndWait(kModel, 64, 16);
    EXPECT_TRUE(again.ok) << again.error;
    serve.Shutdown();
  });
  EXPECT_GE(serve.metrics().rejuvenations, 1u);
}

// --- tick-grid timing -----------------------------------------------------
// The supervisor sleeps through ticks at which a scan cannot act, but every
// scan that acts must run at the virtual instant a 1 s polling loop would
// have run it: on the grid "end of the last scan + k * 1 s". The tests below
// pin those instants (as the polling loop produced them) to the nanosecond
// by probing just before and just after.

constexpr sim::SimDuration kNs = sim::Nanos(1);
sim::SimTime JustBefore(sim::SimTime t) { return sim::SimTime(t.ns() - 1); }

// Trace instants named `name`, in emission order.
std::vector<sim::SimTime> InstantTimes(SwapServe& serve,
                                       const std::string& name) {
  std::vector<sim::SimTime> out;
  for (const obs::TraceEvent& e : serve.obs().trace.Snapshot()) {
    if (e.phase == obs::TraceEvent::Phase::kInstant && e.name == name) {
      out.push_back(sim::SimTime(e.ts_ns));
    }
  }
  return out;
}

TEST(EngineSupervisorTimingTest, CrashIsRecoveredAtFirstTickAtOrAfterIt) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    const sim::SimTime origin = bed.sim.Now();  // the supervisor's grid
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    Backend* b = serve.backend(kModel);

    // Between ticks: the next tick (origin + 101 s) picks it up.
    co_await bed.sim.WaitUntil(origin + sim::Seconds(100.4));
    b->engine->MarkCrashed("test-induced crash");
    co_await bed.sim.WaitUntil(JustBefore(origin + sim::Seconds(101)));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);
    EXPECT_NE(b->health.state, BackendHealth::State::kRecovering);
    co_await bed.sim.Delay(kNs * 2);
    EXPECT_EQ(b->health.state, BackendHealth::State::kRecovering);

    // The recovery scan moved the grid to its own end. A crash that lands
    // exactly on a later tick (queued before that tick's wake) is picked
    // up by that same tick.
    co_await bed.sim.WaitUntil(origin + sim::Seconds(200));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    const std::vector<sim::SimTime> recovered =
        InstantTimes(serve, std::string("recovered:") + kModel);
    EXPECT_EQ(recovered.size(), 1u);
    if (!recovered.empty()) {
      const sim::SimTime on_tick = recovered.front() + sim::Seconds(300);
      co_await bed.sim.WaitUntil(on_tick);
      b->engine->MarkCrashed("test-induced crash on a tick");
      co_await bed.sim.Delay(kNs);
      EXPECT_EQ(b->health.state, BackendHealth::State::kRecovering);
      co_await bed.sim.WaitUntil(on_tick + sim::Seconds(100));
      EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    }
    serve.Shutdown();
  });
  EXPECT_EQ(serve.metrics().recoveries, 2u);
}

TEST(EngineSupervisorTimingTest, HangIsDeclaredAtFirstTickPastTheDeadline) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.hang_deadline_s = 5.0;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  sim::SimTime origin;
  ChatResult hung;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    origin = bed.sim.Now();
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    Backend* b = serve.backend(kModel);

    fault::FaultRule rule = Rule("engine.hang", 1.0);
    rule.stall_s = 60.0;
    rule.fail = false;
    rule.max_fires = 1;
    serve.fault_injector().Configure(OneRule(rule));
    co_await bed.sim.WaitUntil(origin + sim::Seconds(100.25));
    sim::Spawn([&]() -> sim::Task<> {
      hung = co_await serve.ChatAndWait(kModel, 128, 32);
    });
    co_await bed.sim.Delay(sim::Millis(1));
    // The resident backend took the request at once and then stalled.
    EXPECT_EQ(b->engine->last_progress(), origin + sim::Seconds(100.25));
    EXPECT_EQ(b->engine->active_requests(), 1);

    // last_progress + 5 s = origin + 105.25 s; the first tick strictly
    // after it is origin + 106 s.
    co_await bed.sim.WaitUntil(JustBefore(origin + sim::Seconds(106)));
    EXPECT_EQ(b->engine->crash_count(), 0u);
    co_await bed.sim.Delay(kNs * 2);
    EXPECT_EQ(b->engine->crash_count(), 1u);
    co_await bed.sim.WaitUntil(origin + sim::Seconds(300));
    serve.Shutdown();
  });
  EXPECT_TRUE(hung.ok) << hung.error;
  EXPECT_EQ(InstantTimes(serve, std::string("hang_detected:") + kModel),
            std::vector<sim::SimTime>{origin + sim::Seconds(106)});
}

TEST(EngineSupervisorTimingTest, BlockedRejuvenationFiresAtFirstTickAfter) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.rejuvenate_after_s = 60.0;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    const sim::SimTime origin = bed.sim.Now();
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    Backend* b = serve.backend(kModel);

    // A relay-style reader holds the backend from well before the
    // rejuvenation age until origin + 200.5 s: every tick in between finds
    // it due but blocked.
    co_await bed.sim.WaitUntil(origin + sim::Seconds(30.5));
    sim::SimRwLock::SharedGuard reader = co_await b->lock.AcquireShared();
    co_await bed.sim.WaitUntil(origin + sim::Seconds(200.5));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    reader.Release();

    co_await bed.sim.WaitUntil(JustBefore(origin + sim::Seconds(201)));
    EXPECT_FALSE(b->lock.write_locked());
    co_await bed.sim.Delay(kNs * 2);
    EXPECT_TRUE(b->lock.write_locked());  // the rejuvenation swap-out
    co_await bed.sim.WaitUntil(origin + sim::Seconds(260));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kSwappedOut);
    serve.Shutdown();
  });
  EXPECT_EQ(serve.metrics().rejuvenations, 1u);
}

TEST(EngineSupervisorTimingTest, QuarantineIsReprobedOncePerCooldown) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.recovery.breaker_cooldown_s = 30.0;
  cfg.recovery.swap_retry_attempts = 1;  // one restart attempt per probe
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  sim::SimTime origin;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    origin = bed.sim.Now();
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    fault::FaultRule rule = Rule("engine.restart", 1.0);
    rule.code = StatusCode::kInternal;
    rule.message = "node wedged";
    serve.fault_injector().Configure(OneRule(rule));
    co_await bed.sim.WaitUntil(origin + sim::Seconds(100.5));
    serve.backend(kModel)->engine->MarkCrashed("test-induced crash");
    co_await bed.sim.WaitUntil(origin + sim::Seconds(250));
    serve.Shutdown();
  });
  // Each failed probe quarantines at its own tick (the restart fails
  // without taking time); the breaker admits the next probe at the first
  // tick a full cooldown later.
  std::vector<sim::SimTime> expected;
  for (double t : {101.0, 131.0, 161.0, 191.0, 221.0}) {
    expected.push_back(origin + sim::Seconds(t));
  }
  EXPECT_EQ(InstantTimes(serve, std::string("quarantined:") + kModel),
            expected);
}

TEST(EngineSupervisorTimingTest, FailedColdFallbackIsRecoveredAtNextTick) {
  TestBed bed;
  SwapServe serve(bed.sim, bed.MakeConfig({{kModel, "ollama"}}),
                  bed.catalog, bed.hardware());
  bool chat_done = false;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    const sim::SimTime origin = bed.sim.Now();  // the supervisor's grid
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    Backend* b = serve.backend(kModel);
    EXPECT_TRUE((co_await serve.controller().SwapOut(*b, false)).ok());
    EXPECT_TRUE(serve.snapshot_store().Corrupt(b->snapshot).ok());

    // The corrupt restore falls back to a cold restart, whose replacement
    // process stalls past several scan ticks and then fails. Every tick
    // during the stall finds the engine initializing, not crashed.
    fault::FaultRule rule = Rule("engine.restart", 1.0);
    rule.code = StatusCode::kInternal;
    rule.stall_s = 2.5;
    rule.max_fires = 1;
    serve.fault_injector().Configure(OneRule(rule));
    co_await bed.sim.WaitUntil(origin + sim::Seconds(100.25));
    sim::Spawn([&]() -> sim::Task<> {
      (void)co_await serve.ChatAndWait(kModel, 64, 16);
      chat_done = true;
    });
    const sim::SimTime give_up = bed.sim.Now() + sim::Seconds(60);
    while (b->engine->state() != engine::BackendState::kInitializing &&
           bed.sim.Now() < give_up) {
      co_await bed.sim.Delay(sim::Millis(1));
    }
    const std::vector<sim::SimTime> fallback =
        InstantTimes(serve, std::string("cold_fallback:") + kModel);
    EXPECT_EQ(fallback.size(), 1u);
    if (fallback.empty()) co_return;

    // The failed restart leaves the engine crashed at fallback + 2.5 s;
    // the first 1 s tick at or after that instant starts the recovery.
    const sim::SimTime failed = fallback.front() + sim::Seconds(2.5);
    const std::int64_t step = sim::Seconds(1).ns();
    const sim::SimTime tick =
        origin + sim::Nanos(((failed - origin).ns() + step - 1) / step * step);
    co_await bed.sim.WaitUntil(JustBefore(tick));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kCrashed);
    EXPECT_NE(b->health.state, BackendHealth::State::kRecovering);
    co_await bed.sim.Delay(kNs * 2);
    EXPECT_EQ(b->health.state, BackendHealth::State::kRecovering);
    co_await bed.sim.WaitUntil(tick + sim::Seconds(60));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kRunning);
    serve.Shutdown();
  });
  EXPECT_TRUE(chat_done);
  EXPECT_EQ(serve.metrics().recoveries, 1u);
}

TEST(EngineSupervisorTimingTest, IdleServerProcessesAlmostNoEvents) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.global.monitor_interval_s = 3600;  // 24 samples a day
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  std::uint64_t idle_events = 0;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    EXPECT_NE(serve.supervisor(), nullptr);
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    const std::uint64_t before = bed.sim.processed_events();
    co_await bed.sim.Delay(sim::Hours(24));
    idle_events = bed.sim.processed_events() - before;
    serve.Shutdown();
  });
  // A deterministic count, not a timing gate: a 1 s poll alone would be
  // 86400 events.
  EXPECT_LT(idle_events, 100u);
}

TEST(IdleReaperTimingTest, ReapsAtFirstTickAtOrAfterTheIdleDeadline) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.global.idle_swap_out_s = 60;  // scan ticks 15 s apart
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    const sim::SimTime origin = bed.sim.Now();
    Backend* b = serve.backend(kModel);
    co_await bed.sim.WaitUntil(origin + sim::Seconds(100.5));
    EXPECT_TRUE((co_await serve.ChatAndWait(kModel, 64, 16)).ok);
    EXPECT_EQ(b->last_accessed, origin + sim::Seconds(100.5));
    // Idle from origin + 100.5 s; the first 15 s tick at or after
    // origin + 160.5 s is origin + 165 s.
    co_await bed.sim.WaitUntil(JustBefore(origin + sim::Seconds(165)));
    EXPECT_FALSE(b->lock.write_locked());
    co_await bed.sim.Delay(kNs * 2);
    EXPECT_TRUE(b->lock.write_locked());
    co_await bed.sim.WaitUntil(origin + sim::Seconds(200));
    EXPECT_EQ(b->engine->state(), engine::BackendState::kSwappedOut);
    serve.Shutdown();
  });
}

}  // namespace
}  // namespace swapserve::core
