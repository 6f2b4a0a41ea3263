// Self-healing control plane: a supervisor loop that restarts crashed
// backends, detects hung engines, and rejuvenates long-resident ones.
//
// The loop scans on a fixed tick grid (sim/tick_grid.h) but sleeps until
// the first tick at which a scan could act: every tick while a backend is
// crashed, the first tick past a busy backend's hang deadline, the first
// tick past a resident backend's rejuvenation age. Engine lifecycle events
// (Notify) pull the wake forward; with nothing pending it parks.
//
// Crash recovery is restart-in-place: a crash happens while the backend is
// resident, so there is no snapshot to restore from — MarkCrashed() already
// freed the device memory and the supervisor re-runs engine initialization
// (weights reload) inside the existing container. A backend whose restarts
// keep failing is quarantined: its circuit breaker is forced open, the
// scheduler fast-fails its requests, and the supervisor re-probes it once
// per breaker cooldown.

#pragma once

#include "core/backend.h"
#include "core/engine_controller.h"
#include "core/metrics.h"
#include "fault/retry.h"
#include "sim/random.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/tick_grid.h"

namespace swapserve::core {

class EngineSupervisor {
 public:
  struct Options {
    sim::SimDuration scan_interval = sim::Seconds(1);
    // A running backend with active requests and no generation progress for
    // this long is declared crashed (hung engine). Zero disables.
    sim::SimDuration hang_deadline;
    // A resident, idle backend is proactively swapped out after this long
    // to shed slow accumulation of engine state. Zero disables.
    sim::SimDuration rejuvenate_after;
    // Backoff between restart attempts of a crashed backend; exhausting
    // max_attempts quarantines the backend.
    fault::RetryPolicy restart_policy;
  };

  EngineSupervisor(sim::Simulation& sim, EngineController& controller,
                   Metrics& metrics, Options options, std::uint64_t seed)
      : sim_(sim),
        controller_(controller),
        metrics_(metrics),
        options_(options),
        rng_(seed),
        grid_(sim, options.scan_interval) {}

  // Spawn the scan loop; Stop() lets the current pass finish and wakes a
  // sleeping loop so it exits.
  void Start();
  void Stop() {
    running_ = false;
    grid_.Interrupt();
  }
  bool running() const { return running_; }

  // Suspend scanning without killing the loop coroutine (a crashed *node*
  // has no supervisor process either — Stop()+Start() would instead stack
  // a second loop on top of the old one still sleeping out its interval).
  // Resume() lets the next scheduled pass run again. A paused loop keeps
  // its wake schedule; its scans are no-ops.
  void Pause() { paused_ = true; }
  void Resume() { paused_ = false; }
  bool paused() const { return paused_; }

  // One scan pass (also called by the loop); returns actions taken
  // (recoveries attempted + rejuvenations).
  sim::Task<int> ScanOnce();

  // Restart a crashed backend under its exclusive lock, with bounded
  // retries. Success leaves it running and kDegraded (the first served
  // request re-promotes it); exhaustion quarantines it and returns the last
  // restart error.
  // swaplint-ok(coro-ref-param): backend outlives the frame (registered)
  sim::Task<Status> Recover(Backend& backend);

  // Wake source: a lifecycle transition of `backend`'s engine (SwapServe
  // installs this as the engine listener). Pulls the loop's wake forward to
  // the first tick at which the transition lets a scan act.
  void Notify(const Backend& backend) { grid_.WakeAt(NextTick(backend)); }

  // Emit recovery/quarantine instants (nullable).
  void BindObservability(obs::Observability* obs) { obs_ = obs; }

  const Options& options() const { return options_; }

 private:
  // The first tick at which ScanOnce() could act on `backend`, or kNever.
  sim::SimTime NextTick(const Backend& backend) const;
  // The earliest NextTick over all backends.
  sim::SimTime PlanWake() const;

  sim::Simulation& sim_;
  EngineController& controller_;
  Metrics& metrics_;
  Options options_;
  sim::Rng rng_;
  obs::Observability* obs_ = nullptr;
  sim::TickGrid grid_;
  bool running_ = false;
  bool paused_ = false;
};

}  // namespace swapserve::core
