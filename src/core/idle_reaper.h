// Proactive idle swap-out.
//
// The §3.3 workflow swaps backends out only under memory pressure; this
// optional policy loop additionally parks backends that have been idle for
// a configured period, freeing GPU memory (and shrinking future preemption
// work) before pressure arrives — the elasticity knob a serverless operator
// would tune against the snapshot-store budget.
//
// Like the supervisor, the loop keeps a fixed tick grid but sleeps until
// the first tick at which some resident backend has been idle for the
// threshold; a backend becoming resident (Notify) pulls the wake forward.

#pragma once

#include "core/backend.h"
#include "core/engine_controller.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "sim/tick_grid.h"

namespace swapserve::core {

class IdleReaper {
 public:
  // Backends idle (no queued, active, or recent requests) for at least
  // `idle_threshold` are swapped out, at scan ticks `scan_interval` apart.
  IdleReaper(sim::Simulation& sim, EngineController& controller,
             sim::SimDuration idle_threshold, sim::SimDuration scan_interval)
      : sim_(sim),
        controller_(controller),
        idle_threshold_(idle_threshold),
        grid_(sim, scan_interval) {}

  void Start();
  void Stop() {
    running_ = false;
    grid_.Interrupt();
  }
  bool running() const { return running_; }

  // One scan pass (also called by the loop); returns backends swapped out.
  sim::Task<int> ScanOnce();

  std::uint64_t total_reaped() const { return total_reaped_; }

  // Wake source: `backend`'s engine changed lifecycle state (SwapServe's
  // engine listener). Only a backend turning resident can move the wake
  // earlier.
  void Notify(const Backend& backend) { grid_.WakeAt(NextTick(backend)); }

 private:
  bool IsIdle(const Backend& backend) const;
  // The first tick at which `backend` could be idle long enough, or kNever
  // while it is not resident.
  sim::SimTime NextTick(const Backend& backend) const;
  sim::SimTime PlanWake() const;

  sim::Simulation& sim_;
  EngineController& controller_;
  sim::SimDuration idle_threshold_;
  sim::TickGrid grid_;
  bool running_ = false;
  std::uint64_t total_reaped_ = 0;
};

}  // namespace swapserve::core
