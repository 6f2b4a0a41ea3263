// Lazy fixed-cadence wakeups for control loops.
//
// A polling loop — `while (running) { co_await Delay(interval); Scan(); }` —
// runs its scans on a tick grid: end of the last scan + k * interval. Most
// of those scans find nothing to do. A TickGrid keeps the grid but lets the
// loop sleep through the ticks it can show to be idle: the loop plans the
// first tick at which a scan could act and sleeps until then, and any state
// change that could make an earlier tick act pulls the wake forward with
// WakeAt(). Every scan the loop does run therefore runs at exactly the
// virtual instant the polling loop would have run it, and every tick it
// skips would have been a no-op scan.
//
// Wake rule for a trigger that lands exactly on a tick instant: the tick at
// Now() still counts (WakeAt rounds up to the first tick at or after Now()),
// and the wake runs after the events already queued for that instant. A
// planned wake is armed when the loop goes to sleep, i.e. at the end of the
// previous scan — where the polling loop armed its Delay — so back-to-back
// ticks (a crashed backend) keep the polling loop's same-instant order.
//
// The event core cannot cancel timers, so each armed wake carries a
// generation number; a superseded wake fires as a no-op. The wake state is
// shared with the pending timers, so destroying the grid leaves them inert.

#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <memory>

#include "sim/simulation.h"
#include "sim/time.h"

namespace swapserve::sim {

class TickGrid {
 public:
  // "No tick can act": the sleeper parks until WakeAt() or Interrupt().
  static constexpr SimTime kNever{std::numeric_limits<std::int64_t>::max()};

  TickGrid(Simulation& sim, SimDuration interval);
  ~TickGrid();
  TickGrid(const TickGrid&) = delete;
  TickGrid& operator=(const TickGrid&) = delete;

  // Re-anchor the grid at Now() (the end of the last scan): ticks fall at
  // Now() + k * interval, k >= 1.
  void Restart() { origin_ = sim_.Now(); }

  // The first grid tick at or after both `t` and Now(), and the first one
  // strictly after `t` and at or after Now().
  SimTime TickAtOrAfter(SimTime t) const;
  SimTime TickAfter(SimTime t) const;

  struct [[nodiscard]] Awaiter {
    TickGrid* grid;
    SimTime tick;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };
  // Suspend the calling loop until `tick` (kNever: until woken). One
  // sleeper at a time.
  Awaiter SleepUntil(SimTime tick) { return Awaiter{this, tick}; }

  // While the loop sleeps, pull its wake forward to `tick` (kNever is
  // ignored) if that is earlier than the wake already armed. No-op while
  // the loop is awake: it plans again before it next sleeps.
  void WakeAt(SimTime tick);
  // Wake a sleeping loop at Now(), e.g. so a stopped loop can exit.
  void Interrupt();

 private:
  struct WakeState {
    std::coroutine_handle<> sleeper;
    SimTime armed = kNever;
    std::uint64_t generation = 0;
  };

  bool sleeping() const { return static_cast<bool>(wake_->sleeper); }
  void Arm(SimTime at);

  Simulation& sim_;
  SimDuration interval_;
  SimTime origin_;
  std::shared_ptr<WakeState> wake_;
};

}  // namespace swapserve::sim
