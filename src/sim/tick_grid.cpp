#include "sim/tick_grid.h"

#include <algorithm>
#include <utility>

#include "util/status.h"

namespace swapserve::sim {

TickGrid::TickGrid(Simulation& sim, SimDuration interval)
    : sim_(sim),
      interval_(interval),
      origin_(sim.Now()),
      wake_(std::make_shared<WakeState>()) {
  SWAP_CHECK_MSG(interval.ns() > 0, "tick interval must be positive");
}

TickGrid::~TickGrid() {
  // Pending timers hold the shared state; bumping the generation turns
  // them into no-ops. A loop still asleep here is abandoned, as a polling
  // loop's frame would be: stop it (Interrupt) and drain first.
  wake_->sleeper = {};
  ++wake_->generation;
}

SimTime TickGrid::TickAtOrAfter(SimTime t) const {
  t = std::max(t, sim_.Now());
  const std::int64_t step = interval_.ns();
  const std::int64_t since = (t - origin_).ns();
  const std::int64_t k = since <= step ? 1 : (since + step - 1) / step;
  return origin_ + interval_ * k;
}

SimTime TickGrid::TickAfter(SimTime t) const {
  if (t < sim_.Now()) return TickAtOrAfter(sim_.Now());
  // origin_ <= Now() <= t, so k >= 1.
  return origin_ + interval_ * ((t - origin_).ns() / interval_.ns() + 1);
}

void TickGrid::Awaiter::await_suspend(std::coroutine_handle<> h) {
  SWAP_CHECK_MSG(!grid->sleeping(), "tick grid already has a sleeper");
  grid->wake_->sleeper = h;
  if (tick != kNever) grid->Arm(tick);
}

void TickGrid::WakeAt(SimTime tick) {
  if (!sleeping() || tick == kNever) return;
  tick = TickAtOrAfter(tick);
  if (tick < wake_->armed) Arm(tick);
}

void TickGrid::Interrupt() {
  if (sleeping() && sim_.Now() < wake_->armed) Arm(sim_.Now());
}

void TickGrid::Arm(SimTime at) {
  at = std::max(at, sim_.Now());
  wake_->armed = at;
  const std::uint64_t generation = ++wake_->generation;
  sim_.ScheduleAt(at, [wake = wake_, generation] {
    if (wake->generation != generation || !wake->sleeper) return;
    ++wake->generation;
    wake->armed = kNever;
    // Resume in this event, not via Post: the scan keeps the timer's place
    // among the instant's events, as a Delay-based loop's would.
    std::exchange(wake->sleeper, {}).resume();
  });
}

}  // namespace swapserve::sim
