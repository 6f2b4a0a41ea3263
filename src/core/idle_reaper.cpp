#include "core/idle_reaper.h"

#include <algorithm>

#include "util/log.h"

namespace swapserve::core {

void IdleReaper::Start() {
  SWAP_CHECK_MSG(!running_, "idle reaper already running");
  running_ = true;
  grid_.Restart();
  sim_.Go([this]() -> sim::Task<> {
    while (running_) {
      co_await grid_.SleepUntil(PlanWake());
      if (!running_) break;
      (void)co_await ScanOnce();
      grid_.Restart();
    }
  });
}

sim::SimTime IdleReaper::NextTick(const Backend& backend) const {
  if (backend.engine->state() != engine::BackendState::kRunning) {
    return sim::TickGrid::kNever;
  }
  // Once due, demand or a held lock may block it at any tick, so a due
  // backend keeps the loop ticking every interval.
  return grid_.TickAtOrAfter(backend.last_accessed + idle_threshold_);
}

sim::SimTime IdleReaper::PlanWake() const {
  sim::SimTime next = sim::TickGrid::kNever;
  for (const Backend* backend : controller_.backends()) {
    next = std::min(next, NextTick(*backend));
  }
  return next;
}

bool IdleReaper::IsIdle(const Backend& backend) const {
  if (backend.engine->state() != engine::BackendState::kRunning) {
    return false;
  }
  if (backend.Demand() > 0) return false;
  if (backend.lock.write_locked() || backend.lock.readers() > 0) {
    return false;  // a swap or a relay is in flight
  }
  return sim_.Now() - backend.last_accessed >= idle_threshold_;
}

sim::Task<int> IdleReaper::ScanOnce() {
  int reaped = 0;
  for (Backend* backend : controller_.backends()) {
    if (!IsIdle(*backend)) continue;
    SWAP_LOG(kInfo, "idle-reaper")
        << "parking idle backend " << backend->name() << " (idle "
        << (sim_.Now() - backend->last_accessed).ToString() << ")";
    Status s = co_await controller_.SwapOut(*backend, /*preemption=*/false);
    if (s.ok()) {
      ++reaped;
      ++total_reaped_;
    } else {
      SWAP_LOG(kWarning, "idle-reaper")
          << "failed to park " << backend->name() << ": " << s;
    }
  }
  co_return reaped;
}

}  // namespace swapserve::core
