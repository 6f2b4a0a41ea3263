#include "core/engine_controller.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "util/log.h"

namespace swapserve::core {

std::string_view PreemptionPolicyName(PreemptionPolicy p) {
  switch (p) {
    case PreemptionPolicy::kDemandAware: return "demand-aware";
    case PreemptionPolicy::kLruOnly: return "lru-only";
    case PreemptionPolicy::kRandom: return "random";
    case PreemptionPolicy::kLargestFirst: return "largest-first";
  }
  return "?";
}

EngineController::EngineController(sim::Simulation& sim,
                                   ckpt::CheckpointEngine& ckpt,
                                   TaskManager& task_manager,
                                   Metrics& metrics, PreemptionPolicy policy,
                                   std::uint64_t seed)
    : sim_(sim),
      ckpt_(ckpt),
      task_manager_(task_manager),
      metrics_(metrics),
      policy_(policy),
      rng_(seed) {}

void EngineController::RegisterBackend(Backend* backend) {
  SWAP_CHECK(backend != nullptr);
  backends_.push_back(backend);
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Status> EngineController::SwapOut(Backend& backend,
                                            bool preemption) {
  // Write-lock: stops new forwarding and waits for in-flight requests.
  auto exclusive = co_await backend.lock.AcquireExclusive();
  if (backend.engine->state() != engine::BackendState::kRunning) {
    co_return Status::Ok();  // lost the race; already out
  }
  const sim::SimTime start = sim_.Now();
  obs::Span span =
      obs::StartSpan(obs_, "controller.swap_out", "controller",
                     backend.name());
  span.AddArg("trigger", preemption ? "preemption" : "explicit");
  SWAP_CO_ASSIGN_OR_RETURN(ckpt::SwapOutRequest req,
                           co_await PrepareSwapOut(backend));
  const Bytes resident = req.clean_bytes + req.dirty_bytes;
  std::optional<Result<ckpt::SwapOutResult>> result;
  if (pipeline_.enabled) {
    result = co_await RunPipelinedSwapOut(std::move(req), nullptr);
  } else {
    result = co_await ckpt_.SwapOut(std::move(req));
  }
  SWAP_CO_RETURN_IF_ERROR(CommitSwapOut(backend, *result, resident,
                                        sim_.Now() - start, preemption));
  for (hw::GpuId id : backend.GpuIds()) {
    task_manager_.NotifyMemoryReleased(id);
  }
  SWAP_LOG(kInfo, "controller")
      << "swapped out " << backend.name() << " (" << resident.ToString()
      << (preemption ? ", preempted)" : ")");
  co_return Status::Ok();
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Result<ckpt::SwapOutRequest>> EngineController::PrepareSwapOut(
    Backend& backend) {
  SWAP_CO_RETURN_IF_ERROR(backend.engine->MarkSwapping());
  // Engine-specific optimization (vLLM sleep) shrinks the dirty set.
  Status prep = co_await backend.engine->PrepareForCheckpoint();
  if (backend.engine->state() == engine::BackendState::kCrashed) {
    // A node crash (power loss) marked the engine crashed while we were
    // suspended; the state machine no longer belongs to this swap.
    co_return Unavailable("swap-out " + backend.name() +
                          " aborted: engine crashed mid-swap");
  }
  if (!prep.ok()) {
    SWAP_CHECK(backend.engine->MarkRunning().ok());
    co_return prep;
  }
  co_return ckpt::SwapOutRequest{
      .container = backend.engine->container(),
      .process = &backend.engine->process(),
      .gpu = nullptr,
      .gpus = backend.engine->Gpus(),
      .owner = backend.name(),
      .clean_bytes = backend.engine->CleanBytes(),
      .dirty_bytes = backend.engine->DirtyBytes(),
      .checkpoint = backend.engine->CheckpointCharacteristics(),
      .restore = backend.engine->RestoreCharacteristics(),
  };
}

Status EngineController::CommitSwapOut(
    Backend& backend, const Result<ckpt::SwapOutResult>& result,
    Bytes resident, sim::SimDuration elapsed, bool preemption) {
  if (backend.engine->state() == engine::BackendState::kCrashed) {
    // The machine died mid-checkpoint: any bytes that landed are torn, so
    // the snapshot must not survive as a phantom copy.
    if (result.ok()) {
      SWAP_WARN_IF_ERROR(ckpt_.DropSnapshot(result->snapshot), "controller");
    }
    return Unavailable("swap-out " + backend.name() +
                       " aborted: engine crashed mid-swap");
  }
  if (!result.ok()) {
    SWAP_CHECK(backend.engine->MarkRunning().ok());
    return result.status();
  }
  backend.snapshot = result->snapshot;
  backend.has_snapshot = true;
  backend.resident_bytes = resident;
  SWAP_CHECK(backend.engine->MarkSwappedOut().ok());
  metrics_.RecordSwapOut(backend.series.swap_out_latency, elapsed.ToSeconds(),
                         preemption);
  return Status::Ok();
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Status> EngineController::Restore(Backend& backend,
                                            bool pipelined) {
  if (pipelined && !pipeline_.enabled) {
    co_return FailedPrecondition("pipelined swap is disabled");
  }
  auto exclusive = co_await backend.lock.AcquireExclusive();
  if (backend.engine->state() == engine::BackendState::kRunning) {
    co_return Status::Ok();
  }
  if (!backend.has_snapshot) {
    co_return FailedPrecondition("swap-in " + backend.name() +
                                 ": no snapshot");
  }
  const sim::SimTime start = sim_.Now();
  obs::Span span = obs::StartSpan(obs_, "controller.swap_in", "controller",
                                  backend.name());
  if (pipelined) span.AddArg("mode", "pipelined");
  SWAP_CO_RETURN_IF_ERROR(backend.engine->MarkSwapping());

  ckpt::SwapInPipeline gate;
  if (pipelined) gate = MakeGatedSwapInPipeline();
  Result<ckpt::SwapInResult> result = co_await ckpt_.SwapIn(
      backend.snapshot, *backend.engine->container(),
      backend.engine->process(), backend.engine->Gpus(), std::move(gate));
  const Status committed = CommitRestore(backend, result.status());
  if (committed.code() == StatusCode::kDataLoss) {
    co_return co_await ColdRestoreFallback(backend, committed);
  }
  SWAP_CO_RETURN_IF_ERROR(committed);
  SWAP_CO_RETURN_IF_ERROR(co_await FinishRestore(backend, start));
  if (pipelined) {
    obs::Observe(obs_, "swapserve_pipeline_stall_seconds",
                 {{"model", backend.name()}}, result->stall.ToSeconds());
  }
  SWAP_LOG(kInfo, "controller")
      << "swapped in " << backend.name() << (pipelined ? " (pipelined)" : "")
      << " in " << (sim_.Now() - start).ToString()
      << (pipelined ? ", stalled " + result->stall.ToString() : "");
  co_return Status::Ok();
}

Status EngineController::CommitRestore(Backend& backend,
                                       const Status& restored) {
  if (backend.engine->state() == engine::BackendState::kCrashed) {
    // A node crash landed while the restore was on the wire. A restore
    // that technically finished still consumed the checkpoint handle.
    if (restored.ok()) {
      backend.has_snapshot = false;
      backend.snapshot = 0;
    }
    return Unavailable("swap-in " + backend.name() +
                       " aborted: engine crashed mid-restore");
  }
  if (restored.code() == StatusCode::kDataLoss) {
    // A corrupt snapshot can never be restored: drop it, and the caller
    // rebuilds the backend through ColdRestoreFallback.
    SWAP_WARN_IF_ERROR(ckpt_.DropSnapshot(backend.snapshot), "controller");
  } else if (!restored.ok()) {
    SWAP_CHECK(backend.engine->MarkSwappedOut().ok());
    return restored;
  }
  backend.has_snapshot = false;
  backend.snapshot = 0;
  return restored;
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Status> EngineController::FinishRestore(
    Backend& backend, sim::SimTime start, std::optional<sim::SimTime> ready) {
  Status after = co_await backend.engine->AfterRestore();
  if (backend.engine->state() == engine::BackendState::kCrashed) {
    co_return Unavailable("swap-in " + backend.name() +
                          " aborted: engine crashed mid-restore");
  }
  if (!after.ok()) co_return after;
  SWAP_CHECK(backend.engine->MarkRunning().ok());
  backend.health.last_resident = sim_.Now();
  metrics_.RecordSwapIn(backend.series.swap_in_latency,
                        (ready.value_or(sim_.Now()) - start).ToSeconds());
  co_return Status::Ok();
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Status> EngineController::ColdRestoreFallback(Backend& backend,
                                                        Status cause) {
  const sim::SimTime start = sim_.Now();
  SWAP_LOG(kWarning, "controller")
      << "snapshot of " << backend.name()
      << " is corrupt; falling back to cold start: " << cause;
  obs::Instant(obs_, "cold_fallback:" + backend.name(), "controller",
               backend.name(), {{"cause", cause.message()}});
  // The checkpointed process can never be resumed; declare it dead so the
  // checkpoint handle and state machine reset, then rebuild in-place.
  backend.engine->MarkCrashed("corrupt snapshot: " + cause.message());
  Result<engine::InitBreakdown> restart = co_await backend.engine->Restart();
  if (!restart.ok()) {
    // Backend stays kCrashed; the supervisor takes over from here.
    co_return restart.status();
  }
  backend.health.last_resident = sim_.Now();
  metrics_.RecordRecovery(backend.name(), "cold_fallback",
                          (sim_.Now() - start).ToSeconds());
  SWAP_LOG(kInfo, "controller")
      << backend.name() << " rebuilt from cold start in "
      << (sim_.Now() - start).ToString();
  co_return Status::Ok();
}

sim::Task<Result<ckpt::SwapOutResult>> EngineController::RunPipelinedSwapOut(
    ckpt::SwapOutRequest req, std::function<void()> on_staged) {
  // Announce what this eviction will free so a head reservation that does
  // not fit waits for the chunked frees instead of failing.
  std::map<hw::GpuId, Bytes> announced;
  for (hw::GpuDevice* gpu : req.gpus) {
    const Bytes b = gpu->UsedBy(req.owner);
    announced[gpu->id()] = b;
    task_manager_.AnnouncePendingRelease(gpu->id(), b);
  }
  ckpt::SwapOutPipeline pipe;
  pipe.chunk_bytes = pipeline_.chunk_bytes;
  pipe.priority = hw::TransferPriority::kBackground;
  pipe.on_staged = std::move(on_staged);
  pipe.on_freed = [this, &announced](hw::GpuId gpu, Bytes b) {
    const Bytes credit = std::min(announced[gpu], b);
    announced[gpu] -= credit;
    task_manager_.NotifyMemoryReleased(gpu, credit);
  };
  Result<ckpt::SwapOutResult> result =
      co_await ckpt_.SwapOut(std::move(req), std::move(pipe));
  // Balance the announcement: anything not freed (failure before the commit
  // point) is withdrawn so waiting heads do not hang on a dead promise.
  for (auto& [gpu, left] : announced) {
    if (left.count() > 0) task_manager_.WithdrawPendingRelease(gpu, left);
  }
  co_return result;
}

ckpt::SwapInPipeline EngineController::MakeGatedSwapInPipeline() {
  // Granted chunk reservations per GPU. The pipeline owns them, so an
  // aborted restore's granted-but-unused ones are released with it, as
  // soon as the checkpoint engine's SwapIn returns.
  auto held = std::make_shared<
      std::map<hw::GpuId, std::vector<TaskManager::Reservation>>>();
  ckpt::SwapInPipeline pipe;
  pipe.chunk_bytes = pipeline_.chunk_bytes;
  pipe.priority = hw::TransferPriority::kUrgent;
  pipe.acquire = [this, held](hw::GpuId gpu,
                              Bytes bytes) -> sim::Task<Status> {
    Result<TaskManager::Reservation> r =
        co_await task_manager_.Reserve(gpu, bytes, "swap-in-chunk");
    if (!r.ok()) co_return r.status();
    (*held)[gpu].push_back(std::move(*r));
    co_return Status::Ok();
  };
  // Called right after the chunk's device allocation, same event: the
  // reservation's bytes are handed over with no window in between.
  pipe.release = [held](hw::GpuId gpu, Bytes /*bytes*/) {
    std::vector<TaskManager::Reservation>& v = (*held)[gpu];
    SWAP_CHECK_MSG(!v.empty(), "chunk release without reservation");
    v.back().Release();
    v.pop_back();
  };
  return pipe;
}

// swaplint-ok(coro-ref-param): backend outlives the frame (registered)
sim::Task<Result<SwapOverResult>> EngineController::SwapOver(Backend& out,
                                                             Backend& in) {
  if (!pipeline_.enabled) {
    co_return FailedPrecondition("swap-over requires pipelined swap");
  }
  SWAP_CHECK_MSG(&out != &in, "swap-over of a backend with itself");
  // Lock both in name order so two crossed swap-overs cannot ABBA-deadlock.
  Backend* lock_a = &out;
  Backend* lock_b = &in;
  if (lock_b->name() < lock_a->name()) std::swap(lock_a, lock_b);
  auto guard_a = co_await lock_a->lock.AcquireExclusive();
  auto guard_b = co_await lock_b->lock.AcquireExclusive();

  if (out.engine->state() != engine::BackendState::kRunning) {
    co_return FailedPrecondition("swap-over: " + out.name() +
                                 " is not running");
  }
  if (in.engine->state() != engine::BackendState::kSwappedOut ||
      !in.has_snapshot) {
    co_return FailedPrecondition("swap-over: " + in.name() +
                                 " has no snapshot to restore");
  }
  // Dedupe against concurrent swap-in triggers for the incoming side; the
  // scope guard releases them on every exit below.
  in.swap_in_progress = true;
  in.swap_done.Reset();
  const std::unique_ptr<Backend, void (*)(Backend*)> finish_in(
      &in, [](Backend* b) {
        b->swap_in_progress = false;
        b->swap_done.Set();
      });

  const sim::SimTime start = sim_.Now();
  obs::Span span = obs::StartSpan(obs_, "controller.swap_over", "controller",
                                  out.name());
  span.AddArg("out", out.name());
  span.AddArg("in", in.name());
  SWAP_CO_ASSIGN_OR_RETURN(const ckpt::SwapOutRequest req,
                           co_await PrepareSwapOut(out));
  const Bytes out_resident = req.clean_bytes + req.dirty_bytes;

  // Launch the outgoing side; the incoming side starts the moment the
  // checkpoint passes its commit point (snapshot staged in host RAM),
  // then races ahead chunk-by-chunk behind the freed-bytes watermark.
  sim::SimEvent staged(sim_);
  bool staged_ok = false;
  sim::SimEvent out_done(sim_);
  std::optional<Result<ckpt::SwapOutResult>> out_result;
  sim::SimTime out_end = start;
  // Captures reference this frame, which awaits out_done on every path
  // below; Spawn keeps the closure alive in the driver frame.
  // swaplint-ok(spawn-ref-capture): frame blocks on out_done before exit
  sim::Spawn([&, req]() -> sim::Task<> {
    out_result = co_await RunPipelinedSwapOut(req, [&] {
      staged_ok = true;
      staged.Set();
    });
    out_end = sim_.Now();
    staged.Set();  // wake the waiter even when staging failed
    out_done.Set();
  });
  co_await staged.Wait();

  // The incoming side starts once the outgoing side passed its commit
  // point. Both locks are held, so only a node crash can have moved the
  // parked incoming engine meanwhile; the restore commit reports that.
  Result<ckpt::SwapInResult> in_result =
      Unavailable("swap-over: " + in.name() + " was not restored");
  sim::SimTime in_ready = sim_.Now();
  if (staged_ok && in.engine->state() == engine::BackendState::kSwappedOut) {
    SWAP_CHECK(in.engine->MarkSwapping().ok());
    in_result = co_await ckpt_.SwapIn(
        in.snapshot, *in.engine->container(), in.engine->process(),
        in.engine->Gpus(), MakeGatedSwapInPipeline());
    in_ready = sim_.Now();
  }
  co_await out_done.Wait();

  // A checkpoint that failed before its commit point rolled the container
  // and process back itself (RunPipelinedSwapOut withdrew the announcement)
  // and nothing was restored. Past the commit point it fails only when the
  // machine died mid-drain (the checkpoint engine then dropped the torn
  // bytes itself).
  SWAP_CHECK_MSG(!staged_ok || out_result->ok() ||
                     out.engine->state() == engine::BackendState::kCrashed,
                 "swap-out failed past its commit point");
  const Status out_status = CommitSwapOut(
      out, *out_result, out_resident, out_end - start, /*preemption=*/true);
  if (!staged_ok) co_return out_status;

  const Status in_status = CommitRestore(in, in_result.status());
  if (in_status.code() == StatusCode::kDataLoss) {
    SWAP_CO_RETURN_IF_ERROR(co_await ColdRestoreFallback(in, in_status));
    SWAP_CO_RETURN_IF_ERROR(out_status);
    // Nothing was restored, so nothing overlapped: the switch completes
    // when the rebuilt engine runs.
    co_return SwapOverResult{.elapsed = sim_.Now() - start,
                             .out_elapsed = out_end - start,
                             .overlap = sim::SimDuration(0),
                             .stall = sim::SimDuration(0)};
  }
  SWAP_CO_RETURN_IF_ERROR(in_status);
  SWAP_CO_RETURN_IF_ERROR(co_await FinishRestore(in, start, in_ready));
  SWAP_CO_RETURN_IF_ERROR(out_status);

  const ckpt::SwapOutResult& od = **out_result;
  const ckpt::SwapInResult& ir = *in_result;
  sim::SimDuration overlap{};
  const sim::SimTime ov_start = std::max(od.d2h_start, ir.h2d_start);
  const sim::SimTime ov_end = std::min(od.d2h_end, ir.h2d_end);
  if (ov_end > ov_start) overlap = ov_end - ov_start;

  SwapOverResult over{
      .elapsed = in_ready - start,
      .out_elapsed = out_end - start,
      .overlap = overlap,
      .stall = ir.stall,
  };
  metrics_.RecordSwapOver(out.name(), in.name(), over.elapsed.ToSeconds(),
                          overlap.ToSeconds());
  const obs::LabelSet pair = {{"out", out.name()}, {"in", in.name()}};
  obs::Observe(obs_, "swapserve_swap_overlap_seconds", pair,
               overlap.ToSeconds());
  const double d2h_s = (od.d2h_end - od.d2h_start).ToSeconds();
  if (d2h_s > 0) {
    obs::Observe(obs_, "swapserve_swap_overlap_ratio", pair,
                 overlap.ToSeconds() / d2h_s);
  }
  obs::Observe(obs_, "swapserve_pipeline_stall_seconds",
               {{"model", in.name()}}, ir.stall.ToSeconds());
  span.AddArg("overlap_s", overlap.ToSeconds());
  span.AddArg("stall_s", ir.stall.ToSeconds());
  SWAP_LOG(kInfo, "controller")
      << "swap-over " << out.name() << " -> " << in.name() << ": ready in "
      << over.elapsed.ToString() << " (overlap " << overlap.ToString()
      << ", stall " << ir.stall.ToString() << ")";
  co_return over;
}

std::vector<Backend*> EngineController::PreemptionCandidates(
    hw::GpuId gpu, const std::string& requester) {
  std::vector<Backend*> out;
  for (Backend* b : backends_) {
    if (!b->OnGpu(gpu)) continue;
    if (b->name() == requester) continue;
    if (b->engine->state() != engine::BackendState::kRunning) continue;
    if (b->lock.write_locked()) continue;  // already being swapped
    out.push_back(b);
  }
  switch (policy_) {
    case PreemptionPolicy::kDemandAware:
      std::stable_sort(out.begin(), out.end(),
                       [](const Backend* a, const Backend* b) {
                         if (a->Demand() != b->Demand()) {
                           return a->Demand() < b->Demand();
                         }
                         return a->last_accessed < b->last_accessed;
                       });
      break;
    case PreemptionPolicy::kLruOnly:
      std::stable_sort(out.begin(), out.end(),
                       [](const Backend* a, const Backend* b) {
                         return a->last_accessed < b->last_accessed;
                       });
      break;
    case PreemptionPolicy::kRandom:
      // Fisher-Yates with the controller's deterministic stream.
      for (std::size_t i = out.size(); i > 1; --i) {
        std::swap(out[i - 1],
                  out[static_cast<std::size_t>(rng_.UniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
      }
      break;
    case PreemptionPolicy::kLargestFirst:
      std::stable_sort(out.begin(), out.end(),
                       [](const Backend* a, const Backend* b) {
                         return a->engine->GpuResidentBytes() >
                                b->engine->GpuResidentBytes();
                       });
      break;
  }
  return out;
}

sim::Task<Bytes> EngineController::ReclaimMemory(
    hw::GpuId gpu, Bytes needed, std::string requester) {
  Bytes freed(0);
  std::vector<std::string> failed;  // skip victims that refused to swap out
  while (freed < needed) {
    std::vector<Backend*> candidates = PreemptionCandidates(gpu, requester);
    std::erase_if(candidates, [&failed](const Backend* b) {
      return std::find(failed.begin(), failed.end(), b->name()) !=
             failed.end();
    });
    if (candidates.empty()) break;
    Backend* victim = candidates.front();
    // Memory this eviction frees on *this* GPU: the victim's shard.
    const Bytes victim_resident =
        Bytes(victim->engine->GpuResidentBytes().count() /
              victim->engine->tp_degree());
    obs::Instant(obs_, "preempt:" + victim->name(), "controller",
                 task_manager_.Track(gpu),
                 {{"victim", victim->name()},
                  {"requester", requester},
                  {"victim_demand", victim->Demand()},
                  {"frees_bytes", victim_resident.count()},
                  {"needed_bytes", needed.count()}});
    SWAP_LOG(kInfo, "controller")
        << "preempting " << victim->name() << " (demand "
        << victim->Demand() << ", " << victim_resident.ToString()
        << ") to make room for " << requester;
    Status s = co_await SwapOut(*victim, /*preemption=*/true);
    if (s.ok()) {
      freed += victim_resident;
    } else {
      SWAP_LOG(kWarning, "controller")
          << "preemption of " << victim->name() << " failed: " << s;
      failed.push_back(victim->name());
    }
  }
  co_return freed;
}

}  // namespace swapserve::core
