// Tracing allocates nothing once its strings are interned.
//
// The same request sequence — resident requests through the JSON router
// plus one preemption swap-out/swap-in pair — is served once with the trace
// recorder on and once with it off. Measured after a warm-up round, the two
// runs must make exactly the same number of heap allocations: every span
// and instant lands in a fixed-size ring record whose strings are interned
// ids and whose numbers are stored as numbers, so tracing costs no
// allocation per event.
//
// The warm-up round serves each model, serves one resident request and
// preempts each model once, so every string the measured requests trace
// (span names, tracks, arg keys, the "preempt:<model>" instant, status
// texts) and every metric series they touch already exists. Interning a string the recorder has never seen
// allocates once per run; that is the bounded cost of the intern table, not
// a per-event cost.
//
// The binary replaces the global allocator with a counting shim, like
// tests/core/stream_alloc_test.cpp. Under sanitizers the shim is compiled
// out (the sanitizer runtime owns operator new) and the test is skipped.

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/swap_serve.h"
#include "fixture.h"

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if !__has_feature(address_sanitizer) && !__has_feature(thread_sanitizer)
#define SWAPSERVE_COUNTING_NEW 1
#endif
#else
#define SWAPSERVE_COUNTING_NEW 1
#endif
#endif
#ifndef SWAPSERVE_COUNTING_NEW
#define SWAPSERVE_COUNTING_NEW 0
#endif

namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

#if SWAPSERVE_COUNTING_NEW
void* operator new(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace swapserve::core {
namespace {

using testing::TestBed;

// Two vLLM models that cannot share one H100: a request for the one not
// resident preempts the other.
constexpr const char* kSmall = "llama-3.2-1b-fp16";
constexpr const char* kLarge = "llama-3.1-8b-fp16";

std::string ChatBody(const char* model) {
  return std::string(R"({"model":")") + model +
         R"(","messages":[{"role":"user","content":"hello there"}],)"
         R"("max_tokens":16,"stream":false})";
}

struct Measured {
  std::uint64_t allocations = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t swap_ins = 0;
};

Measured ServeMeasured(bool tracing) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kSmall, "vllm"}, {kLarge, "vllm"}});
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  serve.obs().trace.set_enabled(tracing);
  const std::string small = ChatBody(kSmall);
  const std::string large = ChatBody(kLarge);
  Measured m;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    // Warm-up: small swaps in and serves once resident, large preempts it,
    // small preempts large.
    for (const std::string* body : {&small, &small, &large, &small}) {
      Result<ResponseChannelPtr> channel =
          serve.router().ChatCompletions(*body);
      EXPECT_TRUE(channel.ok()) << channel.status().ToString();
      if (!channel.ok()) co_return;
      const ChatResult r = co_await SwapServe::CollectResponse(*channel);
      EXPECT_TRUE(r.ok) << r.error;
    }

    const std::uint64_t allocs_before = g_alloc_count;
    const std::uint64_t events_before = serve.obs().trace.total_emitted();
    const std::uint64_t preempt_before = serve.metrics().preemptions;
    const std::uint64_t swap_ins_before = serve.metrics().swap_ins;
    // Three resident requests, then one that preempts: a swap-out of the
    // small model and a swap-in of the large one.
    for (const std::string* body : {&small, &small, &small, &large}) {
      Result<ResponseChannelPtr> channel =
          serve.router().ChatCompletions(*body);
      EXPECT_TRUE(channel.ok()) << channel.status().ToString();
      if (!channel.ok()) co_return;
      const ChatResult r = co_await SwapServe::CollectResponse(*channel);
      EXPECT_TRUE(r.ok) << r.error;
    }
    m.allocations = g_alloc_count - allocs_before;
    m.trace_events = serve.obs().trace.total_emitted() - events_before;
    m.preemptions = serve.metrics().preemptions - preempt_before;
    m.swap_ins = serve.metrics().swap_ins - swap_ins_before;
    serve.Shutdown();
  });
  return m;
}

TEST(TraceAllocTest, TracingOnAllocatesNoMoreThanTracingOff) {
  if (!SWAPSERVE_COUNTING_NEW) {
    GTEST_SKIP() << "counting allocator compiled out under sanitizers";
  }
  const Measured on = ServeMeasured(/*tracing=*/true);
  const Measured off = ServeMeasured(/*tracing=*/false);
  // Both runs did the work the comparison is about.
  EXPECT_EQ(on.preemptions, 1u);
  EXPECT_EQ(on.swap_ins, 1u);
  EXPECT_EQ(off.preemptions, 1u);
  EXPECT_EQ(off.swap_ins, 1u);
  EXPECT_GT(on.trace_events, 0u);
  EXPECT_EQ(off.trace_events, 0u);
  EXPECT_GT(off.allocations, 0u);
  EXPECT_EQ(on.allocations, off.allocations)
      << "tracing allocated per event (" << on.trace_events << " events)";
}

}  // namespace
}  // namespace swapserve::core
