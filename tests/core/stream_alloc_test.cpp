// Per-chunk instrumentation allocates nothing.
//
// One streaming request on a resident backend, with observability bound,
// must cost the same number of heap allocations whether its 64 output
// tokens reach the client as 64 one-token SSE chunks or as one 64-token
// chunk: every per-chunk metric goes through a series handle resolved by an
// earlier request, so the chunk count cannot show up in the allocation
// count.
//
// The binary replaces the global allocator with a counting shim, like
// tests/sim/alloc_test.cpp. Under sanitizers the shim is compiled out (the
// sanitizer runtime owns operator new) and the test is skipped.

#include <cstdint>
#include <cstdlib>
#include <new>

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

constexpr const char* kModel = "llama-3.2-1b-fp16";
constexpr std::int64_t kOutputTokens = 64;

// Allocations made while serving the second of two identical streaming
// requests; the first one makes the backend resident, resolves every
// series the request path touches and warms the event and frame pools.
std::uint64_t AllocationsPerStreamedRequest(std::int64_t chunk_tokens) {
  TestBed bed;
  Config cfg = bed.MakeConfig({{kModel, "ollama"}});
  cfg.global.stream_tokens = true;
  cfg.global.stream_chunk_tokens = chunk_tokens;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  std::uint64_t allocations = 0;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    const ChatResult warm = co_await serve.ChatAndStream(
        kModel, /*prompt_tokens=*/128, kOutputTokens, nullptr);
    EXPECT_TRUE(warm.ok) << warm.error;
    const std::uint64_t before = g_alloc_count;
    const ChatResult result = co_await serve.ChatAndStream(
        kModel, /*prompt_tokens=*/128, kOutputTokens, nullptr);
    allocations = g_alloc_count - before;
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.output_tokens, kOutputTokens);
    EXPECT_EQ(result.swap_wait_s, 0.0) << "backend was not resident";
    serve.Shutdown();
  });
  const auto& chunks = serve.obs().metrics.families().at(
      "swapserve_stream_chunks_total");
  EXPECT_DOUBLE_EQ(chunks.series.begin()->second.counter->value(),
                   2.0 * static_cast<double>(kOutputTokens / chunk_tokens));
  return allocations;
}

TEST(StreamAllocTest, ChunkCountDoesNotChangeAllocations) {
  if (!SWAPSERVE_COUNTING_NEW) {
    GTEST_SKIP() << "counting allocator compiled out under sanitizers";
  }
  const std::uint64_t per_token = AllocationsPerStreamedRequest(1);
  const std::uint64_t one_chunk = AllocationsPerStreamedRequest(64);
  EXPECT_GT(one_chunk, 0u);
  EXPECT_EQ(per_token, one_chunk)
      << "64 one-token chunks vs one 64-token chunk";
}

}  // namespace
}  // namespace swapserve::core
