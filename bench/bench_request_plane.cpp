// Request-plane microbenchmark (DESIGN.md §16): wall-clock cost of parsing
// and dispatching one /v1/chat/completions request, comparing the legacy
// DOM path ("pre": json::Parse into a Value tree, then validate + submit)
// against the zero-copy in-situ Document the router now uses ("post").
//
// Two layers per strategy:
//   parse_*     the JSON layer alone, one realistic body per iteration
//   dispatch_*  parse + validate + admission + enqueue through the real
//               RequestHandler (queue drained synchronously so it never
//               fills; no engines are started — Initialize is skipped, so
//               this measures the request plane, not the simulator)
//
// Both µs/request and allocations/request are reported; the global
// operator new override below counts every heap allocation on the path.
// Set SWAPSERVE_BENCH_JSON=<path> for machine-readable output;
// scripts/check_request_plane.sh gates the in-situ speedup (>= 2x over
// DOM) and regressions against the checked-in BENCH_request_plane.json.
// SWAPSERVE_BENCH_N overrides the per-benchmark iteration count.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/router.h"
#include "core/swap_serve.h"
#include "json/document.h"
#include "json/json.h"
#include "util/table.h"

// --- allocation counting ---------------------------------------------------
// Single-threaded binary: a plain counter is enough, and keeping the
// override trivial avoids perturbing what it measures.

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace swapserve::bench {
namespace {

// A realistic chat body: multi-message, content-part array, options — the
// shape the router validates on every request.
const std::string kBody = R"({
  "model": "llama-3.2-1b-fp16",
  "messages": [
    {"role": "system", "content": "You are a terse assistant. Answer in one sentence unless asked otherwise."},
    {"role": "user", "content": "Summarize the tradeoffs between model hot-swapping and dedicated per-model GPU pools."},
    {"role": "assistant", "content": "Hot-swapping trades higher tail latency on cold models for much better aggregate GPU utilization."},
    {"role": "user", "content": [{"type": "text", "text": "Now give the longer version, with numbers."}]}
  ],
  "max_tokens": 256,
  "temperature": 0.7,
  "stream": true,
  "seed": 42,
  "user": "tenant-7"
})";

struct Sample {
  double us_per_request = 0;
  double allocs_per_request = 0;
};

template <typename F>
Sample Measure(int n, F&& fn) {
  for (int i = 0; i < 1000; ++i) fn();  // warm caches and scratch capacity
  const std::uint64_t allocs_before = g_allocs;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) fn();
  const auto stop = std::chrono::steady_clock::now();
  const double us =
      std::chrono::duration<double, std::micro>(stop - start).count();
  Sample s;
  s.us_per_request = us / n;
  s.allocs_per_request =
      static_cast<double>(g_allocs - allocs_before) / n;
  return s;
}

// The legacy token estimate off the Value tree: the rule of
// OpenAiRouter::EstimatePromptTokens (chars of string content and of part
// text / 4, plus 4 per object message), walked over the DOM.
std::int64_t DomEstimatePromptTokens(const json::Value& messages) {
  std::int64_t chars = 0;
  std::int64_t message_count = 0;
  for (const json::Value& msg : messages.AsArray()) {
    if (!msg.is_object()) continue;
    ++message_count;
    const json::Value* content = msg.Find("content");
    if (content == nullptr) continue;
    if (content->is_string()) {
      chars += static_cast<std::int64_t>(content->AsString().size());
    } else if (content->is_array()) {
      for (const json::Value& part : content->AsArray()) {
        if (!part.is_object()) continue;
        const json::Value* text = part.Find("text");
        if (text != nullptr && text->is_string()) {
          chars += static_cast<std::int64_t>(text->AsString().size());
        }
      }
    }
  }
  return std::max<std::int64_t>(1, chars / 4 + message_count * 4);
}

// The legacy dispatch path, reproduced: full DOM parse, tree validation,
// token estimate off the Value, then Submit. This is what ChatCompletions
// did before the in-situ rewrite, and it is measured live so pre/post come
// from the same binary on the same machine.
Result<core::ResponseChannelPtr> DomDispatch(core::OpenAiRouter& router,
                                             const std::string& body_json) {
  Result<json::Value> body = json::Parse(body_json);
  if (!body.ok()) return body.status();
  if (!body->is_object()) {
    return InvalidArgument("request body must be a JSON object");
  }
  const std::string model = body->GetString("model", "");
  if (model.empty()) {
    return InvalidArgument("missing required field: model");
  }
  const json::Value* messages = body->Find("messages");
  if (messages == nullptr || !messages->is_array() ||
      messages->AsArray().empty()) {
    return InvalidArgument("messages must be a non-empty array");
  }
  core::InferenceRequest request;
  request.model = model;
  request.prompt_tokens = DomEstimatePromptTokens(*messages);
  request.max_tokens = body->GetInt("max_tokens", 128);
  request.temperature = body->GetDouble("temperature", 1.0);
  request.seed = static_cast<std::uint64_t>(body->GetInt("seed", 0));
  request.stream = body->GetBool("stream", true);
  request.tenant = body->GetString("user", "");
  request.slo_class = body->GetString("slo_class", "");
  return router.Submit(std::move(request));
}

}  // namespace
}  // namespace swapserve::bench

int main() {
  using namespace swapserve;
  using namespace swapserve::bench;

  PrintHeader("Request plane: parse + dispatch cost per request",
              "pre = DOM Value tree (legacy router path), post = in-situ "
              "Document (zero-copy views, recycled arena). Dispatch rows add "
              "validation, admission, and the handler enqueue on top of the "
              "parse.");

  int n = 1000000;
  if (const char* env = std::getenv("SWAPSERVE_BENCH_N"); env != nullptr) {
    n = std::max(1, std::atoi(env));
  }

  std::int64_t sink = 0;

  // --- parse layer ---------------------------------------------------------
  const Sample parse_dom = Measure(n, [&] {
    Result<json::Value> v = json::Parse(kBody);
    sink += v.ok() ? static_cast<std::int64_t>(v->AsObject().size()) : 0;
  });

  // Reused scratch + Document: the steady-state router configuration.
  std::string scratch;
  json::Document doc;
  const Sample parse_insitu = Measure(n, [&] {
    scratch.assign(kBody);
    sink += doc.ParseInSitu(scratch).ok()
                ? static_cast<std::int64_t>(doc.root().size())
                : 0;
  });

  // --- dispatch layer ------------------------------------------------------
  // Real handler + router + backend queue, engines never initialized: the
  // queue is drained synchronously after every accept so dispatch cost is
  // measured, not queue-full rejection.
  Bed bed(Machine::kH100);
  core::Config cfg;
  core::ModelEntry entry;
  entry.model_id = "llama-3.2-1b-fp16";
  entry.engine = "ollama";
  cfg.models.push_back(entry);
  core::SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());
  core::Backend* backend = serve.backends()[0];

  const Sample dispatch_dom = Measure(n, [&] {
    Result<core::ResponseChannelPtr> r = DomDispatch(serve.router(), kBody);
    sink += r.ok() ? 1 : 0;
    if (auto item = backend->queue->TryRecv()) sink += 1;
  });

  const Sample dispatch_insitu = Measure(n, [&] {
    Result<core::ResponseChannelPtr> r = serve.router().ChatCompletions(kBody);
    sink += r.ok() ? 1 : 0;
    if (auto item = backend->queue->TryRecv()) sink += 1;
  });

  TablePrinter table({"path", "us/request", "allocs/request",
                      "speedup vs dom"});
  const auto row = [&table](const char* name, const Sample& s,
                            double baseline_us) {
    table.AddRow({name, TablePrinter::Num(s.us_per_request, 3),
                  TablePrinter::Num(s.allocs_per_request, 2),
                  TablePrinter::Num(baseline_us / s.us_per_request, 2) + "x"});
  };
  row("parse_dom (pre)", parse_dom, parse_dom.us_per_request);
  row("parse_insitu (post)", parse_insitu, parse_dom.us_per_request);
  row("dispatch_dom (pre)", dispatch_dom, dispatch_dom.us_per_request);
  row("dispatch_insitu (post)", dispatch_insitu, dispatch_dom.us_per_request);
  table.Print(std::cout);
  std::printf("\n(%d iterations per row; sink=%lld)\n", n,
              static_cast<long long>(sink));

  if (const char* path = std::getenv("SWAPSERVE_BENCH_JSON");
      path != nullptr) {
    WriteBenchJson(
        path, "per_request",
        {
            {"parse_dom_us", parse_dom.us_per_request},
            {"parse_dom_allocs", parse_dom.allocs_per_request},
            {"parse_insitu_us", parse_insitu.us_per_request},
            {"parse_insitu_allocs", parse_insitu.allocs_per_request},
            {"dispatch_dom_us", dispatch_dom.us_per_request},
            {"dispatch_dom_allocs", dispatch_dom.allocs_per_request},
            {"dispatch_insitu_us", dispatch_insitu.us_per_request},
            {"dispatch_insitu_allocs", dispatch_insitu.allocs_per_request},
        },
        "Request-plane cost per request (microseconds / heap allocations); "
        "pre = DOM path, post = in-situ path. See BENCH_request_plane.json "
        "for the gated baseline.");
  }
  return 0;
}
