// Request-plane property suite (DESIGN.md §16), two halves:
//
//   JSON: 100 seeded random documents must round-trip byte-identically
//   through both parsers (the DOM reference and the in-situ Document), and
//   Dump must be a canonical form (parse-dump idempotent).
//
//   Admission: randomized burst workloads against the admission controller
//   must satisfy the conservation (admitted + shed == submitted, tallies
//   agree with metrics), monotonicity (a larger budget never sheds more),
//   and determinism (same seed, same outcome) invariants; and the
//   "request.admit" chaos point — armed here so the fault-point-coverage
//   lint sees the registry entry exercised — must force sheds that surface
//   as ResourceExhausted while every admitted request still reaches exactly
//   one terminal outcome.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "../core/fixture.h"
#include "core/router.h"
#include "core/swap_serve.h"
#include "fault/fault_injector.h"
#include "json/document.h"
#include "json/json.h"
#include "sim/random.h"

namespace swapserve::json {
namespace {

// Random Value trees. Numbers are dyadic rationals (n / 1024), so their
// decimal round-trip is exact and tree equality after reparse is fair.
Value GenTree(sim::Rng& rng, int depth) {
  const std::int64_t kind = rng.UniformInt(0, depth >= 4 ? 4 : 6);
  switch (kind) {
    case 0:
      return Value(nullptr);
    case 1:
      return Value(rng.Bernoulli(0.5));
    case 2:
      return Value(static_cast<double>(rng.UniformInt(-1000000, 1000000)));
    case 3:
      return Value(static_cast<double>(rng.UniformInt(-1000000, 1000000)) /
                   1024.0);
    case 4: {
      std::string s;
      const std::int64_t len = rng.UniformInt(0, 10);
      for (std::int64_t i = 0; i < len; ++i) {
        switch (rng.UniformInt(0, 5)) {
          case 0: s += '\n'; break;
          case 1: s += '"'; break;
          case 2: s += '\\'; break;
          case 3: s += "\xE2\x82\xAC"; break;  // €
          default:
            s += static_cast<char>('a' + rng.UniformInt(0, 25));
            break;
        }
      }
      return Value(std::move(s));
    }
    case 5: {
      Value arr = Value::MakeArray();
      const std::int64_t n = rng.UniformInt(0, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        arr.PushBack(GenTree(rng, depth + 1));
      }
      return arr;
    }
    default: {
      Value obj = Value::MakeObject();
      const std::int64_t n = rng.UniformInt(0, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        std::string key(1, static_cast<char>('a' + rng.UniformInt(0, 25)));
        key += std::to_string(i);
        obj[key] = GenTree(rng, depth + 1);
      }
      return obj;
    }
  }
}

TEST(RequestPlaneJsonProperty, RandomTreesRoundTripThroughAllParsers) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    sim::Rng rng(seed);
    const Value tree = GenTree(rng, 0);
    const std::string text = tree.Dump();

    Result<Value> dom = Parse(text);
    ASSERT_TRUE(dom.ok()) << "seed " << seed << ": " << text;
    EXPECT_TRUE(*dom == tree) << "seed " << seed;
    // Canonical form: dumping the reparse reproduces the bytes.
    EXPECT_EQ(dom->Dump(), text) << "seed " << seed;

    std::string buffer = text;
    Document doc;
    ASSERT_TRUE(doc.ParseInSitu(buffer).ok()) << "seed " << seed;
    EXPECT_TRUE(doc.ToValue() == tree) << "seed " << seed;
    EXPECT_EQ(doc.ToValue().Dump(), text) << "seed " << seed;
  }
}

}  // namespace
}  // namespace swapserve::json

namespace swapserve::core {
namespace {

using testing::TestBed;

// A random OpenAI-ish "messages" payload and the token estimate the
// router.h rule gives it, counted while generating: characters of string
// content and of part text, plus 4 per object message, floored at 1.
struct GeneratedMessages {
  json::Value messages;
  std::int64_t expected_tokens = 1;
};

// Covers the shapes the estimator must tolerate: content-part arrays,
// non-string content, missing content, non-object members, and non-array
// roots.
GeneratedMessages GenMessages(sim::Rng& rng) {
  if (rng.Bernoulli(0.1)) {  // non-array root -> 1-token floor
    return {rng.Bernoulli(0.5) ? json::Value("not an array")
                               : json::Value(nullptr),
            1};
  }
  json::Value messages = json::Value::MakeArray();
  std::int64_t chars = 0;
  std::int64_t objects = 0;
  const std::int64_t n = rng.UniformInt(0, 6);
  for (std::int64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.1)) {  // non-object member is skipped
      messages.PushBack(json::Value(static_cast<double>(i)));
      continue;
    }
    ++objects;
    json::Value msg = json::Value::MakeObject();
    msg["role"] = rng.Bernoulli(0.5) ? "user" : "assistant";
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // plain string content
        const std::int64_t len = rng.UniformInt(0, 64);
        msg["content"] = std::string(static_cast<std::size_t>(len), 'x');
        chars += len;
        break;
      }
      case 1: {  // content-part array
        json::Value parts = json::Value::MakeArray();
        const std::int64_t k = rng.UniformInt(0, 3);
        for (std::int64_t j = 0; j < k; ++j) {
          json::Value part = json::Value::MakeObject();
          part["type"] = "text";
          const std::int64_t len = rng.UniformInt(0, 32);
          part["text"] = std::string(static_cast<std::size_t>(len), 'y');
          chars += len;
          parts.PushBack(std::move(part));
        }
        msg["content"] = std::move(parts);
        break;
      }
      case 2:  // non-string scalar content is ignored
        msg["content"] = 42;
        break;
      default:  // no content key
        break;
    }
    messages.PushBack(std::move(msg));
  }
  return {std::move(messages),
          std::max<std::int64_t>(1, chars / 4 + 4 * objects)};
}

// The rule in router.h, pinned across generated payloads: the estimator
// reads the in-situ parse of the dumped payload and must reproduce the
// count the generator kept.
TEST(RouterEstimatorProperty, EstimatorMatchesGeneratedCount) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    sim::Rng rng(seed * 0x2545F4914F6CDD1DULL);
    const GeneratedMessages gen = GenMessages(rng);
    const std::string text = gen.messages.Dump();
    std::string buffer = text;

    json::Document doc;
    ASSERT_TRUE(doc.ParseInSitu(buffer).ok()) << "seed " << seed;
    EXPECT_EQ(OpenAiRouter::EstimatePromptTokens(doc.root()),
              gen.expected_tokens)
        << "seed " << seed << ": " << text;
  }
}

struct AdmissionOutcome {
  int admitted = 0;
  int shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t metric_shed = 0;
  std::uint64_t fault_fires = 0;

  bool operator==(const AdmissionOutcome&) const = default;
};

// A seeded burst against an admission-gated stack. All randomness comes
// from the seed; chaos_probability > 0 additionally arms the
// "request.admit" fault point so the estimator's yes can be overridden.
AdmissionOutcome RunAdmissionWorkload(std::uint64_t seed, double budget_s,
                                      double chaos_probability) {
  TestBed bed;
  sim::Rng rng(seed);
  Config cfg = bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}});
  cfg.admission.enabled = true;
  cfg.admission.default_budget_s = budget_s;
  cfg.admission.initial_service_s = 0.5;
  cfg.fault.seed = seed;
  SwapServe serve(bed.sim, cfg, bed.catalog, bed.hardware());

  AdmissionOutcome out;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await serve.Initialize()).ok());
    if (chaos_probability > 0) {
      fault::FaultRule rule;
      rule.point = "request.admit";
      rule.probability = chaos_probability;
      fault::FaultPlan plan;
      plan.rules.push_back(std::move(rule));
      serve.fault_injector().Configure(std::move(plan));
    }
    const int n = static_cast<int>(rng.UniformInt(6, 20));
    for (int i = 0; i < n; ++i) {
      InferenceRequest req;
      req.model = "llama-3.2-1b-fp16";
      req.prompt_tokens = rng.UniformInt(8, 256);
      req.max_tokens = rng.UniformInt(1, 32);
      req.tenant = rng.Bernoulli(0.5) ? "tenant-a" : "tenant-b";
      Result<ResponseChannelPtr> ch = serve.handler().Accept(std::move(req));
      if (!ch.ok()) {
        EXPECT_EQ(ch.status().code(), StatusCode::kResourceExhausted);
        EXPECT_NE(ch.status().message().find("admission"), std::string::npos)
            << ch.status();
        ++out.shed;
        continue;
      }
      ++out.admitted;
      sim::Spawn([&out, channel = *ch]() -> sim::Task<> {
        int terminals = 0;
        while (auto chunk = co_await channel->Recv()) {
          if (chunk->kind == ResponseChunk::Kind::kDone ||
              chunk->kind == ResponseChunk::Kind::kError) {
            ++terminals;
          }
        }
        EXPECT_EQ(terminals, 1);
      });
    }
    co_await bed.sim.Delay(sim::Minutes(10));  // drain the admitted burst
    serve.Shutdown();
  });

  const Metrics& m = serve.metrics();
  out.completed = m.TotalCompleted();
  out.failed = m.TotalFailed();
  out.metric_shed = m.TotalShed();
  out.fault_fires = serve.fault_injector().total_fires();

  // Conservation: nothing lost, nothing double-counted, and the
  // controller's per-tenant tallies sum to the caller-observed counts.
  EXPECT_EQ(out.completed + out.failed,
            static_cast<std::uint64_t>(out.admitted))
      << "seed " << seed;
  EXPECT_EQ(out.metric_shed, static_cast<std::uint64_t>(out.shed))
      << "seed " << seed;
  std::uint64_t tally_admitted = 0;
  std::uint64_t tally_shed = 0;
  for (const auto& [tenant, stats] : serve.admission()->tenant_stats()) {
    tally_admitted += stats.admitted;
    tally_shed += stats.shed;
  }
  EXPECT_EQ(tally_admitted, static_cast<std::uint64_t>(out.admitted))
      << "seed " << seed;
  EXPECT_EQ(tally_shed, static_cast<std::uint64_t>(out.shed)) << "seed "
                                                              << seed;
  return out;
}

class AdmissionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdmissionProperty, ConservationHoldsAcrossRandomBursts) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed * 0x9E3779B97F4A7C15ULL);
  const double budget_s = rng.Uniform(0.5, 6.0);
  AdmissionOutcome out = RunAdmissionWorkload(seed, budget_s, 0.0);
  EXPECT_GT(out.admitted, 0) << "budget " << budget_s;
  EXPECT_EQ(out.fault_fires, 0u);

  // Monotonicity: a strictly larger budget never sheds more of the same
  // seeded workload (single SLO class, so the cutoff is a pure threshold).
  AdmissionOutcome generous = RunAdmissionWorkload(seed, budget_s * 4, 0.0);
  EXPECT_LE(generous.shed, out.shed) << "budget " << budget_s;

  // Determinism: identical seed and budget, identical outcome.
  AdmissionOutcome replay = RunAdmissionWorkload(seed, budget_s, 0.0);
  EXPECT_EQ(replay, out) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdmissionProperty,
                         ::testing::Range(std::uint64_t{0},
                                          std::uint64_t{100}));

TEST(AdmissionChaosTest, RequestAdmitFaultForcesShedsWithoutLosingRequests) {
  std::uint64_t total_fires = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    // A budget no burst can exceed: every shed below is chaos-forced.
    AdmissionOutcome out = RunAdmissionWorkload(seed, 1e9, 0.5);
    EXPECT_EQ(out.fault_fires, static_cast<std::uint64_t>(out.shed))
        << "seed " << seed;
    total_fires += out.fault_fires;
  }
  // The armed point must actually fire across the sweep, or this suite
  // never exercised the failure mode it claims to cover.
  EXPECT_GT(total_fires, 10u);
}

TEST(AdmissionChaosTest, ChaosShedsAreReproducible) {
  for (std::uint64_t seed : {1ull, 7ull, 13ull}) {
    AdmissionOutcome a = RunAdmissionWorkload(seed, 1e9, 0.5);
    AdmissionOutcome b = RunAdmissionWorkload(seed, 1e9, 0.5);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

}  // namespace
}  // namespace swapserve::core
