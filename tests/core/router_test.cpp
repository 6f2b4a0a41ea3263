// OpenAI router validation + request handler admission tests.

#include "core/router.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fixture.h"
#include "json/document.h"

namespace swapserve::core {
namespace {

using testing::TestBed;

// Router tests run against a full SwapServe so accepted requests are
// actually served.
struct RouterBed {
  RouterBed(TestBed& bed, GlobalConfig global = {})
      : config(MakeConfig(bed, std::move(global))),
        serve(bed.sim, config, bed.catalog, bed.hardware()) {}

  static Config MakeConfig(TestBed& bed, GlobalConfig global) {
    Config cfg = bed.MakeConfig({{"llama-3.2-1b-fp16", "ollama"}});
    cfg.global = std::move(global);
    return cfg;
  }

  Config config;
  SwapServe serve;
};

const char* kValidBody = R"({
  "model": "llama-3.2-1b-fp16",
  "messages": [{"role": "user", "content": "hello there, assistant"}],
  "max_tokens": 32,
  "temperature": 0
})";

TEST(RouterTest, ValidRequestAcceptedAndServed) {
  TestBed bed;
  RouterBed rb(bed);
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    Result<ResponseChannelPtr> ch =
        rb.serve.router().ChatCompletions(kValidBody);
    EXPECT_TRUE(ch.ok()) << ch.status();
    result = co_await SwapServe::CollectResponse(*ch);
    rb.serve.Shutdown();
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.output_tokens, 32);
}

TEST(RouterTest, MalformedJsonRejected) {
  TestBed bed;
  RouterBed rb(bed);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    auto r = rb.serve.router().ChatCompletions("{not json");
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    rb.serve.Shutdown();
  });
}

TEST(RouterTest, ValidationErrors) {
  TestBed bed;
  RouterBed rb(bed);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    OpenAiRouter& router = rb.serve.router();
    // Missing model.
    EXPECT_EQ(router.ChatCompletions(R"({"messages":[{"role":"user"}]})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    // Missing messages.
    EXPECT_EQ(
        router.ChatCompletions(R"({"model":"llama-3.2-1b-fp16"})")
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    // Empty messages.
    EXPECT_EQ(router
                  .ChatCompletions(
                      R"({"model":"llama-3.2-1b-fp16","messages":[]})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    // Message without role.
    EXPECT_EQ(router
                  .ChatCompletions(
                      R"({"model":"llama-3.2-1b-fp16","messages":[{"content":"x"}]})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    // Bad temperature.
    EXPECT_EQ(
        router
            .ChatCompletions(
                R"({"model":"llama-3.2-1b-fp16","messages":[{"role":"user","content":"x"}],"temperature":3.0})")
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    // Bad max_tokens.
    EXPECT_EQ(
        router
            .ChatCompletions(
                R"({"model":"llama-3.2-1b-fp16","messages":[{"role":"user","content":"x"}],"max_tokens":0})")
            .status()
            .code(),
        StatusCode::kInvalidArgument);
    // Unknown model -> 404 semantics.
    EXPECT_EQ(
        router
            .ChatCompletions(
                R"({"model":"ghost","messages":[{"role":"user","content":"x"}]})")
            .status()
            .code(),
        StatusCode::kNotFound);
    rb.serve.Shutdown();
  });
}

// Numbers outside the int64 range saturate instead of wrapping, so an
// absurd max_tokens is rejected by the range check on either side and an
// oversized seed is simply clamped.
TEST(RouterTest, OutOfRangeNumbersSaturate) {
  TestBed bed;
  RouterBed rb(bed);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    OpenAiRouter& router = rb.serve.router();
    const std::string prefix =
        R"({"model":"llama-3.2-1b-fp16","messages":[{"role":"user","content":"x"}],)";
    EXPECT_EQ(router.ChatCompletions(prefix + R"("max_tokens":1e300})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(router.ChatCompletions(prefix + R"("max_tokens":-1e300})")
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    Result<ResponseChannelPtr> seeded = router.ChatCompletions(
        prefix + R"("max_tokens":4,"seed":1e19})");
    EXPECT_TRUE(seeded.ok()) << seeded.status();
    if (seeded.ok()) {
      EXPECT_TRUE((co_await SwapServe::CollectResponse(*seeded)).ok);
    }
    rb.serve.Shutdown();
  });
}

const char* kFieldPrefix =
    R"({"model":"llama-3.2-1b-fp16","messages":[{"role":"user","content":"x"}],)";

// A field present with the wrong type is refused by name and counted as an
// invalid request, instead of falling back to its default.
TEST(RouterTest, WrongTypedFieldsRejectedByName) {
  TestBed bed;
  RouterBed rb(bed);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    OpenAiRouter& router = rb.serve.router();
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"model", R"({"model":7,"messages":[{"role":"user"}]})"},
        {"temperature", std::string(kFieldPrefix) + R"("temperature":"hot"})"},
        {"max_tokens", std::string(kFieldPrefix) + R"("max_tokens":"8"})"},
        {"seed", std::string(kFieldPrefix) + R"("seed":[1]})"},
        {"stream", std::string(kFieldPrefix) + R"("stream":"yes"})"},
        {"user", std::string(kFieldPrefix) + R"("user":5})"},
        {"slo_class", std::string(kFieldPrefix) + R"("slo_class":true})"},
    };
    for (const auto& [field, body] : cases) {
      const Status status = router.ChatCompletions(body).status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << body;
      EXPECT_EQ(status.message().rfind(field + " must be ", 0), 0u)
          << status.message();
    }
    EXPECT_EQ(rb.serve.obs()
                  .metrics
                  .GetCounter("swapserve_router_requests_total",
                              {{"outcome", "invalid"}})
                  .value(),
              static_cast<double>(cases.size()));
    rb.serve.Shutdown();
  });
}

// max_tokens and seed take integers: a fractional value is refused rather
// than truncated, while an integral value written as a real is accepted.
TEST(RouterTest, NonIntegralCountsRejected) {
  TestBed bed;
  RouterBed rb(bed);
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    OpenAiRouter& router = rb.serve.router();
    const std::string prefix = kFieldPrefix;
    const Status tokens =
        router.ChatCompletions(prefix + R"("max_tokens":1.9})").status();
    EXPECT_EQ(tokens.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(tokens.message(), "max_tokens must be an integer");
    const Status seed =
        router.ChatCompletions(prefix + R"("max_tokens":4,"seed":0.5})")
            .status();
    EXPECT_EQ(seed.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(seed.message(), "seed must be an integer");

    Result<ResponseChannelPtr> ch =
        router.ChatCompletions(prefix + R"("max_tokens":8.0,"seed":2e3})");
    EXPECT_TRUE(ch.ok()) << ch.status();
    if (ch.ok()) result = co_await SwapServe::CollectResponse(*ch);
    rb.serve.Shutdown();
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.output_tokens, 8);
}

// null reads as absent: optional fields take their defaults and a null
// model is a missing model.
TEST(RouterTest, NullFieldsCountAsAbsent) {
  TestBed bed;
  RouterBed rb(bed);
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    OpenAiRouter& router = rb.serve.router();
    const Status no_model =
        router.ChatCompletions(R"({"model":null,"messages":[{"role":"user"}]})")
            .status();
    EXPECT_EQ(no_model.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(no_model.message(), "missing required field: model");

    Result<ResponseChannelPtr> ch = router.ChatCompletions(
        std::string(kFieldPrefix) +
        R"("temperature":null,"max_tokens":null,"seed":null,)"
        R"("stream":null,"user":null,"slo_class":null})");
    EXPECT_TRUE(ch.ok()) << ch.status();
    if (ch.ok()) result = co_await SwapServe::CollectResponse(*ch);
    rb.serve.Shutdown();
  });
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.output_tokens, 512);
}

TEST(RouterTest, AuthTokenEnforced) {
  TestBed bed;
  GlobalConfig global;
  global.auth_token = "secret-token";
  RouterBed rb(bed, global);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    OpenAiRouter& router = rb.serve.router();
    EXPECT_EQ(router.ChatCompletions(kValidBody, "").status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(router.ChatCompletions(kValidBody, "wrong").status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_TRUE(router.ChatCompletions(kValidBody, "secret-token").ok());
    rb.serve.Shutdown();
  });
}

// Estimates a DOM-built payload the way the router does: serialize, parse
// in situ, and read the messages view.
std::int64_t Estimate(const json::Value& messages) {
  std::string buffer = messages.Dump();
  json::Document doc;
  EXPECT_TRUE(doc.ParseInSitu(buffer).ok()) << buffer;
  return OpenAiRouter::EstimatePromptTokens(doc.root());
}

TEST(RouterTest, TokenEstimation) {
  json::Value messages = json::Value::MakeArray();
  json::Value msg = json::Value::MakeObject();
  msg["role"] = json::Value("user");
  msg["content"] = json::Value(std::string(400, 'x'));
  messages.PushBack(std::move(msg));
  // 400 chars / 4 + 1 message * 4 = 104.
  EXPECT_EQ(Estimate(messages), 104);
}

TEST(RouterTest, TokenEstimationMinimumOne) {
  json::Value messages = json::Value::MakeArray();
  EXPECT_EQ(Estimate(messages), 1);
}

TEST(RouterTest, TokenEstimationNonArrayFloorsToOne) {
  EXPECT_EQ(Estimate(json::Value("a string")), 1);
  EXPECT_EQ(Estimate(json::Value(7.0)), 1);
  EXPECT_EQ(Estimate(json::Value::MakeObject()), 1);
  EXPECT_EQ(Estimate(json::Value()), 1);
}

TEST(RouterTest, TokenEstimationIgnoresNonStringContent) {
  json::Value messages = json::Value::MakeArray();
  json::Value numeric = json::Value::MakeObject();
  numeric["role"] = json::Value("user");
  numeric["content"] = json::Value(12345.0);
  messages.PushBack(std::move(numeric));
  json::Value absent = json::Value::MakeObject();
  absent["role"] = json::Value("assistant");
  messages.PushBack(std::move(absent));
  // Non-message entries in the array don't count toward overhead.
  messages.PushBack(json::Value("stray"));
  // 0 chars, 2 well-formed messages * 4 overhead.
  EXPECT_EQ(Estimate(messages), 8);
}

TEST(RouterTest, TokenEstimationSumsContentParts) {
  json::Value parts = json::Value::MakeArray();
  json::Value text1 = json::Value::MakeObject();
  text1["type"] = json::Value("text");
  text1["text"] = json::Value(std::string(200, 'a'));
  parts.PushBack(std::move(text1));
  json::Value image = json::Value::MakeObject();
  image["type"] = json::Value("image_url");
  parts.PushBack(std::move(image));
  json::Value text2 = json::Value::MakeObject();
  text2["type"] = json::Value("text");
  text2["text"] = json::Value(std::string(200, 'b'));
  parts.PushBack(std::move(text2));

  json::Value msg = json::Value::MakeObject();
  msg["role"] = json::Value("user");
  msg["content"] = std::move(parts);
  json::Value messages = json::Value::MakeArray();
  messages.PushBack(std::move(msg));
  // 400 chars across text parts / 4 + 1 message * 4 = 104.
  EXPECT_EQ(Estimate(messages), 104);
}

TEST(RouterTest, ListModelsReflectsState) {
  TestBed bed;
  RouterBed rb(bed);
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    json::Value models = rb.serve.router().ListModels();
    EXPECT_EQ(models.GetString("object", ""), "list");
    const auto& data = models.Find("data")->AsArray();
    EXPECT_EQ(data.size(), 1u);
    if (data.size() != 1u) { rb.serve.Shutdown(); co_return; }
    EXPECT_EQ(data[0].GetString("id", ""), "llama-3.2-1b-fp16");
    EXPECT_EQ(data[0].GetString("engine", ""), "ollama");
    EXPECT_EQ(data[0].GetString("state", ""), "swapped-out");
    rb.serve.Shutdown();
  });
}

TEST(RouterTest, DefaultsApplied) {
  TestBed bed;
  RouterBed rb(bed);
  ChatResult result;
  bed.RunTask([&]() -> sim::Task<> {
    EXPECT_TRUE((co_await rb.serve.Initialize()).ok());
    // No max_tokens -> default 512; no temperature -> 0.
    auto ch = rb.serve.router().ChatCompletions(
        R"({"model":"llama-3.2-1b-fp16","messages":[{"role":"user","content":"hi"}]})");
    EXPECT_TRUE(ch.ok());
    result = co_await SwapServe::CollectResponse(*ch);
    rb.serve.Shutdown();
  });
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.output_tokens, 512);
}

}  // namespace
}  // namespace swapserve::core
