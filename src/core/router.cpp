#include "core/router.h"

#include <algorithm>
#include <cmath>
#include <string_view>

namespace swapserve::core {

namespace {

using View = json::Document::View;

// Optional request fields: absent and null both leave the default; a field
// that is present with the wrong type is rejected by name (OpenAI answers
// 400 for these) rather than silently defaulted.
Status WrongType(std::string_view key, const char* what) {
  return InvalidArgument(std::string(key) + " must be " + what);
}

// Member `key` of `body`, or an invalid view when it is absent or null.
View Present(View body, std::string_view key) {
  const View v = body.Find(key);
  return v.is_null() ? View() : v;
}

Status Read(View body, std::string_view key, std::string_view& out) {
  const View v = Present(body, key);
  if (!v) return Status::Ok();
  if (!v.is_string()) return WrongType(key, "a string");
  out = v.AsString();
  return Status::Ok();
}

Status Read(View body, std::string_view key, double& out) {
  const View v = Present(body, key);
  if (!v) return Status::Ok();
  if (!v.is_number()) return WrongType(key, "a number");
  out = v.AsDouble();
  return Status::Ok();
}

// Integral numbers only (1e19 counts; it saturates like any out-of-range
// integer), so 1.9 is refused instead of truncated.
Status Read(View body, std::string_view key, std::int64_t& out) {
  const View v = Present(body, key);
  if (!v) return Status::Ok();
  if (!v.is_number() || std::trunc(v.AsDouble()) != v.AsDouble()) {
    return WrongType(key, "an integer");
  }
  out = v.AsInt();
  return Status::Ok();
}

Status Read(View body, std::string_view key, bool& out) {
  const View v = Present(body, key);
  if (!v) return Status::Ok();
  if (!v.is_bool()) return WrongType(key, "a boolean");
  out = v.AsBool();
  return Status::Ok();
}

}  // namespace

std::int64_t OpenAiRouter::EstimatePromptTokens(json::Document::View messages) {
  if (!messages.is_array()) return 1;
  std::int64_t chars = 0;
  std::int64_t message_count = 0;
  for (json::Document::View msg = messages.FirstChild(); msg;
       msg = msg.NextSibling()) {
    if (!msg.is_object()) continue;
    ++message_count;
    const json::Document::View content = msg.Find("content");
    if (!content.valid()) continue;
    if (content.is_string()) {
      chars += static_cast<std::int64_t>(content.AsString().size());
    } else if (content.is_array()) {
      // OpenAI content-part form: [{"type":"text","text":"..."}, ...].
      // Non-text parts (image_url, audio) carry no countable characters.
      for (json::Document::View part = content.FirstChild(); part;
           part = part.NextSibling()) {
        if (!part.is_object()) continue;
        const json::Document::View text = part.Find("text");
        if (text.is_string()) {
          chars += static_cast<std::int64_t>(text.AsString().size());
        }
      }
    }
    // Numbers, booleans, null, bare objects: nothing countable.
  }
  return std::max<std::int64_t>(1, chars / 4 + message_count * 4);
}

Result<ResponseChannelPtr> OpenAiRouter::ChatCompletions(
    const std::string& body_json, const std::string& bearer_token) {
  obs::Span api_span = obs::StartSpan(obs_, "router.chat_completions",
                                      "router", "router");
  const auto fail = [this](const char* outcome, Status status) {
    obs::IncCounter(obs_, "swapserve_router_requests_total",
                    {{"outcome", outcome}});
    return status;
  };

  {
    obs::Span auth_span = obs::StartSpan(obs_, "auth", "router", "router");
    const std::string& expected = handler_.global().auth_token;
    if (!expected.empty() && bearer_token != expected) {
      return fail("unauthenticated",
                  FailedPrecondition("invalid authentication token"));
    }
  }

  obs::Span validate_span =
      obs::StartSpan(obs_, "validate", "router", "router");
  // In-situ parse through the router's scratch buffer: assign() reuses
  // capacity, the Document recycles its node arena, and every string the
  // validation below reads is a view into scratch_.
  scratch_.assign(body_json);
  Status parsed = doc_.ParseInSitu(scratch_);
  if (!parsed.ok()) return fail("invalid", parsed);
  const json::Document::View body = doc_.root();
  if (!body.is_object()) {
    return fail("invalid",
                InvalidArgument("request body must be a JSON object"));
  }

  InferenceRequest request;
  request.max_tokens = 512;
  std::string_view model;
  std::int64_t seed = 0;
  std::string_view user;
  std::string_view slo_class;
  Status read = Read(body, "model", model);
  if (read.ok()) read = Read(body, "temperature", request.temperature);
  if (read.ok()) read = Read(body, "max_tokens", request.max_tokens);
  if (read.ok()) read = Read(body, "seed", seed);
  if (read.ok()) read = Read(body, "stream", request.stream);
  if (read.ok()) read = Read(body, "user", user);
  if (read.ok()) read = Read(body, "slo_class", slo_class);
  if (!read.ok()) return fail("invalid", std::move(read));
  if (model.empty()) {
    return fail("invalid", InvalidArgument("missing required field: model"));
  }

  const json::Document::View messages = body.Find("messages");
  if (!messages.is_array() || messages.size() == 0) {
    return fail("invalid",
                InvalidArgument("messages must be a non-empty array"));
  }
  for (json::Document::View msg = messages.FirstChild(); msg;
       msg = msg.NextSibling()) {
    if (!msg.is_object() || msg.GetString("role", "").empty()) {
      return fail("invalid", InvalidArgument("each message needs a role"));
    }
  }

  if (request.temperature < 0.0 || request.temperature > 2.0) {
    return fail("invalid", InvalidArgument("temperature must be in [0, 2]"));
  }
  if (request.max_tokens <= 0 || request.max_tokens > 16384) {
    return fail("invalid",
                InvalidArgument("max_tokens must be in [1, 16384]"));
  }
  validate_span.End();

  request.model.assign(model);
  request.prompt_tokens = EstimatePromptTokens(messages);
  request.seed = static_cast<std::uint64_t>(seed);
  request.tenant.assign(user);
  request.slo_class.assign(slo_class);

  obs::Span enqueue_span =
      obs::StartSpan(obs_, "enqueue", "router", "router");
  enqueue_span.AddArg("model", request.model);
  Result<ResponseChannelPtr> accepted = handler_.Accept(std::move(request));
  if (!accepted.ok()) {
    const bool full = accepted.status().code() == StatusCode::kResourceExhausted;
    return fail(full ? "queue_full" : "not_found", accepted.status());
  }
  accepted_.Increment();
  return accepted;
}

json::Value OpenAiRouter::ListModels() const {
  json::Value out = json::Value::MakeObject();
  out["object"] = json::Value("list");
  out["data"] = json::Value::MakeArray();
  for (const auto& [name, backend] : handler_.backends()) {
    json::Value entry = json::Value::MakeObject();
    entry["id"] = json::Value(name);
    entry["object"] = json::Value("model");
    entry["owned_by"] = json::Value("swapserve");
    entry["engine"] = json::Value(std::string(backend->engine->kind_name()));
    entry["state"] = json::Value(
        std::string(engine::BackendStateName(backend->engine->state())));
    out["data"].PushBack(std::move(entry));
  }
  return out;
}

}  // namespace swapserve::core
