#include "json/json.h"

#include <gtest/gtest.h>

namespace swapserve::json {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_EQ(Parse("true")->AsBool(), true);
  EXPECT_EQ(Parse("false")->AsBool(), false);
  EXPECT_DOUBLE_EQ(Parse("3.25")->AsDouble(), 3.25);
  EXPECT_EQ(Parse("-17")->AsInt(), -17);
  EXPECT_DOUBLE_EQ(Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, NestedStructure) {
  auto r = Parse(R"({
    "models": [
      {"name": "llama-3.2-1b", "memory_gb": 3.6},
      {"name": "deepseek-r1-14b", "memory_gb": 30.5}
    ],
    "router": {"port": 8080, "streaming": true}
  })");
  ASSERT_TRUE(r.ok()) << r.status();
  const Value& v = *r;
  const auto& models = v.Find("models")->AsArray();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].GetString("name", ""), "llama-3.2-1b");
  EXPECT_DOUBLE_EQ(models[1].GetDouble("memory_gb", 0), 30.5);
  EXPECT_EQ(v.Find("router")->GetInt("port", 0), 8080);
  EXPECT_TRUE(v.Find("router")->GetBool("streaming", false));
}

TEST(JsonParseTest, StringEscapes) {
  auto r = Parse(R"("line1\nline2\t\"quoted\"\\A")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->AsString(), "line1\nline2\t\"quoted\"\\A");
}

TEST(JsonParseTest, UnicodeEscapes) {
  // U+00E9 (é) and U+20AC (€) as 2- and 3-byte UTF-8.
  EXPECT_EQ(Parse(R"("é")")->AsString(), "\xC3\xA9");
  EXPECT_EQ(Parse(R"("€")")->AsString(), "\xE2\x82\xAC");
}

TEST(JsonParseTest, Whitespace) {
  auto r = Parse("  {\n\t\"a\" : [ 1 , 2 ]\r\n}  ");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Find("a")->AsArray().size(), 2u);
}

TEST(JsonParseTest, ErrorCases) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("{\"a\":}").ok());
  EXPECT_FALSE(Parse("\"unterminated").ok());
  EXPECT_FALSE(Parse("tru").ok());
  EXPECT_FALSE(Parse("1 2").ok());       // trailing content
  EXPECT_FALSE(Parse("{a: 1}").ok());    // unquoted key
  EXPECT_FALSE(Parse("\"\\ud800\"").ok());  // surrogate
  EXPECT_FALSE(Parse("\"\\q\"").ok());   // bad escape
  EXPECT_FALSE(Parse("01x").ok());
}

TEST(JsonParseTest, DeepNestingRejected) {
  std::string evil(1000, '[');
  evil += std::string(1000, ']');
  EXPECT_FALSE(Parse(evil).ok());
}

TEST(JsonParseTest, DuplicateKeysLastWins) {
  auto r = Parse(R"({"a": 1, "a": 2})");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetInt("a", 0), 2);
}

TEST(JsonDumpTest, RoundTrip) {
  const std::string doc =
      R"({"a":[1,2.5,"x"],"b":{"c":null,"d":true},"e":"q\"uo\nte"})";
  auto v1 = Parse(doc);
  ASSERT_TRUE(v1.ok());
  auto v2 = Parse(v1->Dump());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v1, *v2);
}

TEST(JsonDumpTest, IntegersStayIntegral) {
  Value v = Value::MakeObject();
  v["tokens"] = Value(128);
  EXPECT_EQ(v.Dump(), R"({"tokens":128})");
}

TEST(JsonDumpTest, PrettyIndents) {
  Value v = Value::MakeObject();
  v["a"] = Value(1);
  const std::string pretty = v.Pretty();
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(JsonDumpTest, DeterministicKeyOrder) {
  auto a = Parse(R"({"z":1,"a":2})");
  auto b = Parse(R"({"a":2,"z":1})");
  EXPECT_EQ(a->Dump(), b->Dump());
}

TEST(JsonBuildTest, ProgrammaticConstruction) {
  Value req = Value::MakeObject();
  req["model"] = Value("deepseek-r1-7b");
  req["temperature"] = Value(0.0);
  req["messages"] = Value::MakeArray();
  Value msg = Value::MakeObject();
  msg["role"] = Value("user");
  msg["content"] = Value("hello");
  req["messages"].PushBack(std::move(msg));
  EXPECT_EQ(
      req.Dump(),
      R"({"messages":[{"content":"hello","role":"user"}],"model":"deepseek-r1-7b","temperature":0})");
}

TEST(JsonValueTest, CopySemanticsDeep) {
  Value a = Value::MakeObject();
  a["k"] = Value::MakeArray();
  a["k"].PushBack(Value(1));
  Value b = a;
  b["k"].PushBack(Value(2));
  EXPECT_EQ(a.Find("k")->AsArray().size(), 1u);
  EXPECT_EQ(b.Find("k")->AsArray().size(), 2u);
}

TEST(JsonValueTest, TypedGettersWithFallbacks) {
  auto v = Parse(R"({"s": "x", "n": 5, "b": true})");
  EXPECT_EQ(v->GetString("s", "d"), "x");
  EXPECT_EQ(v->GetString("missing", "d"), "d");
  EXPECT_EQ(v->GetString("n", "d"), "d");  // wrong type -> fallback
  EXPECT_EQ(v->GetInt("n", -1), 5);
  EXPECT_EQ(v->GetInt("s", -1), -1);
  EXPECT_TRUE(v->GetBool("b", false));
  EXPECT_FALSE(v->GetBool("s", false));
}

TEST(JsonValueTest, AsIntSaturatesOutOfRangeNumbers) {
  EXPECT_EQ(Value(1e300).AsInt(), INT64_MAX);
  EXPECT_EQ(Value(-1e300).AsInt(), INT64_MIN);
  EXPECT_EQ(Value(1e19).AsInt(), INT64_MAX);
  EXPECT_EQ(Value(-1e19).AsInt(), INT64_MIN);
  EXPECT_EQ(Parse(R"({"seed": 1e19})")->GetInt("seed", 0), INT64_MAX);
  // In range, including the exact lower limit -2^63, converts unchanged.
  EXPECT_EQ(Value(-9223372036854775808.0).AsInt(), INT64_MIN);
  EXPECT_EQ(Value(-2.9).AsInt(), -2);
}

TEST(JsonValueTest, FindOnNonObjectReturnsNull) {
  Value v(3.0);
  EXPECT_EQ(v.Find("a"), nullptr);
}

}  // namespace
}  // namespace swapserve::json
