// JSON conformance battery (DESIGN.md §16): runs the checked-in corpus in
// tests/json/data/ through both parsers — the recursive DOM reference
// (json::Parse) and the in-situ Document::ParseInSitu the router uses — and
// pins that they implement one dialect:
//   y_*.json  both parsers accept; the trees are equal and serialize
//             byte-identically
//   n_*.json  both parsers reject
//   i_*.json  implementation-defined per RFC 8259; the parsers must agree

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/document.h"
#include "json/json.h"

namespace swapserve::json {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::filesystem::path> CorpusFiles(const std::string& prefix) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SWAPSERVE_JSON_DATA_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0 && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool DomAccepts(const std::string& text) { return Parse(text).ok(); }

bool InSituAccepts(const std::string& text) {
  std::string buffer = text;
  Document doc;
  return doc.ParseInSitu(buffer).ok();
}

TEST(JsonConformanceTest, CorpusIsPresent) {
  EXPECT_GE(CorpusFiles("y_").size(), 30u);
  EXPECT_GE(CorpusFiles("n_").size(), 30u);
  EXPECT_GE(CorpusFiles("i_").size(), 3u);
}

TEST(JsonConformanceTest, AcceptCases) {
  for (const auto& path : CorpusFiles("y_")) {
    const std::string text = ReadFile(path);
    const std::string name = path.filename().string();
    EXPECT_TRUE(DomAccepts(text)) << name;
    EXPECT_TRUE(InSituAccepts(text)) << name;
  }
}

TEST(JsonConformanceTest, RejectCases) {
  for (const auto& path : CorpusFiles("n_")) {
    const std::string text = ReadFile(path);
    const std::string name = path.filename().string();
    EXPECT_FALSE(DomAccepts(text)) << name;
    EXPECT_FALSE(InSituAccepts(text)) << name;
  }
}

TEST(JsonConformanceTest, ImplementationDefinedCasesAgree) {
  for (const auto& path : CorpusFiles("i_")) {
    const std::string text = ReadFile(path);
    const std::string name = path.filename().string();
    const bool dom = DomAccepts(text);
    EXPECT_EQ(InSituAccepts(text), dom) << name;
  }
}

TEST(JsonConformanceTest, DomAndInSituTreesMatchOnAcceptCases) {
  for (const auto& path : CorpusFiles("y_")) {
    const std::string text = ReadFile(path);
    const std::string name = path.filename().string();
    Result<Value> dom = Parse(text);
    ASSERT_TRUE(dom.ok()) << name;

    std::string buffer = text;
    Document doc;
    ASSERT_TRUE(doc.ParseInSitu(buffer).ok()) << name;

    // Same tree through conversion, and byte-identical serialization.
    EXPECT_TRUE(doc.ToValue() == *dom) << name;
    EXPECT_EQ(doc.ToValue().Dump(), dom->Dump()) << name;
  }
}

// Depth margins beyond what the corpus files pin: the limit is "a value may
// not start with more than 256 containers open", identically in both.
TEST(JsonConformanceTest, DepthLimitAgreesAcrossParsers) {
  const auto nested = [](int n) {
    return std::string(static_cast<std::size_t>(n), '[') +
           std::string(static_cast<std::size_t>(n), ']');
  };
  for (int depth : {255, 256, 257, 258, 300}) {
    const std::string text = nested(depth);
    const bool dom = DomAccepts(text);
    EXPECT_EQ(dom, depth <= 257) << depth;
    EXPECT_EQ(InSituAccepts(text), dom) << depth;
  }
}

}  // namespace
}  // namespace swapserve::json
