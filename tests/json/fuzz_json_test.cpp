// Deterministic fuzz battery for the JSON parsers (DESIGN.md §16).
//
// Three generators, all seeded and reproducible (no wall-clock entropy):
//   1. Structure-aware: builds random valid documents from a grammar, dumps
//      them, and requires the DOM and in-situ parsers to accept and agree.
//   2. Mutational: takes valid documents and corrupts bytes; parsers must
//      never crash and must agree on the accept/reject verdict.
//   3. Long strings: request-shaped bodies with strings of up to ~2,000
//      bytes (the grammar's strings are short and mostly escapes), clean and
//      with control bytes dropped in; verdicts and documents must agree.
// A checked-in crash-regression corpus pins inputs that historically broke
// (or plausibly break) hand-rolled parsers. The same corpus feeds the
// optional libFuzzer entry (fuzz_entry.cpp, -DSWAPSERVE_FUZZ=ON).

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json/document.h"
#include "json/json.h"

namespace swapserve::json {
namespace {

// Small deterministic PRNG (splitmix64) — the test must not depend on
// std::random_device or libstdc++'s distribution implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

// Grammar-directed generator for random valid JSON text.
void GenValue(Rng& rng, int depth, std::string& out) {
  const std::uint64_t kind = rng.Below(depth >= 4 ? 5 : 7);
  switch (kind) {
    case 0:
      out += "null";
      break;
    case 1:
      out += rng.Below(2) == 0 ? "true" : "false";
      break;
    case 2: {  // integer
      out += std::to_string(static_cast<std::int64_t>(rng.Next() >> 20) -
                            (1LL << 43));
      break;
    }
    case 3: {  // real
      out += std::to_string(static_cast<std::int64_t>(rng.Below(1000)));
      out += '.';
      out += std::to_string(rng.Below(1000));
      if (rng.Below(3) == 0) {
        out += 'e';
        out += rng.Below(2) == 0 ? "-" : "";
        out += std::to_string(rng.Below(30));
      }
      break;
    }
    case 4: {  // string with escapes and non-ASCII
      out += '"';
      const std::uint64_t len = rng.Below(12);
      for (std::uint64_t i = 0; i < len; ++i) {
        switch (rng.Below(8)) {
          case 0: out += "\\n"; break;
          case 1: out += "\\\""; break;
          case 2: out += "\\\\"; break;
          case 3: out += "\\u00e9"; break;
          case 4: out += "\\ud83d\\ude00"; break;
          default:
            out += static_cast<char>('a' + rng.Below(26));
            break;
        }
      }
      out += '"';
      break;
    }
    case 5: {  // array
      out += '[';
      const std::uint64_t n = rng.Below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i > 0) out += ',';
        GenValue(rng, depth + 1, out);
      }
      out += ']';
      break;
    }
    default: {  // object
      out += '{';
      const std::uint64_t n = rng.Below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += static_cast<char>('a' + rng.Below(26));
        out += std::to_string(i);
        out += "\":";
        GenValue(rng, depth + 1, out);
      }
      out += '}';
      break;
    }
  }
}

struct Verdicts {
  bool dom = false;
  bool insitu = false;
};

// Runs both parsers; the parse itself must not crash (asan/ubsan runs of
// this binary are part of scripts/check_request_plane.sh).
Verdicts ParseAll(const std::string& text) {
  Verdicts v;
  v.dom = Parse(text).ok();
  std::string buffer = text;
  Document doc;
  v.insitu = doc.ParseInSitu(buffer).ok();
  return v;
}

// Inputs that target the sharp edges of hand-rolled parsers: truncation
// inside every token kind, escape/surrogate boundaries, number grammar
// corners, depth bombs, and in-place-unescape overlap patterns.
const std::vector<std::string>& CrashCorpus() {
  static const std::vector<std::string> kCorpus = {
      "",
      " ",
      "\"",
      "\"\\",
      "\"\\u",
      "\"\\u0",
      "\"\\ud8",
      "\"\\ud800",
      "\"\\ud800\\",
      "\"\\ud800\\u",
      "\"\\ud800\\udc0",
      "\"\\ud800\\udc00",
      "\"\\ud800\\udc00\"",
      "\"\\udc00\\ud800\"",
      "[\"\\ud834\\udd1e\"]",
      "-",
      "-0",
      "0.",
      "0.0e",
      "1e+",
      "1e-",
      "00",
      "0x10",
      "1e99999",
      "-1e99999",
      "18446744073709551615",
      "-9223372036854775808",
      "9223372036854775807",
      "[",
      "]",
      "{",
      "}",
      "[[",
      "{{",
      "[]]",
      "{}}",
      "[,]",
      "{:}",
      "{\"\":}",
      "{\"\":0}",
      "[0",
      "[0,",
      "{\"a\"",
      "{\"a\":",
      "{\"a\":0",
      "{\"a\":0,",
      "t",
      "tr",
      "tru",
      "truee",
      "nul",
      "nulll",
      "fals",
      std::string(1000, '['),
      std::string(300, '[') + std::string(300, ']'),
      std::string("\"") + std::string(100, '\\') + "\"",
      "\"\\n\\t\\r\\b\\f\\\"\\\\\\/\"",
      "\"\\u0000\"",
      std::string("[\"a\x00z\"]", 8),  // embedded NUL byte
      "\"\xff\xfe\"",
      "\"\xf0\x9f\x98\"",  // truncated UTF-8 (raw bytes pass through)
      "[1,2,3]  \n\t ",
      "[1,2,3] x",
  };
  return kCorpus;
}

TEST(FuzzJsonTest, CrashCorpusParsersAgreeAndNeverCrash) {
  for (const std::string& input : CrashCorpus()) {
    const Verdicts v = ParseAll(input);
    EXPECT_EQ(v.insitu, v.dom) << "input: " << input;
  }
}

TEST(FuzzJsonTest, GeneratedDocumentsRoundTripThroughAllParsers) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL);
    std::string text;
    GenValue(rng, 0, text);

    Result<Value> dom = Parse(text);
    ASSERT_TRUE(dom.ok()) << "seed " << seed << ": " << text;

    std::string buffer = text;
    Document doc;
    ASSERT_TRUE(doc.ParseInSitu(buffer).ok()) << "seed " << seed;
    EXPECT_TRUE(doc.ToValue() == *dom) << "seed " << seed;
    EXPECT_EQ(doc.ToValue().Dump(), dom->Dump()) << "seed " << seed;
  }
}

TEST(FuzzJsonTest, MutatedDocumentsNeverCrashAndParsersAgree) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 0xBF58476D1CE4E5B9ULL);
    std::string text;
    GenValue(rng, 0, text);
    if (text.empty()) continue;

    // A handful of byte-level corruptions per document.
    for (int round = 0; round < 8; ++round) {
      std::string mutated = text;
      const std::uint64_t edits = 1 + rng.Below(3);
      for (std::uint64_t e = 0; e < edits && !mutated.empty(); ++e) {
        const std::uint64_t pos = rng.Below(mutated.size());
        switch (rng.Below(3)) {
          case 0:  // flip to a random byte (including controls)
            mutated[pos] = static_cast<char>(rng.Below(256));
            break;
          case 1:  // delete
            mutated.erase(pos, 1);
            break;
          default:  // duplicate
            mutated.insert(pos, 1, mutated[pos]);
            break;
        }
      }
      if (mutated.empty()) continue;
      const Verdicts v = ParseAll(mutated);
      EXPECT_EQ(v.insitu, v.dom) << "seed " << seed << " round " << round;
    }
  }
}

// Appends a string literal of 0 to about `max_len` source bytes shaped like
// prompt text: clean runs with escapes and raw UTF-8 between them, long
// enough that most of it goes through the in-situ parser's 16-byte scan.
void GenLongString(Rng& rng, std::uint64_t max_len, std::string& out) {
  static const char* const kEscapes[] = {
      "\\n", "\\t", "\\\"", "\\\\", "\\/", "\\r", "\\b", "\\f",
      "\\u00e9", "\\u20ac", "\\ud83d\\ude00"};
  static const char* const kUtf8[] = {"\xC3\xA9", "\xE2\x82\xAC",
                                      "\xF0\x9F\x98\x80"};
  const std::uint64_t target = rng.Below(max_len + 1);
  out += '"';
  const std::size_t start = out.size();
  while (out.size() - start < target) {
    const std::uint64_t pick = rng.Below(10);
    if (pick < 6) {
      const std::uint64_t room = target - (out.size() - start);
      const std::uint64_t n = 1 + rng.Below(std::min<std::uint64_t>(64, room));
      for (std::uint64_t i = 0; i < n; ++i) {
        char c = static_cast<char>(' ' + rng.Below(95));
        if (c == '"' || c == '\\') c = ' ';
        out += c;
      }
    } else if (pick < 9) {
      out += kEscapes[rng.Below(std::size(kEscapes))];
    } else {
      out += kUtf8[rng.Below(std::size(kUtf8))];
    }
  }
  out += '"';
}

// Both parsers must agree on the verdict and, when they accept, on the
// document. The in-situ copy is an exactly sized heap buffer, so a
// sanitizer build sees a read past its end.
void ExpectParsersAgree(const std::string& text, const std::string& where) {
  Result<Value> dom = Parse(text);
  std::vector<char> buffer(text.begin(), text.end());
  Document doc;
  const Status insitu = doc.ParseInSitu(buffer.data(), buffer.size());
  ASSERT_EQ(insitu.ok(), dom.ok()) << where << ": " << insitu;
  if (dom.ok()) {
    EXPECT_EQ(doc.ToValue().Dump(), dom->Dump()) << where;
  }
}

TEST(FuzzJsonTest, LongStringsAgreeAcrossParsers) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 0xD1B54A32D192ED03ULL);
    std::string text = "{\"model\":";
    GenLongString(rng, 64, text);
    text += ",\"messages\":[";
    const std::uint64_t messages = 1 + rng.Below(3);
    for (std::uint64_t i = 0; i < messages; ++i) {
      if (i > 0) text += ',';
      text += "{\"role\":\"user\",\"content\":";
      GenLongString(rng, 2000, text);
      text += '}';
    }
    text += "]}";
    ASSERT_TRUE(Parse(text).ok()) << "seed " << seed;
    ExpectParsersAgree(text, "seed " + std::to_string(seed));

    // Mutated copies: control bytes dropped in or written over at random
    // offsets, plus the odd arbitrary byte.
    for (int round = 0; round < 8; ++round) {
      std::string mutated = text;
      const std::uint64_t edits = 1 + rng.Below(3);
      for (std::uint64_t e = 0; e < edits; ++e) {
        const std::uint64_t pos = rng.Below(mutated.size());
        switch (rng.Below(3)) {
          case 0:
            mutated[pos] = static_cast<char>(rng.Below(0x20));
            break;
          case 1:
            mutated.insert(pos, 1, static_cast<char>(rng.Below(0x20)));
            break;
          default:
            mutated[pos] = static_cast<char>(rng.Below(256));
            break;
        }
      }
      ExpectParsersAgree(mutated, "seed " + std::to_string(seed) + " round " +
                                      std::to_string(round));
    }
  }
}

}  // namespace
}  // namespace swapserve::json
