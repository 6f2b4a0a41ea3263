// Unit tests for the zero-copy in-situ parser (DESIGN.md §16). The
// conformance suite covers dialect agreement; this file pins the Document's
// own contracts: borrowing from the caller's buffer, in-place unescaping,
// insertion-ordered iteration with a key-sorted DOM bridge, the integer
// fast path, saturating AsInt, and arena/buffer reuse.

#include "json/document.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "json/json.h"

namespace swapserve::json {
namespace {

TEST(DocumentTest, ScalarRoots) {
  Document doc;
  std::string buf = "null";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.root().is_null());

  buf = "true";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.root().AsBool());

  buf = "-17";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.root().is_int());
  EXPECT_EQ(doc.root().AsInt(), -17);

  buf = "3.25";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_FALSE(doc.root().is_int());
  EXPECT_DOUBLE_EQ(doc.root().AsDouble(), 3.25);

  buf = "\"hi\"";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_EQ(doc.root().AsString(), "hi");
}

TEST(DocumentTest, CleanStringsBorrowFromTheBuffer) {
  Document doc;
  std::string buf = R"({"model":"llama-3.2-1b"})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  const std::string_view model = doc.root().GetString("model", "");
  EXPECT_EQ(model, "llama-3.2-1b");
  // Zero-copy: the view points inside the caller's buffer.
  EXPECT_GE(model.data(), buf.data());
  EXPECT_LT(model.data(), buf.data() + buf.size());
}

TEST(DocumentTest, EscapedStringsUnescapeInPlace) {
  Document doc;
  std::string buf = R"("line1\nline2\t\"quoted\"\\A")";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  const std::string_view s = doc.root().AsString();
  EXPECT_EQ(s, "line1\nline2\t\"quoted\"\\A");
  // Still borrowed: unescaping shrinks, never reallocates.
  EXPECT_GE(s.data(), buf.data());
  EXPECT_LT(s.data(), buf.data() + buf.size());
}

TEST(DocumentTest, UnicodeEscapesAndSurrogatePairs) {
  Document doc;
  std::string buf = R"("é € 😀")";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_EQ(doc.root().AsString(),
            "\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80");

  buf = R"("\ud800")";
  EXPECT_FALSE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.empty());
}

TEST(DocumentTest, ObjectIterationKeepsInsertionOrder) {
  Document doc;
  std::string buf = R"({"z":1,"a":2,"m":3})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  std::string order;
  for (Document::View m = doc.root().FirstChild(); m; m = m.NextSibling()) {
    order += m.key();
  }
  EXPECT_EQ(order, "zam");  // document order, not sorted
  EXPECT_EQ(doc.root().size(), 3u);
}

TEST(DocumentTest, ToValueSortsKeysAndMatchesDom) {
  Document doc;
  std::string buf = R"({"z":1,"a":{"y":[1,2],"b":"x"},"m":3.5})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  const std::string dom_dump = Parse(R"({"z":1,"a":{"y":[1,2],"b":"x"},"m":3.5})")->Dump();
  EXPECT_EQ(doc.ToValue().Dump(), dom_dump);
}

TEST(DocumentTest, DuplicateKeysKeepEveryMemberButToValueLastWins) {
  Document doc;
  std::string buf = R"({"a":1,"a":2,"b":3})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  // The arena keeps both members in document order...
  EXPECT_EQ(doc.root().size(), 3u);
  // ...Find sees the first...
  EXPECT_EQ(doc.root().Find("a").AsInt(), 1);
  // ...and the DOM bridge collapses to last-wins, matching the DOM parser.
  EXPECT_EQ(doc.ToValue().Dump(), Parse(buf)->Dump());
  EXPECT_EQ(doc.ToValue().Dump(), R"({"a":2,"b":3})");
}

TEST(DocumentTest, TypedGettersFallBack) {
  Document doc;
  std::string buf = R"({"n":1,"s":"x","b":true})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  const Document::View root = doc.root();
  EXPECT_EQ(root.GetString("s", "d"), "x");
  EXPECT_EQ(root.GetString("n", "d"), "d");  // wrong type -> fallback
  EXPECT_EQ(root.GetString("missing", "d"), "d");
  EXPECT_EQ(root.Find("n").AsInt(), 1);
  EXPECT_TRUE(root.Find("b").AsBool());
  EXPECT_FALSE(root.Find("missing").valid());
}

TEST(DocumentTest, IntegerFastPathBoundaries) {
  Document doc;
  // 18 digits: exact through the integer fast path.
  std::string buf = "999999999999999999";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.root().is_int());
  EXPECT_EQ(doc.root().AsInt(), 999999999999999999LL);

  // 19 digits: falls back to double, still a number.
  buf = "9999999999999999999";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.root().is_number());
  EXPECT_FALSE(doc.root().is_int());
}

TEST(DocumentTest, AsIntSaturatesOutOfRangeNumbers) {
  Document doc;
  // 2^63 - 1 rounds to 2^63 as a double: one past the range, so it clamps.
  std::string buf = "[1e300,-1e300,1e19,-1e19,9223372036854775807,-2.9]";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  std::vector<std::int64_t> got;
  for (Document::View v = doc.root().FirstChild(); v; v = v.NextSibling()) {
    got.push_back(v.AsInt());
  }
  EXPECT_EQ(got, (std::vector<std::int64_t>{INT64_MAX, INT64_MIN, INT64_MAX,
                                            INT64_MIN, INT64_MAX, -2}));
}

TEST(DocumentTest, ErrorLeavesDocumentEmpty) {
  Document doc;
  std::string buf = R"({"ok":1})";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  EXPECT_FALSE(doc.empty());

  buf = R"({"broken":)";
  EXPECT_FALSE(doc.ParseInSitu(buf).ok());
  EXPECT_TRUE(doc.empty());
  EXPECT_FALSE(doc.root().valid());
}

TEST(DocumentTest, ReuseAcrossParsesRecyclesTheArena) {
  Document doc;
  for (int i = 0; i < 100; ++i) {
    std::string buf = R"({"model":"m","messages":[{"role":"user","content":"hi"}]})";
    ASSERT_TRUE(doc.ParseInSitu(buf).ok());
    EXPECT_EQ(doc.root().GetString("model", ""), "m");
  }
}

TEST(DocumentTest, MoveTransfersTheArena) {
  Document doc;
  std::string buf = R"([1,2,3])";
  ASSERT_TRUE(doc.ParseInSitu(buf).ok());
  Document moved = std::move(doc);
  EXPECT_EQ(moved.root().size(), 3u);
}

TEST(DocumentTest, RawRangeOverloadMatchesStringOverload) {
  std::string text = R"({"a":[1,"two",null]})";
  std::string buf1 = text;
  Document d1;
  ASSERT_TRUE(d1.ParseInSitu(buf1).ok());

  std::string buf2 = text;
  Document d2;
  ASSERT_TRUE(d2.ParseInSitu(buf2.data(), buf2.size()).ok());
  EXPECT_TRUE(d1.ToValue() == d2.ToValue());
}

TEST(DocumentTest, DeepNestingLimitsMatchTheDialect) {
  const auto nested = [](int n) {
    return std::string(static_cast<std::size_t>(n), '[') +
           std::string(static_cast<std::size_t>(n), ']');
  };
  Document doc;
  std::string ok = nested(257);
  EXPECT_TRUE(doc.ParseInSitu(ok).ok());
  std::string bad = nested(258);
  EXPECT_FALSE(doc.ParseInSitu(bad).ok());
}

// Byte-at-a-time reference for a document that is one string followed by
// spaces, written independently of the parser's block scanner. It knows the
// escapes the lane sweep below generates (\n and \u00e9) and keeps the
// parser's error offsets: a raw control byte is reported at its own offset
// before the first escape and one past it once decoding has begun.
struct Outcome {
  bool ok = false;
  std::string text;   // decoded string when ok
  std::string error;  // full status message otherwise
};

Outcome ReferenceParse(const std::string& doc) {
  const auto fail = [](std::size_t at, const char* what) {
    return Outcome{false, "",
                   "json parse error at offset " + std::to_string(at) + ": " +
                       what};
  };
  std::string out;
  bool decoding = false;
  std::size_t p = 1;  // past the opening quote
  while (true) {
    if (p >= doc.size()) return fail(p, "unterminated string");
    const auto c = static_cast<unsigned char>(doc[p]);
    if (c == '"') {
      ++p;
      break;
    }
    if (c < 0x20) {
      return fail(decoding ? p + 1 : p,
                  "unescaped control character in string");
    }
    if (c != '\\') {
      out += static_cast<char>(c);
      ++p;
      continue;
    }
    decoding = true;
    if (doc.compare(p, 2, "\\n") == 0) {
      out += '\n';
      p += 2;
    } else if (doc.compare(p, 6, "\\u00e9") == 0) {
      out += "\xC3\xA9";
      p += 6;
    } else {
      ADD_FAILURE() << "reference does not know this escape";
      return Outcome{};
    }
  }
  while (p < doc.size() && doc[p] == ' ') ++p;
  if (p != doc.size()) return fail(p, "trailing characters after JSON document");
  return Outcome{true, out, ""};
}

// Sweeps every lane of the 16-byte string scanner: string lengths 0-48, one
// special or boundary byte at each position, with and without an escape in
// front (so both the borrow scan and the decode loop see it),
// and the closing quote 0-17 bytes from the end of an exactly sized heap
// buffer, so a sanitizer build catches any read past it.
TEST(DocumentTest, StringScannerLaneSweepMatchesByteReference) {
  std::vector<std::string> items = {"\"", "\\u00e9"};
  for (int c = 0x00; c < 0x20; ++c) items.emplace_back(1, static_cast<char>(c));
  for (int c : {0x20, 0x7F, 0x80, 0xFF}) {
    items.emplace_back(1, static_cast<char>(c));
  }
  const std::string leads[] = {"", "\\n"};

  Document doc;
  int mismatches = 0;
  for (std::size_t len = 0; len <= 48; ++len) {
    std::string filler(len, ' ');
    for (std::size_t k = 0; k < len; ++k) {
      filler[k] = static_cast<char>('A' + k % 26);
    }
    for (const std::string& lead : leads) {
      for (std::size_t pos = 0; pos < std::max<std::size_t>(len, 1); ++pos) {
        for (const std::string& item : items) {
          std::string body = filler;
          if (len > 0) body.replace(pos, 1, item);
          for (std::size_t tail = 0; tail <= 17; ++tail) {
            const std::string text =
                "\"" + lead + body + "\"" + std::string(tail, ' ');
            const Outcome want = ReferenceParse(text);
            std::unique_ptr<char[]> buf(new char[text.size()]);
            std::memcpy(buf.get(), text.data(), text.size());
            const Status got = doc.ParseInSitu(buf.get(), text.size());

            std::string diff;
            if (got.ok() != want.ok) {
              diff = "verdict: got " + got.ToString();
            } else if (!want.ok && got.message() != want.error) {
              diff = "error: got '" + got.message() + "' want '" +
                     want.error + "'";
            } else if (want.ok && doc.root().AsString() != want.text) {
              diff = "decoded bytes differ";
            } else if (want.ok) {
              Result<Value> dom = Parse(text);
              if (!dom.ok() || dom->AsString() != want.text) {
                diff = "DOM parser disagrees";
              }
            }
            if (!diff.empty()) {
              ADD_FAILURE() << diff << " (len " << len << ", pos " << pos
                            << ", item 0x" << std::hex
                            << static_cast<int>(
                                   static_cast<unsigned char>(item[0]))
                            << std::dec << ", lead '" << lead << "', tail "
                            << tail << ")";
              if (++mismatches >= 20) return;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace swapserve::json
