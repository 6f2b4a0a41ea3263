#include "json/document.h"

#include <bit>
#include <cstring>
#include <utility>

#include "json/text.h"

namespace swapserve::json {

namespace {

// Returns the first byte in [p, end) that ends a borrowed string (the
// closing quote, an escape, or a raw control character, which the dialect
// rejects), or end. Whole 16-byte blocks are tested at once through the
// GCC/Clang vector extension, which compiles to SSE2 on x86-64 and NEON on
// aarch64; each compare sets a lane to 0xFF, so the first hit is the lowest
// set byte of the two 64-bit halves. The tail shorter than one block goes
// byte by byte.
char* FindStringSpecial(char* p, char* const end) {
  using Block = unsigned char __attribute__((vector_size(16)));
  static_assert(std::endian::native == std::endian::little,
                "lane order below assumes a little-endian target");
  while (end - p >= 16) {
    Block x{};
    std::memcpy(&x, p, sizeof x);
    const auto hit = (x == '"') | (x == '\\') | (x < 0x20);
    std::uint64_t half[2] = {0, 0};
    std::memcpy(half, &hit, sizeof half);
    if (half[0] != 0) return p + std::countr_zero(half[0]) / 8;
    if (half[1] != 0) return p + 8 + std::countr_zero(half[1]) / 8;
    p += 16;
  }
  while (p < end && *p != '"' && *p != '\\' &&
         static_cast<unsigned char>(*p) >= 0x20) {
    ++p;
  }
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// View accessors
// ---------------------------------------------------------------------------

bool Document::View::AsBool() const {
  SWAP_CHECK_MSG(is_bool(), "json: not a bool");
  return node().kind == Kind::kTrue;
}

double Document::View::AsDouble() const {
  SWAP_CHECK_MSG(is_number(), "json: not a number");
  return node().d;
}

std::int64_t Document::View::AsInt() const {
  SWAP_CHECK_MSG(is_number(), "json: not a number");
  return node().kind == Kind::kInt ? node().i : SaturatingInt64(node().d);
}

std::string_view Document::View::AsString() const {
  SWAP_CHECK_MSG(is_string(), "json: not a string");
  return node().str;
}

Document::View Document::View::FirstChild() const {
  if (!valid() || node().count == 0) return View();
  return View(doc_, node().first);
}

Document::View Document::View::NextSibling() const {
  if (!valid() || node().next == 0) return View();
  return View(doc_, node().next);
}

Document::View Document::View::Find(std::string_view key) const {
  if (!is_object()) return View();
  for (View c = FirstChild(); c; c = c.NextSibling()) {
    if (c.key() == key) return c;
  }
  return View();
}

std::string_view Document::View::GetString(std::string_view key,
                                           std::string_view fallback) const {
  const View v = Find(key);
  return v.is_string() ? v.AsString() : fallback;
}

// ---------------------------------------------------------------------------
// In-situ parser
// ---------------------------------------------------------------------------

// The parser appends nodes to the Document's arena as it descends. Children
// of a container are linked through Node::next because they are not
// contiguous (a child array's own children land between two siblings).
// All cross-references are indices: the arena vector may reallocate while a
// container is still being filled.
class Document::Parser {
 public:
  Parser(std::vector<Node>& nodes, char* begin, std::size_t size)
      : nodes_(nodes), begin_(begin), p_(begin), end_(begin + size) {}

  Status Run() {
    nodes_.clear();
    SkipWhitespace();
    nodes_.emplace_back();
    SWAP_RETURN_IF_ERROR(ParseValue(0));
    SkipWhitespace();
    if (p_ != end_) return Error("trailing characters after JSON document");
    return Status::Ok();
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgument("json parse error at offset " +
                           std::to_string(p_ - begin_) + ": " + what);
  }

  void SkipWhitespace() {
    while (p_ < end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (static_cast<std::size_t>(end_ - p_) >= lit.size() &&
        std::string_view(p_, lit.size()) == lit) {
      p_ += lit.size();
      return true;
    }
    return false;
  }

  // Fills nodes_[idx] (already allocated, key already set by the caller).
  Status ParseValue(Index idx) {  // NOLINT(misc-no-recursion)
    if (depth_ > kMaxParseDepth) return Error("nesting too deep");
    if (p_ >= end_) return Error("unexpected end of input");
    switch (*p_) {
      case '{':
        return ParseContainer(idx, Kind::kObject);
      case '[':
        return ParseContainer(idx, Kind::kArray);
      case '"': {
        std::string_view s;
        SWAP_RETURN_IF_ERROR(ParseString(s));
        nodes_[idx].kind = Kind::kString;
        nodes_[idx].str = s;
        return Status::Ok();
      }
      case 't':
        if (ConsumeLiteral("true")) {
          nodes_[idx].kind = Kind::kTrue;
          return Status::Ok();
        }
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          nodes_[idx].kind = Kind::kFalse;
          return Status::Ok();
        }
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          nodes_[idx].kind = Kind::kNull;
          return Status::Ok();
        }
        return Error("invalid literal");
      default:
        return ParseNumber(idx);
    }
  }

  Status ParseContainer(Index idx, Kind kind) {  // NOLINT(misc-no-recursion)
    ++depth_;
    const bool object = kind == Kind::kObject;
    SWAP_CHECK(Consume(object ? '{' : '['));
    nodes_[idx].kind = kind;
    SkipWhitespace();
    if (Consume(object ? '}' : ']')) {
      --depth_;
      return Status::Ok();
    }
    Index prev = 0;
    Index count = 0;
    while (true) {
      SkipWhitespace();
      std::string_view key;
      if (object) {
        if (p_ >= end_ || *p_ != '"') return Error("expected object key");
        SWAP_RETURN_IF_ERROR(ParseString(key));
        SkipWhitespace();
        if (!Consume(':')) return Error("expected ':' after key");
        SkipWhitespace();
      }
      const Index child = static_cast<Index>(nodes_.size());
      nodes_.emplace_back();
      nodes_[child].key = key;
      SWAP_RETURN_IF_ERROR(ParseValue(child));
      if (count == 0) {
        nodes_[idx].first = child;
      } else {
        nodes_[prev].next = child;
      }
      prev = child;
      ++count;
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(object ? '}' : ']')) break;
      return object ? Error("expected ',' or '}' in object")
                    : Error("expected ',' or ']' in array");
    }
    nodes_[idx].count = count;
    --depth_;
    return Status::Ok();
  }

  // Parses a string in place. The fast path (no escapes) is a pure borrow
  // of the buffer between the quotes. When an escape is found, decoding
  // switches to a write cursor starting at the escape — every escape
  // sequence decodes to fewer bytes than its source, so the write cursor
  // never overtakes the read cursor and the decoded string is the prefix
  // [start, w).
  Status ParseString(std::string_view& out) {
    SWAP_CHECK(Consume('"'));
    char* const start = p_;
    // Borrow fast path: scan to the closing quote.
    p_ = FindStringSpecial(p_, end_);
    if (p_ >= end_) return Error("unterminated string");
    if (*p_ == '"') {
      out = std::string_view(start, static_cast<std::size_t>(p_ - start));
      ++p_;
      return Status::Ok();
    }
    if (static_cast<unsigned char>(*p_) < 0x20) {
      return Error("unescaped control character in string");
    }
    // Escape found: decode the rest in place.
    char* w = p_;
    while (p_ < end_) {
      const char c = *p_++;
      if (c == '"') {
        out = std::string_view(start, static_cast<std::size_t>(w - start));
        return Status::Ok();
      }
      if (c == '\\') {
        if (p_ >= end_) return Error("unterminated escape");
        const char esc = *p_++;
        switch (esc) {
          case '"': *w++ = '"'; break;
          case '\\': *w++ = '\\'; break;
          case '/': *w++ = '/'; break;
          case 'n': *w++ = '\n'; break;
          case 't': *w++ = '\t'; break;
          case 'r': *w++ = '\r'; break;
          case 'b': *w++ = '\b'; break;
          case 'f': *w++ = '\f'; break;
          case 'u': {
            unsigned code = 0;
            if (!ReadHex4(code)) return Error("invalid \\u escape");
            if (IsLowSurrogate(code)) {
              return Error("lone low surrogate in \\u escape");
            }
            if (IsHighSurrogate(code)) {
              if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u') {
                return Error("unpaired high surrogate in \\u escape");
              }
              p_ += 2;
              unsigned low = 0;
              if (!ReadHex4(low)) return Error("invalid \\u escape");
              if (!IsLowSurrogate(low)) {
                return Error("invalid low surrogate in \\u escape");
              }
              code = CombineSurrogates(code, low);
            }
            w = AppendUtf8(code, w);
            break;
          }
          default:
            return Error("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      } else {
        *w++ = c;
      }
    }
    return Error("unterminated string");
  }

  bool ReadHex4(unsigned& code) {
    if (end_ - p_ < 4) return false;
    code = 0;
    for (int i = 0; i < 4; ++i) {
      const int h = HexDigit(*p_++);
      if (h < 0) return false;
      code = (code << 4) | static_cast<unsigned>(h);
    }
    return true;
  }

  Status ParseNumber(Index idx) {
    char* const start = p_;
    while (p_ < end_ && IsNumberChar(*p_)) ++p_;
    if (p_ == start) return Error("expected a value");
    const NumberToken num = DecodeNumber(
        std::string_view(start, static_cast<std::size_t>(p_ - start)));
    if (!num.ok) return Error("invalid number");
    if (num.is_int) {
      nodes_[idx].kind = Kind::kInt;
      nodes_[idx].i = num.i;
      nodes_[idx].d = num.d;
    } else {
      nodes_[idx].kind = Kind::kDouble;
      nodes_[idx].d = num.d;
    }
    return Status::Ok();
  }

  std::vector<Node>& nodes_;
  char* const begin_;
  char* p_;
  char* const end_;
  int depth_ = 0;
};

Status Document::ParseInSitu(std::string& buffer) {
  return ParseInSitu(buffer.data(), buffer.size());
}

Status Document::ParseInSitu(char* data, std::size_t size) {
  Parser parser(nodes_, data, size);
  Status status = parser.Run();
  if (!status.ok()) nodes_.clear();
  return status;
}

// ---------------------------------------------------------------------------
// DOM bridge
// ---------------------------------------------------------------------------

namespace {

Value NodeToValue(Document::View v) {  // NOLINT(misc-no-recursion)
  if (v.is_array()) {
    Array arr;
    arr.reserve(v.size());
    for (Document::View c = v.FirstChild(); c; c = c.NextSibling()) {
      arr.push_back(NodeToValue(c));
    }
    return Value(std::move(arr));
  }
  if (v.is_object()) {
    // insert_or_assign in insertion order = last duplicate wins, matching
    // the DOM parser's behavior on duplicate keys.
    Object obj;
    for (Document::View c = v.FirstChild(); c; c = c.NextSibling()) {
      obj.insert_or_assign(std::string(c.key()), NodeToValue(c));
    }
    return Value(std::move(obj));
  }
  if (v.is_string()) return Value(std::string(v.AsString()));
  if (v.is_number()) return Value(v.AsDouble());
  if (v.is_bool()) return Value(v.AsBool());
  return Value(nullptr);
}

}  // namespace

Value Document::ToValue() const {
  SWAP_CHECK_MSG(!empty(), "json: ToValue on empty Document");
  return NodeToValue(root());
}

}  // namespace swapserve::json
