// JSON value model (DOM), parser, and serializer.
//
// Used for SwapServeLLM configuration files (§3.2) and OpenAI-compatible
// request/response payloads (§4.1). Implements RFC 8259 including \u
// surrogate pairs beyond the BMP (lone/inverted surrogates are rejected);
// numbers are stored as double with an integer fast path preserved on
// output, and the number grammar is strict (leading zeros, bare dots, and
// overflow-to-infinity are parse errors).
//
// This is the correctness-first, allocation-per-node DOM: it reads config
// files and is the reference the test battery compares the request parser
// against. The request hot path uses the zero-copy in-situ Document
// (document.h), which shares this dialect exactly.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace swapserve::json {

class Value;
using Array = std::vector<Value>;
// std::map keeps object keys ordered, making serialization deterministic.
using Object = std::map<std::string, Value>;

enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}            // NOLINT
  Value(bool b) : type_(Type::kBool), bool_(b) {}          // NOLINT
  Value(double d) : type_(Type::kNumber), number_(d) {}    // NOLINT
  Value(int i) : Value(static_cast<double>(i)) {}          // NOLINT
  Value(std::int64_t i) : Value(static_cast<double>(i)) {} // NOLINT
  Value(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Value(Array a);   // NOLINT
  Value(Object o);  // NOLINT

  static Value MakeArray() { return Value(Array{}); }
  static Value MakeObject() { return Value(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; SWAP_CHECK on type mismatch. AsInt saturates numbers
  // beyond the int64 range to its limits.
  bool AsBool() const;
  double AsDouble() const;
  std::int64_t AsInt() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  // Object helpers. Get returns nullptr when the key is absent.
  const Value* Find(std::string_view key) const;
  Value& operator[](const std::string& key);  // object insert-or-ref

  // Typed lookups with defaults (missing key or null -> fallback).
  bool GetBool(std::string_view key, bool fallback) const;
  double GetDouble(std::string_view key, double fallback) const;
  std::int64_t GetInt(std::string_view key, std::int64_t fallback) const;
  std::string GetString(std::string_view key, std::string fallback) const;

  // Array helper.
  void PushBack(Value v);

  bool operator==(const Value& other) const;

  // Compact serialization; Pretty adds 2-space indentation.
  std::string Dump() const;
  std::string Pretty() const;

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // unique_ptr keeps Value small and allows the recursive type.
  std::unique_ptr<Array> array_;
  std::unique_ptr<Object> object_;

 public:
  Value(const Value& other);
  Value& operator=(const Value& other);
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;
  ~Value() = default;
};

// Parse a complete JSON document. Trailing non-whitespace is an error.
Result<Value> Parse(std::string_view text);

}  // namespace swapserve::json
