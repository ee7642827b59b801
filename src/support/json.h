// Minimal JSON value type, parser, and writer.
//
// CLPP persists corpora as JSONL (one record per line) and experiment
// manifests as small JSON documents; this module is intentionally small and
// supports exactly the JSON subset those need (objects, arrays, strings,
// doubles, integers stored losslessly up to 2^53, booleans, null).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.h"

namespace clpp {

/// Immutable-ish JSON value (mutation through accessors is allowed before
/// serialization; the type is a plain value type).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), num_(d) {}
  Json(int i) : type_(Type::kNumber), num_(i) {}
  Json(std::int64_t i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(std::size_t i) : type_(Type::kNumber), num_(static_cast<double>(i)) {}
  Json(const char* s) : type_(Type::kString), str_(s) {}
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}

  /// Creates an empty array / object.
  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  /// Typed accessors; throw ParseError when the type does not match.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// Array access.
  std::size_t size() const;
  const Json& at(std::size_t i) const;
  void push_back(Json v);

  /// Object access. `at` throws on a missing key; `get` returns a fallback.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  Json& operator[](const std::string& key);
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  std::string get_string(const std::string& key, std::string fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<Json>& items() const;
  const std::map<std::string, Json>& fields() const;

  /// Serializes to compact single-line JSON.
  std::string dump() const;

  /// Parses a complete JSON document; throws ParseError on malformed input.
  static Json parse(std::string_view text);

 private:
  /// Appends the compact serialization to `out`.
  void dump_to(std::string& out) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Json> arr_;
  std::map<std::string, Json> obj_;
};

}  // namespace clpp
