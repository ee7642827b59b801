#include "support/json.h"

#include <cmath>
#include <cstdio>

namespace clpp {

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) throw ParseError("JSON: not a bool");
  return bool_;
}

double Json::as_double() const {
  if (type_ != Type::kNumber) throw ParseError("JSON: not a number");
  return num_;
}

std::int64_t Json::as_int() const {
  if (type_ != Type::kNumber) throw ParseError("JSON: not a number");
  return static_cast<std::int64_t>(std::llround(num_));
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) throw ParseError("JSON: not a string");
  return str_;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  throw ParseError("JSON: size() on scalar");
}

const Json& Json::at(std::size_t i) const {
  if (type_ != Type::kArray) throw ParseError("JSON: not an array");
  if (i >= arr_.size()) throw ParseError("JSON: array index out of range");
  return arr_[i];
}

void Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) throw ParseError("JSON: push_back on non-array");
  arr_.push_back(std::move(v));
}

const Json& Json::at(const std::string& key) const {
  if (type_ != Type::kObject) throw ParseError("JSON: not an object");
  auto it = obj_.find(key);
  if (it == obj_.end()) throw ParseError("JSON: missing key '" + key + "'");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::kObject && obj_.count(key) > 0;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) throw ParseError("JSON: operator[] on non-object");
  return obj_[key];
}

std::int64_t Json::get_int(const std::string& key, std::int64_t fallback) const {
  return contains(key) ? at(key).as_int() : fallback;
}

std::string Json::get_string(const std::string& key, std::string fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) throw ParseError("JSON: not an array");
  return arr_;
}

const std::map<std::string, Json>& Json::fields() const {
  if (type_ != Type::kObject) throw ParseError("JSON: not an object");
  return obj_;
}

namespace {

/// Appends `s` to `out` as a quoted JSON string.
void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: {
      // Integral values below 9e15 print as integers; anything else with
      // 17 significant digits, enough to round-trip a double.
      char buf[32];
      const int n = num_ == std::floor(num_) && std::abs(num_) < 9.0e15
                        ? std::snprintf(buf, sizeof buf, "%lld",
                                        static_cast<long long>(num_))
                        : std::snprintf(buf, sizeof buf, "%.17g", num_);
      out.append(buf, static_cast<std::size_t>(n));
      break;
    }
    case Type::kString: append_escaped(out, str_); break;
    case Type::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out.push_back(',');
        arr_[i].dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        append_escaped(out, k);
        out.push_back(':');
        v.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

namespace {

/// Recursive-descent JSON parser over a string_view cursor.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("JSON parse error at offset " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json{parse_string()};
    if (consume_literal("true")) return Json{true};
    if (consume_literal("false")) return Json{false};
    if (consume_literal("null")) return Json{};
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad hex digit in \\u escape");
          }
          // Corpus data is ASCII; encode BMP code points as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool any = false;
    auto digits = [&] {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        any = true;
      }
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
      digits();
    }
    if (!any) fail("invalid number");
    return Json{std::stod(std::string(text_.substr(start, pos_ - start)))};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return JsonParser{text}.parse_document(); }

}  // namespace clpp
