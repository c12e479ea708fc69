#include "tunespace/util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "tunespace/tuner/api.hpp"

namespace tunespace::util::json {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw ServiceError(ErrorCode::kProtocol, "json: " + message);
}

const std::string kEmptyString;
const Array kEmptyArray;
const Object kEmptyObject;
const Value kNullValue;

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);  // UTF-8 bytes pass through untouched
        }
    }
  }
  out += '"';
}

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  /// `depth` counts the arrays and objects enclosing this value.
  Value parse_value(std::size_t depth) {
    skip_ws();
    const char c = peek();
    if ((c == '{' || c == '[') && depth >= Value::kMaxDepth) {
      fail("nesting deeper than " + std::to_string(Value::kMaxDepth) + " levels");
    }
    switch (c) {
      case '{': return parse_object(depth + 1);
      case '[': return parse_array(depth + 1);
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object(std::size_t depth) {
    expect('{');
    Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value(std::move(members));
    }
  }

  Value parse_array(std::size_t depth) {
    expect('[');
    Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(items));
    }
    while (true) {
      items.push_back(parse_value(depth));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (!consume_literal("\\u")) fail("unpaired surrogate");
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return cp;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("bad number");
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Value(value);
      }
      std::uint64_t big = 0;
      const auto [uptr, uec] =
          std::from_chars(token.data(), token.data() + token.size(), big);
      if (uec == std::errc() && uptr == token.data() + token.size()) {
        return Value(big);
      }
      // Out of int64 and uint64 range: fall through to double.
    }
    double value = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) fail("bad number");
    return Value(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value::Value(std::uint64_t v) : kind_(Kind::Int), int_(static_cast<std::int64_t>(v)) {
  if (int_ < 0) kind_ = Kind::UInt;  // v is above INT64_MAX
}

bool Value::as_bool(bool fallback) const {
  return kind_ == Kind::Bool ? bool_ : fallback;
}

double Value::as_double(double fallback) const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ == Kind::UInt) return static_cast<double>(static_cast<std::uint64_t>(int_));
  if (kind_ == Kind::Double) return double_;
  return fallback;
}

// Doubles convert only inside the target's range (NaN fails both bounds):
// casting anything else is undefined behaviour.
std::int64_t Value::as_int(std::int64_t fallback) const {
  if (kind_ == Kind::Int) return int_;
  if (kind_ == Kind::Double && double_ >= -0x1p63 && double_ < 0x1p63) {
    return static_cast<std::int64_t>(double_);
  }
  return fallback;
}

std::uint64_t Value::as_uint(std::uint64_t fallback) const {
  if (kind_ == Kind::Int) {
    return int_ < 0 ? fallback : static_cast<std::uint64_t>(int_);
  }
  if (kind_ == Kind::UInt) return static_cast<std::uint64_t>(int_);
  if (kind_ == Kind::Double && double_ >= 0 && double_ < 0x1p64) {
    return static_cast<std::uint64_t>(double_);
  }
  return fallback;
}

const std::string& Value::as_string() const {
  return kind_ == Kind::String ? string_ : kEmptyString;
}

const Array& Value::items() const {
  return kind_ == Kind::Array ? array_ : kEmptyArray;
}

const Object& Value::members() const {
  return kind_ == Kind::Object ? object_ : kEmptyObject;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* value = find(key);
  return value != nullptr ? *value : kNullValue;
}

Value& Value::set(std::string key, Value value) {
  if (kind_ == Kind::Null) *this = Value(Object{});
  if (kind_ != Kind::Object) fail("set() on a non-object");
  for (auto& [name, existing] : object_) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Value& Value::push(Value value) {
  if (kind_ == Kind::Null) *this = Value(Array{});
  if (kind_ != Kind::Array) fail("push() on a non-array");
  array_.push_back(std::move(value));
  return *this;
}

std::string Value::dump() const {
  std::string out;
  switch (kind_) {
    case Kind::Null: out = "null"; break;
    case Kind::Bool: out = bool_ ? "true" : "false"; break;
    case Kind::Int: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(int_));
      out = buf;
      break;
    }
    case Kind::UInt: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(static_cast<std::uint64_t>(int_)));
      out = buf;
      break;
    }
    case Kind::Double: {
      if (!std::isfinite(double_)) {
        out = "null";  // JSON has no Inf/NaN; null is the conventional stand-in
        break;
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", double_);
      out = buf;
      break;
    }
    case Kind::String: append_escaped(out, string_); break;
    case Kind::Array: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        out += array_[i].dump();
      }
      out += ']';
      break;
    }
    case Kind::Object: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        append_escaped(out, object_[i].first);
        out += ':';
        out += object_[i].second.dump();
      }
      out += '}';
      break;
    }
  }
  return out;
}

Value Value::parse(std::string_view text) { return Parser(text).document(); }

}  // namespace tunespace::util::json
