#pragma once
// Minimal JSON document model for the tuning-service wire protocol.
//
// The repo deliberately carries no third-party dependencies, and the
// protocol needs only a small, predictable subset: null, bool, numbers,
// strings, arrays and objects.  Objects preserve insertion order (a
// vector of members, not a map), so encoded frames are deterministic and
// diffable in tests and logs.  Integers are kept exact: a number lexed
// without '.' or 'e' stays an integer — Int for int64, UInt for the
// integers above INT64_MAX up to UINT64_MAX — and round-trips digit for
// digit, which is what lets csp::Value configurations and uint64 seeds and
// ids cross the wire without perturbation.
//
// parse() throws tunespace::ServiceError(kProtocol) on malformed input and
// on documents nested deeper than kMaxDepth — the same taxonomy the rest of
// the service stack uses.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tunespace::util::json {

class Value;
using Array = std::vector<Value>;
/// Object members in insertion order; keys are expected unique (set()
/// replaces, find() returns the first match).
using Object = std::vector<std::pair<std::string, Value>>;

/// A JSON document node.
class Value {
 public:
  /// UInt holds only integers above INT64_MAX; every other integer is Int.
  enum class Kind : std::uint8_t { Null, Bool, Int, UInt, Double, String, Array, Object };

  /// Deepest array/object nesting parse() accepts; the parser recurses once
  /// per level, so the cap bounds its stack use.
  static constexpr std::size_t kMaxDepth = 256;

  Value() : kind_(Kind::Null) {}
  Value(std::nullptr_t) : kind_(Kind::Null) {}                        // NOLINT implicit
  Value(bool v) : kind_(Kind::Bool), bool_(v) {}                     // NOLINT implicit
  Value(int v) : kind_(Kind::Int), int_(v) {}                        // NOLINT implicit
  Value(std::int64_t v) : kind_(Kind::Int), int_(v) {}               // NOLINT implicit
  Value(std::uint64_t v);  // Int up to INT64_MAX, UInt above   NOLINT implicit
  Value(double v) : kind_(Kind::Double), double_(v) {}               // NOLINT implicit
  Value(const char* v) : kind_(Kind::String), string_(v) {}          // NOLINT implicit
  Value(std::string v) : kind_(Kind::String), string_(std::move(v)) {}  // NOLINT
  Value(Array v) : kind_(Kind::Array), array_(std::move(v)) {}       // NOLINT implicit
  Value(Object v) : kind_(Kind::Object), object_(std::move(v)) {}    // NOLINT implicit

  static Value object() { return Value(Object{}); }
  static Value array() { return Value(Array{}); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_int() const { return kind_ == Kind::Int || kind_ == Kind::UInt; }
  bool is_number() const { return is_int() || kind_ == Kind::Double; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  /// Lenient readers: wrong-kind nodes, and numbers the result type cannot
  /// represent, yield the fallback, so decoders can treat absent and
  /// mistyped fields uniformly.
  bool as_bool(bool fallback = false) const;
  double as_double(double fallback = 0) const;
  std::int64_t as_int(std::int64_t fallback = 0) const;
  std::uint64_t as_uint(std::uint64_t fallback = 0) const;
  const std::string& as_string() const;  ///< empty string for non-strings

  const Array& items() const;      ///< empty for non-arrays
  const Object& members() const;   ///< empty for non-objects

  /// First member with `key`, or nullptr (also for non-objects).
  const Value* find(std::string_view key) const;
  /// Member lookup that tolerates absence: missing keys read as null.
  const Value& at(std::string_view key) const;

  /// Append or replace a member (converts a null node into an object).
  Value& set(std::string key, Value value);
  /// Append an array element (converts a null node into an array).
  Value& push(Value value);

  /// Compact serialization (no whitespace), deterministic member order.
  std::string dump() const;

  /// Parse a complete document; trailing non-whitespace is an error.
  /// Throws tunespace::ServiceError(ErrorCode::kProtocol).
  static Value parse(std::string_view text);

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;  ///< Int value; UInt keeps its uint64 bits here
  double double_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace tunespace::util::json
