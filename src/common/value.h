#ifndef AUTOCAT_COMMON_VALUE_H_
#define AUTOCAT_COMMON_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <variant>

#include "common/result.h"

namespace autocat {

/// The dynamic type of a `Value`.
enum class ValueType {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

/// Returns "null", "int64", "double", or "string".
std::string_view ValueTypeToString(ValueType type);

/// A dynamically typed scalar cell: SQL NULL, 64-bit integer, double, or
/// string.
///
/// `Value` is the single currency for table cells, literals in parsed SQL,
/// category-label endpoints, and count-table keys. Numeric values of both
/// integer and double type compare with each other numerically; strings
/// compare lexicographically; NULL compares equal only to NULL and orders
/// before every non-NULL value (so sorted containers have a stable, total
/// order).
class Value {
 public:
  /// Constructs a NULL value.
  Value() : data_(std::monostate{}) {}

  /// Typed constructors. The `int`/`bool` overloads exist so that literal
  /// arguments pick the integer representation rather than ambiguity.
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(int v) : data_(static_cast<int64_t>(v)) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(std::string_view v) : data_(std::string(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) = default;
  Value& operator=(Value&&) = default;

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_int64() const { return type() == ValueType::kInt64; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }

  /// True for int64 or double values.
  bool is_numeric() const { return is_int64() || is_double(); }
  /// True for a double NaN. The predicate evaluators treat a NaN cell as
  /// they treat a NULL one: it satisfies no comparison, range or set.
  bool is_nan() const;

  /// Accessors. Each aborts (via std::get) if the type does not match.
  int64_t int64_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const {
    return std::get<std::string>(data_);
  }

  /// Returns the numeric content widened to double. Aborts on non-numeric.
  double AsDouble() const;

  /// Equality: same comparison class (numeric vs string vs null) and equal
  /// content; int64(3) == double(3.0).
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Three-way comparison: negative / zero / positive. Total order:
  /// NULL < numerics (by numeric value) < strings (lexicographic).
  int Compare(const Value& other) const;

  /// Renders the value for display: NULL -> "NULL", strings unquoted,
  /// doubles with minimal digits.
  std::string ToString() const;

  /// Renders the value as an SQL literal: strings quoted with '' escaping.
  std::string ToSqlLiteral() const;

  /// Hash consistent with operator== (int64(3) and double(3.0) collide).
  size_t Hash() const;

  /// Parses a typed value from text: "NULL" (case-insensitive) -> null,
  /// integer-looking text -> int64, numeric text -> double, anything else
  /// is an error (strings must be constructed explicitly, not parsed).
  static Result<Value> ParseNumeric(std::string_view text);

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

/// Hash functor for unordered containers keyed by Value.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace autocat

#endif  // AUTOCAT_COMMON_VALUE_H_
