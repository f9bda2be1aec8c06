#include "common/value.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace autocat {

std::string_view ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

bool Value::is_nan() const { return is_double() && std::isnan(double_value()); }

double Value::AsDouble() const {
  if (is_int64()) {
    return static_cast<double>(int64_value());
  }
  AUTOCAT_CHECK(is_double());
  return double_value();
}

namespace {

// Comparison class: null < numeric < string.
int ComparisonClass(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}

}  // namespace

int Value::Compare(const Value& other) const {
  const int lhs_class = ComparisonClass(*this);
  const int rhs_class = ComparisonClass(other);
  if (lhs_class != rhs_class) {
    return lhs_class < rhs_class ? -1 : 1;
  }
  switch (lhs_class) {
    case 0:  // both null
      return 0;
    case 1: {  // both numeric
      if (is_int64() && other.is_int64()) {
        const int64_t a = int64_value();
        const int64_t b = other.int64_value();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      const double a = AsDouble();
      const double b = other.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: {  // both string
      const int cmp = string_value().compare(other.string_value());
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(int64_value());
    case ValueType::kDouble: {
      const double d = double_value();
      // Render integral doubles without a trailing ".000000".
      if (std::isfinite(d) && d == std::floor(d) &&
          std::fabs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        return buf;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", d);
      return buf;
    }
    case ValueType::kString:
      return string_value();
  }
  return "";
}

std::string Value::ToSqlLiteral() const {
  if (!is_string()) {
    return ToString();
  }
  std::string out = "'";
  for (char c : string_value()) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt64:
      // Hash via double so that int64(3) and double(3.0) collide, matching
      // operator==.
      return std::hash<double>()(static_cast<double>(int64_value()));
    case ValueType::kDouble:
      return std::hash<double>()(double_value());
    case ValueType::kString:
      return std::hash<std::string>()(string_value());
  }
  return 0;
}

Result<Value> Value::ParseNumeric(std::string_view text) {
  // Trim surrounding whitespace.
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  const std::string_view body = text.substr(begin, end - begin);
  if (body.empty()) {
    return Status::ParseError("empty numeric literal");
  }
  if (body.size() == 4 &&
      (body[0] == 'N' || body[0] == 'n') &&
      (body[1] == 'U' || body[1] == 'u') &&
      (body[2] == 'L' || body[2] == 'l') &&
      (body[3] == 'L' || body[3] == 'l')) {
    return Value();
  }

  int64_t int_result = 0;
  auto [int_ptr, int_ec] =
      std::from_chars(body.data(), body.data() + body.size(), int_result);
  if (int_ec == std::errc() && int_ptr == body.data() + body.size()) {
    return Value(int_result);
  }

  double dbl_result = 0;
  auto [dbl_ptr, dbl_ec] =
      std::from_chars(body.data(), body.data() + body.size(), dbl_result);
  if (dbl_ec == std::errc() && dbl_ptr == body.data() + body.size()) {
    return Value(dbl_result);
  }
  return Status::ParseError("not a numeric literal: '" + std::string(body) +
                            "'");
}

}  // namespace autocat
