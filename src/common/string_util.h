#ifndef AUTOCAT_COMMON_STRING_UTIL_H_
#define AUTOCAT_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace autocat {

/// Returns `text` with ASCII whitespace removed from both ends.
std::string_view TrimWhitespace(std::string_view text);

/// ASCII-lowercases `text`.
std::string ToLower(std::string_view text);

/// True if `text` holds an uppercase ASCII letter (ToLower would change
/// it).
bool HasAsciiUpper(std::string_view text);

/// Case-insensitive lookup of `name` in a map keyed by lowercase names
/// with heterogeneous (string_view) lookup: lowercases a copy only when
/// `name` has an uppercase ASCII letter.
template <typename Map>
typename Map::const_iterator FindLowercase(const Map& map,
                                           std::string_view name) {
  return HasAsciiUpper(name) ? map.find(ToLower(name)) : map.find(name);
}

/// ASCII-uppercases `text`.
std::string ToUpper(std::string_view text);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Splits on `sep`; empty fields are preserved ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Renders a (typically monetary) number compactly the way the paper's
/// figures do: 200000 -> "200K", 1500000 -> "1.5M", 1234 -> "1234".
std::string HumanizeNumber(double v);

/// Strict numeric parsing for flag and spec values: the whole trimmed
/// string must be consumed and non-empty, otherwise kInvalidArgument.
/// (strtoull-style partial parses that silently yield 0 are exactly what
/// these exist to reject.)
Result<uint64_t> ParseUint64(std::string_view text);
Result<int64_t> ParseInt64(std::string_view text);
Result<double> ParseDouble(std::string_view text);

}  // namespace autocat

#endif  // AUTOCAT_COMMON_STRING_UTIL_H_
