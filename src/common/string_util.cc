#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace autocat {

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool HasAsciiUpper(std::string_view text) {
  for (const char c : text) {
    if (c >= 'A' && c <= 'Z') {
      return true;
    }
  }
  return false;
}

std::string ToUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out.append(sep);
    }
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

namespace {

std::string FormatScaled(double v, double divisor, const char* suffix) {
  const double scaled = v / divisor;
  char buf[64];
  if (scaled == std::floor(scaled)) {
    std::snprintf(buf, sizeof(buf), "%.0f%s", scaled, suffix);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f%s", scaled, suffix);
  }
  return buf;
}

}  // namespace

std::string HumanizeNumber(double v) {
  const double mag = std::fabs(v);
  if (mag >= 1e6 && std::fmod(v, 100000.0) == 0.0) {
    return FormatScaled(v, 1e6, "M");
  }
  if (mag >= 1e3 && std::fmod(v, 1000.0) == 0.0) {
    return FormatScaled(v, 1e3, "K");
  }
  char buf[64];
  if (v == std::floor(v) && mag < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  return buf;
}

namespace {

// Shared strict-parse shell: trims, rejects empty input, runs `parse`
// (an errno-reporting strtoX wrapper), and requires full consumption.
template <typename T, typename Parse>
Result<T> StrictParse(std::string_view text, const char* what,
                      const Parse& parse) {
  const std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty()) {
    return Status::InvalidArgument(std::string("empty ") + what +
                                   " value");
  }
  const std::string owned(trimmed);  // strtoX needs NUL termination
  errno = 0;
  char* end = nullptr;
  const T value = parse(owned.c_str(), &end);
  if (errno == ERANGE) {
    return Status::InvalidArgument(std::string(what) +
                                   " value out of range: '" + owned + "'");
  }
  if (end != owned.c_str() + owned.size()) {
    return Status::InvalidArgument(std::string("malformed ") + what +
                                   " value: '" + owned + "'");
  }
  return value;
}

}  // namespace

Result<uint64_t> ParseUint64(std::string_view text) {
  // strtoull accepts a leading '-' (wrapping the value); reject it first.
  if (!TrimWhitespace(text).empty() && TrimWhitespace(text)[0] == '-') {
    return Status::InvalidArgument("negative unsigned value: '" +
                                   std::string(TrimWhitespace(text)) + "'");
  }
  return StrictParse<uint64_t>(
      text, "unsigned integer", [](const char* s, char** end) {
        return static_cast<uint64_t>(std::strtoull(s, end, 10));
      });
}

Result<int64_t> ParseInt64(std::string_view text) {
  return StrictParse<int64_t>(
      text, "integer", [](const char* s, char** end) {
        return static_cast<int64_t>(std::strtoll(s, end, 10));
      });
}

Result<double> ParseDouble(std::string_view text) {
  return StrictParse<double>(text, "numeric",
                             [](const char* s, char** end) {
                               return std::strtod(s, end);
                             });
}

}  // namespace autocat
