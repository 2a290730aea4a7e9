#ifndef QAGVIEW_COMMON_STRING_UTIL_H_
#define QAGVIEW_COMMON_STRING_UTIL_H_

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace qagview {

/// Joins the string forms of the elements with `sep`.
template <typename Container>
std::string Join(const Container& parts, std::string_view sep) {
  std::ostringstream out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out << sep;
    out << p;
    first = false;
  }
  return out.str();
}

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view s);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool StartsWith(std::string_view s, std::string_view prefix);

/// Strict integer / double parsing (whole string must be consumed, surrounding
/// whitespace ignored, out-of-range values rejected): strtoll base 10 and
/// strtod. A plain decimal ('-'?, up to 15 digits, one '.' for a double)
/// skips both by an exact parse with the same result.
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// Concatenates the string forms of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream out;
  (out << ... << args);
  return out.str();
}

/// Formats a double with the given number of decimal places.
std::string FormatDouble(double value, int precision);

}  // namespace qagview

#endif  // QAGVIEW_COMMON_STRING_UTIL_H_
