#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iomanip>

namespace qagview {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

namespace {

// A plain decimal: an optional '-', then 1 to 15 digits with at most one '.'
// among them. Its digits' value and 10^scale are exact doubles, so strtoll
// and strtod read it as exactly `digits` / 10^`scale` with its sign: one
// division rounds as strtod does, and "-0" is -0.0 as a double.
struct PlainDecimal {
  int64_t digits = 0;
  int scale = 0;
  bool negative = false;
};

bool ReadPlainDecimal(std::string_view s, bool point_ok, PlainDecimal* out) {
  size_t i = !s.empty() && s[0] == '-' ? 1 : 0;
  out->negative = i == 1;
  int count = 0;
  int point = -1;
  for (; i < s.size(); ++i) {
    const unsigned d = static_cast<unsigned char>(s[i]) - '0';
    if (point_ok && s[i] == '.' && point < 0) {
      point = count;
    } else if (d > 9 || ++count > 15) {
      return false;
    } else {
      out->digits = out->digits * 10 + d;
    }
  }
  out->scale = point < 0 ? 0 : count - point;
  return count > 0;
}

}  // namespace

Result<int64_t> ParseInt64(std::string_view s) {
  PlainDecimal plain;
  if (ReadPlainDecimal(s, false, &plain)) {
    return plain.negative ? -plain.digits : plain.digits;
  }
  std::string buf(StripWhitespace(s));
  if (buf.empty()) return Status::ParseError("empty integer literal");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::ParseError("integer out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid integer literal: " + buf);
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(std::string_view s) {
  static constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                      1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                      1e12, 1e13, 1e14, 1e15};
  PlainDecimal plain;
  if (ReadPlainDecimal(s, true, &plain)) {
    const double v = static_cast<double>(plain.digits) / kPow10[plain.scale];
    return plain.negative ? -v : v;
  }
  std::string buf(StripWhitespace(s));
  if (buf.empty()) return Status::ParseError("empty numeric literal");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::ParseError("number out of range: " + buf);
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::ParseError("invalid numeric literal: " + buf);
  }
  return v;
}

std::string FormatDouble(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

}  // namespace qagview
