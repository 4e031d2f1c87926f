#include "util/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace pdd {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

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

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view Prefix(std::string_view s, size_t n) {
  return s.substr(0, std::min(n, s.size()));
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

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  std::string out(buf);
  if (out.find('.') != std::string::npos) {
    size_t last = out.find_last_not_of('0');
    if (out[last] == '.') --last;
    out.erase(last + 1);
  }
  return out;
}

std::string HexU64(uint64_t v) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  // std::from_chars for double is not available everywhere; strtod on a
  // NUL-terminated copy is portable and sufficient here.
  std::string buf(s);
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool ParseSize(std::string_view s, size_t* out) {
  double v = 0.0;
  // Every check precedes the cast: converting NaN, an infinity or a
  // value outside [0, 2^digits) to an integer is undefined behaviour.
  // !(v >= 0) also rejects NaN.
  static const double kLimit =
      std::ldexp(1.0, std::numeric_limits<size_t>::digits);
  if (!ParseDouble(s, &v) || !(v >= 0.0) || v >= kLimit ||
      v != std::floor(v)) {
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

std::vector<std::string> QGrams(std::string_view s, size_t q, char pad) {
  std::vector<std::string> grams;
  if (q == 0) return grams;
  std::string padded;
  if (pad != '\0') {
    padded.assign(q - 1, pad);
    padded += s;
    padded.append(q - 1, pad);
  } else {
    padded.assign(s);
  }
  if (padded.size() < q) return grams;
  grams.reserve(padded.size() - q + 1);
  for (size_t i = 0; i + q <= padded.size(); ++i) {
    grams.push_back(padded.substr(i, q));
  }
  return grams;
}

}  // namespace pdd
