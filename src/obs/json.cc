#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pdd {

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  // Shortest precision that round-trips this exact double: identity
  // gauges (if any) must export bit-stably, and %.17g everywhere would
  // bloat the common short values (0.5, 100).
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace pdd
