// JSON formatting for the telemetry exporters: string quoting and
// round-trippable number text. The obs layer only writes JSON;
// sidecars are read back in Python (tools/telemetry_check.py,
// tools/bench_compare.py).

#ifndef PDD_OBS_JSON_H_
#define PDD_OBS_JSON_H_

#include <string>
#include <string_view>

namespace pdd {

/// Double-quoted JSON string literal of `s` (escapes quotes,
/// backslashes and control characters).
std::string JsonQuote(std::string_view s);

/// Shortest decimal form of `value` that parses back bit-identically
/// (%.17g fallback); "null" for non-finite values, which JSON cannot
/// represent.
std::string JsonNumber(double value);

}  // namespace pdd

#endif  // PDD_OBS_JSON_H_
