// Small string helpers shared across the library.

#ifndef PDD_UTIL_STRING_UTIL_H_
#define PDD_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pdd {

/// ASCII lower-casing (locale independent).
std::string ToLower(std::string_view s);

/// ASCII upper-casing (locale independent).
std::string ToUpper(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Splits on a single character; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty tokens are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True iff `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// The first `n` characters of `s` (all of `s` if shorter).
std::string_view Prefix(std::string_view s, size_t n);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Formats a double with `digits` significant decimals, trimming zeros
/// ("0.59", "1", "0.8383").
std::string FormatDouble(double v, int digits = 6);

/// Parses a double; returns false on malformed input.
bool ParseDouble(std::string_view s, double* out);

/// Parses a non-negative integer count written in any ParseDouble form
/// ("42", "1e3"). Returns false on malformed input and on NaN, ±inf,
/// negatives, fractions and values >= 2^64, so no out-of-range
/// float-to-integer conversion ever happens.
bool ParseSize(std::string_view s, size_t* out);

/// Fixed-width (16 digit) lower-case hex form of a 64-bit value —
/// the rendering plan fingerprints and cache snapshots share.
std::string HexU64(uint64_t v);

/// Writes HexU64(v)'s 16 digits at `out`; returns the end of them.
char* WriteHexU64(uint64_t v, char* out);

/// The multiset of character q-grams of `s`, padded with `pad` (use '\0' to
/// disable padding). q must be >= 1.
std::vector<std::string> QGrams(std::string_view s, size_t q, char pad = '#');

}  // namespace pdd

#endif  // PDD_UTIL_STRING_UTIL_H_
