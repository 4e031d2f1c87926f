// ParamMap: the typed string→value parameter bag underlying PlanSpec.
//
// Values are stored as canonical strings (the plan text format is the
// source of truth); typed getters parse on access and report malformed
// values as InvalidArgument. Reading is const and leaves the map as it
// is, so threads may read one map concurrently. Which keys a plan may
// name is declared by its components (plan/params.h), not recorded
// here.

#ifndef PDD_PLAN_PARAM_MAP_H_
#define PDD_PLAN_PARAM_MAP_H_

#include <map>
#include <string>
#include <string_view>

#include "util/status.h"

namespace pdd {

/// Keys are restricted to [A-Za-z0-9_.-]+ so the `key = value` text
/// form always round-trips (no whitespace, '=' or '#' ambiguity).
bool IsValidParamKey(std::string_view key);

class ParamMap {
 public:
  // --- setters (canonical string formatting) ------------------------

  /// Sets `key` to a verbatim string value (overwrites). `key` must
  /// satisfy IsValidParamKey (asserted in debug builds; an invalid key
  /// would break the ToText/Parse round trip).
  void Set(std::string key, std::string value);
  /// Sets `key` to FormatDouble(value) ("0.8", "1", "0.0125").
  void SetDouble(std::string key, double value);
  /// Sets `key` to the decimal form of `value`.
  void SetSize(std::string key, size_t value);
  /// Sets `key` to "true" / "false".
  void SetBool(std::string key, bool value);

  /// Removes `key`; returns whether it was present.
  bool Erase(std::string_view key);

  // --- defaulted getters --------------------------------------------

  bool Has(std::string_view key) const;

  /// The value of `key`, or `default_value` when absent.
  std::string GetString(std::string_view key,
                        std::string default_value) const;
  /// Parses `key` as a double; absent keys yield `default_value`,
  /// malformed values InvalidArgument.
  Result<double> GetDouble(std::string_view key, double default_value) const;
  /// Parses `key` as a non-negative integer.
  Result<size_t> GetSize(std::string_view key, size_t default_value) const;
  /// Parses `key` as a boolean ("true"/"false"/"1"/"0"/"yes"/"no").
  Result<bool> GetBool(std::string_view key, bool default_value) const;

  // --- inspection ---------------------------------------------------

  /// All entries in canonical (lexicographic) key order.
  const std::map<std::string, std::string, std::less<>>& entries() const {
    return entries_;
  }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  bool operator==(const ParamMap& other) const {
    return entries_ == other.entries_;
  }
  bool operator!=(const ParamMap& other) const { return !(*this == other); }

 private:
  /// The value of `key`; nullptr when absent.
  const std::string* Find(std::string_view key) const;

  std::map<std::string, std::string, std::less<>> entries_;
};

}  // namespace pdd

#endif  // PDD_PLAN_PARAM_MAP_H_
