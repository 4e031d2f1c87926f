// PlanSpec: the declarative, text-representable description of one
// detection plan — the string-keyed counterpart of DetectorConfig.
//
// A spec is a flat bag of dotted `key = value` assignments:
//
//   key = name:3,job:2
//   reduction = snm_certain_keys
//   reduction.window = 4
//   reduction.conflict = most_probable
//   combination = weighted_sum
//   combination.weights = 0.8,0.2
//   derivation = expected_similarity
//   classify.t_lambda = 0.4
//   classify.t_mu = 0.7
//
// The canonical text form (ToText) prints the entries in lexicographic
// key order with one escaping rule (backslash and newline), so
// Parse(ToText(spec)) == spec bit-identically and line order in a plan
// file never matters. Fingerprint() hashes the canonical form into a
// stable 64-bit identity; it is invariant to field ordering and is the
// key the decision cache and the serving index build on.
//
// Component names ("snm_certain_keys", "weighted_sum", ...) are
// resolved against the ComponentRegistry when a spec is translated to a
// DetectorConfig (DetectorConfig::FromSpec) or compiled directly
// (DetectionPlan::Compile(spec, schema)).

#ifndef PDD_PLAN_PLAN_SPEC_H_
#define PDD_PLAN_PLAN_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "plan/param_map.h"
#include "util/status.h"

namespace pdd {

class PlanSpec {
 public:
  /// Parses the `key = value` text form. Blank lines and `#` comments
  /// are skipped; duplicate keys are a ParseError (use SetAssignment
  /// for last-wins overrides).
  static Result<PlanSpec> Parse(std::string_view text);

  /// Applies one "key=value" assignment (the CLI `--set` form),
  /// overwriting any existing value. Unescapes the value.
  Status SetAssignment(std::string_view assignment);

  /// Canonical text: entries in lexicographic key order, one
  /// `key = value` per line, values escaped (`\\` and `\n`).
  std::string ToText() const;

  /// Stable 64-bit identity: FNV-1a over the canonical text. Invariant
  /// to entry order; any value change yields a different fingerprint
  /// (modulo hash collisions).
  uint64_t Fingerprint() const;

  /// The underlying parameter bag.
  ParamMap& params() { return params_; }
  const ParamMap& params() const { return params_; }

  bool operator==(const PlanSpec& other) const {
    return params_ == other.params_;
  }
  bool operator!=(const PlanSpec& other) const { return !(*this == other); }

 private:
  ParamMap params_;
};

/// Fixed-width lower-case hex form of a fingerprint ("00af3c...").
std::string FingerprintHex(uint64_t fingerprint);

}  // namespace pdd

#endif  // PDD_PLAN_PLAN_SPEC_H_
