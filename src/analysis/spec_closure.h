// Registry/spec closure check (the `spec-closure` lint rule).
//
// The plan fingerprint is the identity of a detection run: two plans
// with the same fingerprint must produce byte-identical reports. That
// only holds if every spec key that can change behavior participates
// in the fingerprint — i.e. is printed by DetectorConfig::ToSpec. A
// key that FromSpec reads but ToSpec never prints silently escapes the
// fingerprint: two differing plans would collide. The sanctioned
// exceptions are the documented fingerprint-irrelevant keys (pure
// throughput/placement knobs that provably cannot change a single
// output byte).
//
// The check cross-references three sets:
//
//   read keys     the declared keys FromSpec accepts: the base plan's
//                 declaration (VisitPlanParams) and every registered
//                 reduction/combination/derivation's, listed by a
//                 ParamVisitor (plan/params.h);
//   printed keys  runtime enumeration: ToSpec over every registered
//                 reduction/combination/derivation, with the three
//                 key-distance comparators set, plus the
//                 conditionally-printed base keys (prune,
//                 comparators, preparation);
//   irrelevant    FingerprintIrrelevantSpecKeys(), the documented
//                 list.
//
// Violations: a key read but neither printed nor documented irrelevant
// (fingerprint escape); a key both printed and documented irrelevant
// (contradiction); a documented key no longer read (stale entry); a
// key printed but never read (ToSpec output would fail to reparse —
// FromSpec rejects undeclared keys).

#ifndef PDD_ANALYSIS_SPEC_CLOSURE_H_
#define PDD_ANALYSIS_SPEC_CLOSURE_H_

#include <set>
#include <string>
#include <vector>

#include "analysis/lint.h"

namespace pdd {

/// Spec keys FromSpec accepts that are deliberately excluded from the
/// plan fingerprint. Every entry is a pure throughput or placement
/// knob: the report is gated byte-identical across all its values.
const std::set<std::string>& FingerprintIrrelevantSpecKeys();

struct SpecClosureReport {
  std::set<std::string> read_keys;
  std::set<std::string> printed_keys;
  std::vector<LintFinding> findings;
};

/// Runs the closure check over the live declarations and registry.
SpecClosureReport CheckSpecClosure();

}  // namespace pdd

#endif  // PDD_ANALYSIS_SPEC_CLOSURE_H_
