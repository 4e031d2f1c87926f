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
//   read keys     string literals consumed by FromSpec and the
//                 ComponentRegistry configure functions, scanned from
//                 src/plan/translate.cc and src/plan/registry.cc;
//   printed keys  runtime enumeration: ToSpec over every registered
//                 reduction/combination/derivation plus the
//                 conditionally-printed base keys (prune,
//                 comparators, preparation);
//   irrelevant    FingerprintIrrelevantSpecKeys(), the documented
//                 list.
//
// Violations: a key read but neither printed nor documented irrelevant
// (fingerprint escape); a key both printed and documented irrelevant
// (contradiction); a documented key no longer read (stale entry); a
// key printed but never read (ToSpec output would fail to reparse —
// ExpectFullyConsumed rejects unconsumed keys).

#ifndef PDD_ANALYSIS_SPEC_CLOSURE_H_
#define PDD_ANALYSIS_SPEC_CLOSURE_H_

#include <set>
#include <string>

#include "analysis/lint.h"
#include "util/status.h"

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

/// Runs the closure check. `source_root` locates src/plan/ for the
/// read-key scan; the printed-key set comes from the live registry.
Result<SpecClosureReport> CheckSpecClosure(const std::string& source_root);

}  // namespace pdd

#endif  // PDD_ANALYSIS_SPEC_CLOSURE_H_
