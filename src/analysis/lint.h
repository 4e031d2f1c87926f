// pddlint: a project-invariant linter for the pdd source tree.
//
// The engine's load-bearing promise is byte-for-byte determinism:
// serial ≡ pooled ≡ cached ≡ streamed for any worker count and batch
// size. Runtime diff tests enforce the promise end-to-end; this linter
// guards the *sources* of nondeterminism statically, so a violation
// fails the build before it ever flakes a diff gate.
//
// Rules (names are stable identifiers used by the allowlist):
//
//   unordered-iteration   Iterating a std::unordered_map/unordered_set
//                         yields bucket order, which varies across
//                         libstdc++ versions and seed values. Any such
//                         iteration on a path that feeds
//                         DetectionResult or report output is a
//                         determinism bug. Applies to src/ and tools/;
//                         audited sites (the iteration is followed by a
//                         canonical sort) go in the allowlist.
//
//   nondeterminism        rand()/srand()/time()/clock()/random_device
//                         and pointer-value ordering
//                         (reinterpret_cast<[u]intptr_t>,
//                         std::less<void*>) inside the deterministic
//                         core (src/pipeline, src/decision, src/cache,
//                         src/columnar). Seeded pdd::Rng and
//                         std::chrono are the sanctioned alternatives.
//
//   banned-function       strcpy/strcat/sprintf/vsprintf/gets (buffer
//                         overflows) and atoi/atol/atoll/atof (silent
//                         0 on parse failure) anywhere in the tree.
//
//   float-equality        Raw ==/!= against a floating-point literal
//                         in decision code (src/decision): threshold
//                         and probability comparisons must be ordered
//                         (<, >=) or epsilon-based, never exact.
//
//   spec-closure          Registry/spec closure (see spec_closure.h):
//                         every key FromSpec reads is either printed
//                         by ToSpec (fingerprint-relevant) or on the
//                         documented fingerprint-irrelevant list. The
//                         read keys are listed from the plan's key
//                         declarations (plan/params.h), not scanned
//                         from source text.
//
// Suppression: a `// pddlint: allow(rule)` comment suppresses `rule`
// on its own line and the next (so a comment-only marker line covers
// the statement below); an allowlist file
// (tools/pddlint_allowlist.txt, `rule path` per line) suppresses a
// rule for a whole audited file.

#ifndef PDD_ANALYSIS_LINT_H_
#define PDD_ANALYSIS_LINT_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pdd {

struct LintFinding {
  /// Repository-relative path ('/'-separated).
  std::string file;
  /// 1-based line of the violation.
  size_t line = 0;
  /// Stable rule identifier ("unordered-iteration", ...).
  std::string rule;
  std::string message;

  /// "file:line: [rule] message" — the compiler-style form.
  std::string ToString() const;
};

struct LintRuleInfo {
  std::string name;
  std::string summary;
};

/// The registered rules, in reporting order.
const std::vector<LintRuleInfo>& LintRules();

struct LintOptions {
  /// rule → repository-relative files where the rule is suppressed
  /// (audited sites; every entry should cite why in the allowlist).
  std::map<std::string, std::set<std::string>> allowlist;
};

/// Parses allowlist text (`rule path` per line, '#' comments) into
/// `options->allowlist`. Unknown rule names are InvalidArgument so a
/// typo cannot silently disable nothing.
Status ParseLintAllowlist(std::string_view text, LintOptions* options);

/// Loads and parses an allowlist file. NotFound when absent.
Status LoadLintAllowlist(const std::string& path, LintOptions* options);

/// Lints one file's content. `rel_path` selects which rules apply
/// (rules are scoped by directory, see the table above) and appears in
/// findings. Pure function of its inputs — the test fixtures feed
/// synthetic snippets through this.
std::vector<LintFinding> LintSource(std::string_view rel_path,
                                    std::string_view content,
                                    const LintOptions& options);

/// Walks `root`'s source directories (src, tools, tests, bench,
/// examples; .h/.cc/.cpp) and lints every file. Findings are sorted by
/// (file, line) so output is stable across filesystem enumeration
/// order.
Result<std::vector<LintFinding>> LintTree(const std::string& root,
                                          const LintOptions& options);

/// The repository root this library was compiled from
/// (PDD_SOURCE_ROOT). Empty when unavailable.
std::string DefaultSourceRoot();

}  // namespace pdd

#endif  // PDD_ANALYSIS_LINT_H_
