// pddlint — static determinism/correctness linter for the pdd tree.
//
// Usage:
//   pddlint [options]
//
// Options:
//   --root DIR        repository root to lint (default: the root this
//                     binary was compiled from, else the current
//                     directory)
//   --allowlist FILE  audited-site allowlist (default:
//                     ROOT/tools/pddlint_allowlist.txt when present)
//   --list-rules      print the rules and exit
//
// Output is compiler-style `file:line: [rule] message` per finding,
// then the registry/spec closure check's findings; exit status is 1
// when any finding survives the allowlist, and 2 on a usage error (an
// unknown option, a missing value, an operand) or when the tree or the
// allowlist cannot be read. CI runs this on every commit, next to the
// build.

#include <filesystem>
#include <iostream>

#include "analysis/lint.h"
#include "analysis/spec_closure.h"
#include "core/tool_args.h"

int main(int argc, char** argv) {
  using namespace pdd;
  std::string root;
  std::string allowlist_path;
  bool list_rules = false;
  Result<ToolArgs> args = ParseToolArgs(
      {argv + 1, argv + argc}, 0,
      {TextFlag("--root", &root), TextFlag("--allowlist", &allowlist_path),
       SwitchFlag("--list-rules", &list_rules)});
  if (!args.ok() || !args->positional.empty()) {
    std::cerr << "pddlint: "
              << (args.ok() ? "unexpected operand '" +
                                  args->positional[0] + "'"
                            : args.status().ToString())
              << "\n";
    return 2;
  }
  if (list_rules) {
    for (const LintRuleInfo& rule : LintRules()) {
      std::cout << rule.name << "\n    " << rule.summary << "\n";
    }
    return 0;
  }
  if (root.empty()) {
    root = DefaultSourceRoot();
    if (root.empty() || !std::filesystem::exists(root)) root = ".";
  }

  LintOptions options;
  if (allowlist_path.empty()) {
    std::filesystem::path candidate =
        std::filesystem::path(root) / "tools" / "pddlint_allowlist.txt";
    if (std::filesystem::exists(candidate)) {
      allowlist_path = candidate.string();
    }
  }
  if (!allowlist_path.empty()) {
    Status loaded = LoadLintAllowlist(allowlist_path, &options);
    if (!loaded.ok()) {
      std::cerr << "pddlint: " << loaded.ToString() << "\n";
      return 2;
    }
  }

  Result<std::vector<LintFinding>> findings = LintTree(root, options);
  if (!findings.ok()) {
    std::cerr << "pddlint: " << findings.status().ToString() << "\n";
    return 2;
  }
  size_t total = findings->size();
  for (const LintFinding& finding : *findings) {
    std::cout << finding.ToString() << "\n";
  }

  SpecClosureReport closure = CheckSpecClosure();
  total += closure.findings.size();
  for (const LintFinding& finding : closure.findings) {
    std::cout << finding.ToString() << "\n";
  }
  std::cerr << "pddlint: spec closure over " << closure.read_keys.size()
            << " read keys / " << closure.printed_keys.size()
            << " printed keys\n";

  if (total > 0) {
    std::cerr << "pddlint: " << total << " finding"
              << (total == 1 ? "" : "s") << "\n";
    return 1;
  }
  std::cerr << "pddlint: clean\n";
  return 0;
}
