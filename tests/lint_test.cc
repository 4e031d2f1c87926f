// Tests for the pddlint static-analysis pass (src/analysis/).
//
// Two halves: fixture snippets that must trip each rule (the linter
// is itself a gate, so a rule that silently stops firing is a CI
// hole), and the clean-tree assertion — the real repository, minus
// the audited allowlist, must produce zero findings, and every
// allowlist entry must still be necessary.

#include "analysis/lint.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/spec_closure.h"
#include "gtest/gtest.h"

namespace pdd {
namespace {

std::vector<LintFinding> Lint(std::string_view path,
                              std::string_view content) {
  return LintSource(path, content, LintOptions());
}

/// Count of findings for `rule` in the list.
size_t CountRule(const std::vector<LintFinding>& findings,
                 std::string_view rule) {
  size_t count = 0;
  for (const LintFinding& finding : findings) {
    if (finding.rule == rule) ++count;
  }
  return count;
}

std::string Describe(const std::vector<LintFinding>& findings) {
  std::string out;
  for (const LintFinding& finding : findings) {
    out += finding.ToString() + "\n";
  }
  return out;
}

// ------------------------------------------------------------------
// unordered-iteration

TEST(UnorderedIterationRule, FlagsRangeForOverUnorderedMap) {
  std::vector<LintFinding> findings = Lint("src/pipeline/x.cc", R"cc(
    void Render() {
      std::unordered_map<std::string, int> counts;
      for (const auto& [key, value] : counts) {
        Emit(key, value);
      }
    }
  )cc");
  ASSERT_EQ(CountRule(findings, "unordered-iteration"), 1u)
      << Describe(findings);
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_EQ(findings[0].file, "src/pipeline/x.cc");
}

TEST(UnorderedIterationRule, FlagsExplicitIteratorLoop) {
  std::vector<LintFinding> findings = Lint("src/core/x.cc", R"cc(
    std::unordered_set<std::string> ids;
    void Walk() {
      for (auto it = ids.begin(); it != ids.end(); ++it) Emit(*it);
    }
  )cc");
  EXPECT_EQ(CountRule(findings, "unordered-iteration"), 1u)
      << Describe(findings);
}

TEST(UnorderedIterationRule, FlagsMemberDeclarationsAndReferences) {
  std::vector<LintFinding> findings = Lint("src/cache/x.h", R"cc(
    struct Index {
      std::unordered_map<uint64_t, size_t> slots_;
    };
    void Dump(const std::unordered_map<uint64_t, size_t>& slots_) {
      for (const auto& entry : slots_) Emit(entry);
    }
  )cc");
  EXPECT_EQ(CountRule(findings, "unordered-iteration"), 1u)
      << Describe(findings);
}

TEST(UnorderedIterationRule, IgnoresOrderedContainersAndLookups) {
  std::vector<LintFinding> findings = Lint("src/pipeline/x.cc", R"cc(
    std::map<std::string, int> ordered;
    std::unordered_map<std::string, int> index;
    void Use() {
      for (const auto& [key, value] : ordered) Emit(key, value);
      auto it = index.find("name");   // lookups are fine
      index.emplace("a", 1);
    }
  )cc");
  EXPECT_EQ(CountRule(findings, "unordered-iteration"), 0u)
      << Describe(findings);
}

TEST(UnorderedIterationRule, ScopedToLibraryAndTools) {
  std::string snippet = R"cc(
    std::unordered_set<int> seen;
    void Use() {
      for (int v : seen) Emit(v);
    }
  )cc";
  EXPECT_EQ(CountRule(Lint("tests/x_test.cc", snippet),
                      "unordered-iteration"),
            0u);
  EXPECT_EQ(CountRule(Lint("tools/x.cc", snippet), "unordered-iteration"),
            1u);
}

TEST(UnorderedIterationRule, InlineMarkerSuppresses) {
  std::vector<LintFinding> findings = Lint("src/pipeline/x.cc", R"cc(
    std::unordered_map<int, int> histogram;
    void Fold() {
      // Sorted immediately below.  pddlint: allow(unordered-iteration)
      for (const auto& [k, v] : histogram) sink.push_back({k, v});
      std::sort(sink.begin(), sink.end());
    }
  )cc");
  EXPECT_EQ(CountRule(findings, "unordered-iteration"), 0u)
      << Describe(findings);
}

TEST(UnorderedIterationRule, AllowlistSuppressesWholeFile) {
  LintOptions options;
  ASSERT_TRUE(ParseLintAllowlist(
                  "unordered-iteration src/pipeline/x.cc  # audited\n",
                  &options)
                  .ok());
  std::vector<LintFinding> findings = LintSource("src/pipeline/x.cc", R"cc(
    std::unordered_map<int, int> m;
    void F() {
      for (const auto& [k, v] : m) Emit(k);
    }
  )cc",
                                                 options);
  EXPECT_EQ(CountRule(findings, "unordered-iteration"), 0u)
      << Describe(findings);
}

// ------------------------------------------------------------------
// nondeterminism

TEST(NondeterminismRule, FlagsEntropySourcesInTheCore) {
  std::vector<LintFinding> findings = Lint("src/pipeline/x.cc", R"cc(
    size_t Pick(size_t n) {
      std::srand(time(nullptr));
      return static_cast<size_t>(rand()) % n;
    }
  )cc");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 3u)
      << Describe(findings);
}

TEST(NondeterminismRule, FlagsPointerValueOrdering) {
  std::vector<LintFinding> findings = Lint("src/columnar/x.cc", R"cc(
    bool Before(const Tuple* a, const Tuple* b) {
      return reinterpret_cast<uintptr_t>(a) < reinterpret_cast<uintptr_t>(b);
    }
  )cc");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 2u)
      << Describe(findings);
}

TEST(NondeterminismRule, FlagsRandomDeviceAndGetenv) {
  std::vector<LintFinding> findings = Lint("src/decision/x.cc", R"cc(
    double Jitter() {
      std::random_device entropy;
      const char* override = getenv("PDD_JITTER");
      return 0.0;
    }
  )cc");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 2u)
      << Describe(findings);
}

TEST(NondeterminismRule, ScopedToTheDeterministicCore) {
  std::string snippet = R"cc(
    uint64_t Seed() { return static_cast<uint64_t>(time(nullptr)); }
  )cc";
  // Datagen seeds from the caller, but wall-clock use there cannot
  // desync a report byte; the rule covers the decide path only.
  EXPECT_EQ(CountRule(Lint("src/datagen/x.cc", snippet), "nondeterminism"),
            0u);
  EXPECT_EQ(CountRule(Lint("src/cache/x.cc", snippet), "nondeterminism"),
            1u);
  // The serving layer is in the core: an index image must be a pure
  // function of (record ids, report content).
  EXPECT_EQ(CountRule(Lint("src/index/x.cc", snippet), "nondeterminism"),
            1u);
  // So is the standing ingest path: the push-based drain promises a
  // report byte-identical to the batch run for any arrival order, so
  // queue/admission/session code must stay clock- and entropy-free
  // (arrival stamps are opaque caller-provided values).
  EXPECT_EQ(CountRule(Lint("src/ingest/x.cc", snippet), "nondeterminism"),
            1u);
}

TEST(NondeterminismRule, WordBoundariesAvoidFalsePositives) {
  std::vector<LintFinding> findings = Lint("src/pipeline/x.cc", R"cc(
    double wall_time(const StageTimings& t) { return t.total; }
    void Strand(int strand) { strand_(strand); }
    // steady_clock::now() is the sanctioned timing source.
    auto start = std::chrono::steady_clock::now();
  )cc");
  EXPECT_EQ(CountRule(findings, "nondeterminism"), 0u)
      << Describe(findings);
}

// ------------------------------------------------------------------
// banned-function

TEST(BannedFunctionRule, FlagsUnsafeCalls) {
  std::vector<LintFinding> findings = Lint("src/util/x.cc", R"cc(
    void Copy(char* dst, const char* src) {
      strcpy(dst, src);
      int n = atoi(src);
      double d = atof(src);
    }
  )cc");
  EXPECT_EQ(CountRule(findings, "banned-function"), 3u)
      << Describe(findings);
}

TEST(BannedFunctionRule, AppliesToTestsAndBenches) {
  std::string snippet = R"cc(
    int Parse(const char* s) { return atoi(s); }
  )cc";
  EXPECT_EQ(CountRule(Lint("tests/x_test.cc", snippet), "banned-function"),
            1u);
  EXPECT_EQ(CountRule(Lint("bench/x.cpp", snippet), "banned-function"), 1u);
}

TEST(BannedFunctionRule, RequiresExactNameAndCall) {
  std::vector<LintFinding> findings = Lint("src/util/x.cc", R"cc(
    int my_atoi(const char* s);      // different identifier
    int atoi_like(const char* s);    // different identifier
    void Log() { Emit("call atoi(x) manually"); }  // string literal
    struct S { int atoi; };          // member, never called
  )cc");
  EXPECT_EQ(CountRule(findings, "banned-function"), 0u)
      << Describe(findings);
}

// ------------------------------------------------------------------
// float-equality

TEST(FloatEqualityRule, FlagsLiteralComparisonsInDecisionCode) {
  std::vector<LintFinding> findings = Lint("src/decision/x.cc", R"cc(
    bool IsMatch(double p) { return p == 0.7; }
    bool IsEdge(double p) { return 1.0 != p; }
    bool IsTiny(double p) { return p == 1e-9; }
  )cc");
  EXPECT_EQ(CountRule(findings, "float-equality"), 3u)
      << Describe(findings);
}

TEST(FloatEqualityRule, AllowsOrderedAndIntegerComparisons) {
  std::vector<LintFinding> findings = Lint("src/decision/x.cc", R"cc(
    bool AtLeast(double p) { return p >= 0.7; }
    bool Below(double p) { return p < 0.4; }
    bool None(size_t n) { return n == 0; }
    bool Same(int a, int b) { return a == b; }
  )cc");
  EXPECT_EQ(CountRule(findings, "float-equality"), 0u)
      << Describe(findings);
}

TEST(FloatEqualityRule, ScopedToDecisionCode) {
  std::string snippet = R"cc(
    bool Exact(double s) { return s == 1.0; }
  )cc";
  EXPECT_EQ(CountRule(Lint("src/sim/x.cc", snippet), "float-equality"), 0u);
  EXPECT_EQ(CountRule(Lint("src/decision/x.cc", snippet), "float-equality"),
            1u);
}

// ------------------------------------------------------------------
// engine mechanics

TEST(LintEngine, IgnoresCommentsAndStrings) {
  std::vector<LintFinding> findings = Lint("src/pipeline/x.cc", R"cc(
    // rand() in a comment, and atoi(s) too.
    /* for (auto& kv : unordered_things) {} */
    const char* doc = "call rand() and compare p == 0.7";
  )cc");
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(LintEngine, FindingFormatIsCompilerStyle) {
  LintFinding finding{"src/pipeline/x.cc", 12, "nondeterminism", "boom"};
  EXPECT_EQ(finding.ToString(), "src/pipeline/x.cc:12: [nondeterminism] boom");
}

TEST(LintEngine, AllowlistRejectsUnknownRulesAndTrailingTokens) {
  LintOptions options;
  EXPECT_FALSE(ParseLintAllowlist("not-a-rule src/x.cc\n", &options).ok());
  EXPECT_FALSE(
      ParseLintAllowlist("banned-function src/x.cc stray\n", &options).ok());
  EXPECT_TRUE(ParseLintAllowlist("# only comments\n\n", &options).ok());
  EXPECT_TRUE(options.allowlist.empty());
}

TEST(LintEngine, RuleCatalogIsStable) {
  std::vector<std::string> names;
  for (const LintRuleInfo& rule : LintRules()) names.push_back(rule.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"unordered-iteration", "nondeterminism",
                                      "banned-function", "float-equality",
                                      "spec-closure"}));
}

// ------------------------------------------------------------------
// The real tree.

std::string SourceRootOrSkip() {
  std::string root = DefaultSourceRoot();
  if (root.empty() || !std::filesystem::exists(root)) return "";
  return root;
}

TEST(CleanTree, RepositoryIsLintClean) {
  std::string root = SourceRootOrSkip();
  if (root.empty()) GTEST_SKIP() << "source root unavailable";
  LintOptions options;
  Status allowlist = LoadLintAllowlist(root + "/tools/pddlint_allowlist.txt",
                                       &options);
  ASSERT_TRUE(allowlist.ok()) << allowlist.ToString();
  Result<std::vector<LintFinding>> findings = LintTree(root, options);
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  EXPECT_TRUE(findings->empty())
      << "the tree must stay lint-green (fix the site or add an audited "
         "allowlist entry):\n"
      << Describe(*findings);
}

TEST(CleanTree, EveryAllowlistEntryIsStillNecessary) {
  std::string root = SourceRootOrSkip();
  if (root.empty()) GTEST_SKIP() << "source root unavailable";
  LintOptions options;
  ASSERT_TRUE(LoadLintAllowlist(root + "/tools/pddlint_allowlist.txt",
                                &options)
                  .ok());
  for (const auto& [rule, files] : options.allowlist) {
    for (const std::string& file : files) {
      std::ifstream in(root + "/" + file);
      ASSERT_TRUE(in.good()) << "allowlist names missing file " << file;
      std::stringstream buffer;
      buffer << in.rdbuf();
      std::vector<LintFinding> findings =
          LintSource(file, buffer.str(), LintOptions());
      EXPECT_GT(CountRule(findings, rule), 0u)
          << "allowlist entry `" << rule << " " << file
          << "` no longer suppresses anything — remove it";
    }
  }
}

TEST(CleanTree, SpecClosureHolds) {
  SpecClosureReport closure = CheckSpecClosure();
  EXPECT_TRUE(closure.findings.empty()) << Describe(closure.findings);
  EXPECT_GT(closure.read_keys.size(), 20u);
  EXPECT_GT(closure.printed_keys.size(), 20u);
  // Keys read through a shared declaration are read keys too.
  for (const char* key : {"reduction.distance", "reduction.key_comparator"}) {
    EXPECT_EQ(closure.read_keys.count(key), 1u) << key;
    EXPECT_EQ(closure.printed_keys.count(key), 1u) << key;
  }
  // The documented fingerprint-irrelevant keys are exactly the read
  // keys that never reach the fingerprint.
  for (const std::string& key : FingerprintIrrelevantSpecKeys()) {
    EXPECT_EQ(closure.read_keys.count(key), 1u) << key;
    EXPECT_EQ(closure.printed_keys.count(key), 0u) << key;
  }
}

}  // namespace
}  // namespace pdd
