// Tests of the declarative plan layer (src/plan/): ParamMap typing,
// PlanSpec parse/print round-trips, fingerprint stability, the
// ComponentRegistry and name tables (full name coverage, nearest-match
// errors), DetectorConfig ↔ PlanSpec translation (pinned fingerprints
// and FromSpec outcomes, unknown-key rejection, concurrent reads of one
// spec), spec-compiled plans matching config-compiled plans, and the
// Validate() pruning-soundness checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/paper_examples.h"
#include "plan/plan_builder.h"
#include "plan/plan_spec.h"
#include "plan/registry.h"
#include "plan/translate.h"
#include "sim/registry.h"
#include "util/string_util.h"

namespace pdd {
namespace {

// ----------------------------------------------------------- ParamMap

TEST(ParamMapTest, TypedGetters) {
  ParamMap params;
  params.Set("name", "canopy");
  params.SetDouble("loose", 0.7);
  params.SetSize("window", 5);
  params.SetBool("conditioned", true);
  EXPECT_EQ(params.GetString("name", "full"), "canopy");
  EXPECT_EQ(params.GetString("absent", "full"), "full");
  EXPECT_DOUBLE_EQ(*params.GetDouble("loose", 0.0), 0.7);
  EXPECT_DOUBLE_EQ(*params.GetDouble("absent", 0.25), 0.25);
  EXPECT_EQ(*params.GetSize("window", 3), 5u);
  EXPECT_TRUE(*params.GetBool("conditioned", false));
}

TEST(ParamMapTest, MalformedValuesAreInvalidArgument) {
  ParamMap params;
  params.Set("loose", "not-a-number");
  params.Set("window", "2.5");
  params.Set("flag", "maybe");
  EXPECT_FALSE(params.GetDouble("loose", 0.0).ok());
  EXPECT_FALSE(params.GetSize("window", 3).ok());
  EXPECT_FALSE(params.GetBool("flag", false).ok());
}

TEST(ParamMapTest, GetSizeRejectsNonCountsBeforeCasting) {
  for (const char* bad : {"nan", "inf", "-inf", "1e30", "-1", "2.5"}) {
    ParamMap params;
    params.Set("executor.workers", bad);
    EXPECT_FALSE(params.GetSize("executor.workers", 0).ok()) << bad;
  }
  for (const auto& [text, expected] :
       std::vector<std::pair<const char*, size_t>>{
           {"0", 0}, {"42", 42}, {"1e3", 1000}}) {
    ParamMap params;
    params.Set("executor.workers", text);
    Result<size_t> parsed = params.GetSize("executor.workers", 9);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(*parsed, expected) << text;
  }
}

// ----------------------------------------------------------- PlanSpec

TEST(PlanSpecTest, ParsePrintRoundTripIsBitIdentical) {
  const char* text =
      "# a comment and a blank line\n"
      "\n"
      "key = name:3,job:2\n"
      "reduction = canopy\n"
      "reduction.loose = 0.80\n";
  Result<PlanSpec> spec = PlanSpec::Parse(text);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  std::string canonical = spec->ToText();
  Result<PlanSpec> reparsed = PlanSpec::Parse(canonical);
  ASSERT_TRUE(reparsed.ok());
  // Bit-identical round trip, values verbatim ("0.80" stays "0.80").
  EXPECT_EQ(reparsed->ToText(), canonical);
  EXPECT_NE(canonical.find("reduction.loose = 0.80"), std::string::npos);
}

TEST(PlanSpecTest, EscapingRoundTripsNewlines) {
  PlanSpec spec;
  spec.params().Set("combination.rules",
                    "IF name > 0.8 THEN DUPLICATES\nIF job > 0.9 THEN "
                    "DUPLICATES WITH CERTAINTY 0.5\n");
  spec.params().Set("path", "a\\b");
  Result<PlanSpec> reparsed = PlanSpec::Parse(spec.ToText());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(*reparsed, spec);
}

TEST(PlanSpecTest, EdgeWhitespaceInValuesRoundTrips) {
  PlanSpec spec;
  spec.params().Set("a", " leading");
  spec.params().Set("b", "trailing  ");
  spec.params().Set("c", " ");
  spec.params().Set("d", "tab\tinside\tand edge\t");
  Result<PlanSpec> reparsed = PlanSpec::Parse(spec.ToText());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(*reparsed, spec);
  EXPECT_EQ(reparsed->Fingerprint(), spec.Fingerprint());
}

TEST(PlanSpecTest, DuplicateKeyIsParseError) {
  Result<PlanSpec> spec = PlanSpec::Parse("a = 1\na = 2\n");
  EXPECT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kParseError);
}

TEST(PlanSpecTest, FingerprintInvariantToLineOrder) {
  std::string text =
      "key = name:3,job:2\n"
      "reduction = snm_certain_keys\n"
      "reduction.window = 4\n"
      "classify.t_mu = 0.7\n";
  std::vector<std::string> lines = Split(text, '\n');
  std::reverse(lines.begin(), lines.end());
  Result<PlanSpec> forward = PlanSpec::Parse(text);
  Result<PlanSpec> backward = PlanSpec::Parse(Join(lines, "\n"));
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  EXPECT_EQ(forward->Fingerprint(), backward->Fingerprint());
}

TEST(PlanSpecTest, FingerprintChangesWhenAnyParameterChanges) {
  PlanSpec base = PlanBuilder()
                      .AddKey("name", 3)
                      .AddKey("job", 2)
                      .Reduction("snm_certain_keys")
                      .Set("reduction.window", 4)
                      .Weights({0.8, 0.2})
                      .Thresholds(0.4, 0.7)
                      .Build();
  uint64_t fingerprint = base.Fingerprint();
  for (const auto& [key, value] : base.params().entries()) {
    PlanSpec mutated = base;
    mutated.params().Set(key, value + "x");
    EXPECT_NE(mutated.Fingerprint(), fingerprint)
        << "changing '" << key << "' did not change the fingerprint";
  }
  // Removing a key changes it too.
  PlanSpec removed = base;
  removed.params().Erase("reduction.window");
  EXPECT_NE(removed.Fingerprint(), fingerprint);
}

// ---------------------------------------------------- ComponentRegistry

TEST(RegistryTest, AllTwelveReductionsRegistered) {
  std::vector<std::string> names =
      ComponentRegistry::Global().ReductionNames();
  EXPECT_EQ(names.size(), 12u);
  for (int m = 0; m <= 11; ++m) {
    const char* name = ReductionMethodName(static_cast<ReductionMethod>(m));
    auto entry = ComponentRegistry::Global().FindReduction(name);
    ASSERT_TRUE(entry.ok()) << name;
    EXPECT_EQ((*entry)->method, static_cast<ReductionMethod>(m));
  }
}

TEST(RegistryTest, AllCombinationsAndDerivationsRegistered) {
  EXPECT_EQ(ComponentRegistry::Global().CombinationNames().size(), 3u);
  EXPECT_EQ(ComponentRegistry::Global().DerivationNames().size(), 6u);
  for (int k = 0; k <= 2; ++k) {
    const char* name = CombinationKindName(static_cast<CombinationKind>(k));
    EXPECT_TRUE(ComponentRegistry::Global().FindCombination(name).ok())
        << name;
  }
  for (int k = 0; k <= 5; ++k) {
    const char* name = DerivationKindName(static_cast<DerivationKind>(k));
    EXPECT_TRUE(ComponentRegistry::Global().FindDerivation(name).ok())
        << name;
  }
}

TEST(RegistryTest, UnknownNameSuggestsNearestMatch) {
  auto entry =
      ComponentRegistry::Global().FindReduction("snm_certan_keys");
  ASSERT_FALSE(entry.ok());
  const std::string& message = entry.status().message();
  EXPECT_NE(message.find("did you mean 'snm_certain_keys'"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("qgram_index"), std::string::npos) << message;
}

TEST(RegistryTest, ConflictAndRankingVocabularies) {
  EXPECT_EQ(*ConflictStrategies().Find("longest"), ConflictStrategy::kLongest);
  EXPECT_EQ(*RankingMethods().Find("expected_rank"),
            RankingMethod::kExpectedRank);
  EXPECT_FALSE(RankingMethods().Find("positionl").ok());
}

// ------------------------------------- DetectorConfig ↔ PlanSpec

/// Normalization (FromSpec then ToSpec) must be idempotent: the second
/// pass reproduces the first's text bit-identically.
void ExpectNormalizedRoundTrip(const PlanSpec& spec) {
  Result<DetectorConfig> config = DetectorConfig::FromSpec(spec);
  ASSERT_TRUE(config.ok()) << config.status().ToString() << "\n"
                           << spec.ToText();
  std::string first = config->ToSpec().ToText();
  Result<PlanSpec> reparsed = PlanSpec::Parse(first);
  ASSERT_TRUE(reparsed.ok());
  Result<DetectorConfig> again = DetectorConfig::FromSpec(*reparsed);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << first;
  EXPECT_EQ(again->ToSpec().ToText(), first);
}

TEST(TranslateTest, RoundTripAcrossEveryReduction) {
  for (const std::string& name :
       ComponentRegistry::Global().ReductionNames()) {
    ExpectNormalizedRoundTrip(PlanBuilder().Reduction(name).Build());
  }
}

TEST(TranslateTest, RoundTripAcrossEveryCombination) {
  ExpectNormalizedRoundTrip(PlanBuilder()
                                .Combination("weighted_sum")
                                .Weights({0.8, 0.2})
                                .Build());
  ExpectNormalizedRoundTrip(PlanBuilder()
                                .Combination("fellegi_sunter")
                                .Set("combination.fs", "0.9:0.1:0.8,0.85:0.05:0.75")
                                .Set("combination.interpolated", true)
                                .Build());
  ExpectNormalizedRoundTrip(
      PlanBuilder()
          .Combination("rules")
          .Set("combination.rules",
               "IF name > 0.8 AND job > 0.5 THEN DUPLICATES WITH "
               "CERTAINTY 0.8\n")
          .Build());
}

TEST(TranslateTest, RoundTripAcrossEveryDerivation) {
  for (const std::string& name :
       ComponentRegistry::Global().DerivationNames()) {
    PlanBuilder builder;
    builder.Derivation(name);
    // Intermediate thresholds exist only for the decision-based
    // derivations; anywhere else they are (correctly) unknown keys.
    if (name == "matching_weight" || name == "expected_matching") {
      builder.IntermediateThresholds(0.35, 0.65);
    }
    ExpectNormalizedRoundTrip(builder.Build());
  }
}

TEST(TranslateTest, RoundTripWithAllTopLevelFeatures) {
  ExpectNormalizedRoundTrip(PlanBuilder()
                                .AddKey("name", 3)
                                .AddKey("job", 0)
                                .Reduction("canopy")
                                .Set("reduction.loose", 0.75)
                                .Set("reduction.distance", "jaro")
                                .Comparators({"levenshtein", "default"})
                                .Prepare("lower,trim,collapse")
                                .Prune(0.4)
                                .Thresholds(0.4, 0.7)
                                .Build());
}

TEST(TranslateTest, SpecAppliesOverBaseConfig) {
  DetectorConfig base;
  base.key = {{"surname", 4}};
  base.workers = 7;
  PlanSpec spec = PlanBuilder().Set("reduction.window", 9).Build();
  spec.params().Set("reduction", "snm_certain_keys");
  Result<DetectorConfig> merged = DetectorConfig::FromSpec(spec, base);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->reduction, ReductionMethod::kSnmCertainKeys);
  EXPECT_EQ(merged->window, 9u);
  // Untouched base fields survive.
  ASSERT_EQ(merged->key.size(), 1u);
  EXPECT_EQ(merged->key[0].first, "surname");
  EXPECT_EQ(merged->workers, 7u);
}

TEST(TranslateTest, UnknownParameterKeyIsRejected) {
  PlanSpec spec = PlanBuilder().Reduction("full").Build();
  spec.params().Set("reduction.window", "5");  // full has no window
  Result<DetectorConfig> config = DetectorConfig::FromSpec(spec);
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("reduction.window"),
            std::string::npos);
}

// Every run drains one candidate stream; no spec key partitions it.
// The shard keys are rejected like any unknown key, never ignored.
TEST(TranslateTest, ShardKeysAreUnknownKeys) {
  const std::pair<std::string, std::string> kShardKeys[] = {
      {"shard.count", "2"}, {"shard.strategy", "auto"}};
  for (const auto& [key, value] : kShardKeys) {
    PlanSpec spec = PlanBuilder().Build();
    spec.params().Set(key, value);
    Result<DetectorConfig> config = DetectorConfig::FromSpec(spec);
    ASSERT_FALSE(config.ok()) << key;
    EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(config.status().message().find(key), std::string::npos)
        << key << ": " << config.status().ToString();
  }
}

TEST(TranslateTest, ExecutorKnobsAcceptedButNotFingerprinted) {
  PlanSpec spec = PlanBuilder().Build();
  spec.params().Set("executor.workers", "4");
  spec.params().Set("executor.batch", "64");
  Result<DetectorConfig> config = DetectorConfig::FromSpec(spec);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->workers, 4u);
  EXPECT_EQ(config->batch_size, 64u);
  // ToSpec does not re-emit them: they do not change decisions.
  EXPECT_FALSE(config->ToSpec().params().Has("executor.workers"));
}

TEST(TranslateTest, UniformPreparationRoundTripsWithAttributeCount) {
  Standardizer standard;
  standard.LowerCase().TrimWhitespace();
  DetectorConfig config;
  config.preparation = DataPreparation::Uniform(standard, 2);
  PlanSpec spec = config.ToSpec();
  EXPECT_EQ(spec.params().GetString("prepare", ""), "lower,trim");
  Result<DetectorConfig> back = DetectorConfig::FromSpec(spec);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_TRUE(back->preparation.has_value());
  EXPECT_EQ(back->preparation->per_attribute().size(), 2u);
  EXPECT_EQ(back->ToSpec().ToText(), spec.ToText());
}

TEST(TranslateTest, AdaptiveStrategySurvivesUnrelatedOverride) {
  DetectorConfig base;
  base.reduction = ReductionMethod::kSnmAdaptive;
  base.adaptive.strategy = ConflictStrategy::kFirst;
  PlanSpec spec;
  spec.params().Set("reduction.max_window", "20");
  Result<DetectorConfig> merged = DetectorConfig::FromSpec(spec, base);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->adaptive.max_window, 20u);
  EXPECT_EQ(merged->adaptive.strategy, ConflictStrategy::kFirst);
}

TEST(TranslateTest, CustomMarkersAreNotResolvable) {
  PlanSpec spec;
  spec.params().Set("comparators", "custom,hamming");
  EXPECT_FALSE(DetectorConfig::FromSpec(spec).ok());
  PlanSpec prep;
  prep.params().Set("prepare", "custom");
  EXPECT_FALSE(DetectorConfig::FromSpec(prep).ok());
}

TEST(TranslateTest, CustomDistanceComparatorPrintsAsCustom) {
  // A caller-installed comparator instance must not silently alias the
  // registry comparator of the same name on reload.
  ExactComparator tuned;  // name() == "exact", but not the registry one
  DetectorConfig config;
  config.reduction = ReductionMethod::kCanopy;
  config.canopy.comparator = &tuned;
  PlanSpec spec = config.ToSpec();
  EXPECT_EQ(spec.params().GetString("reduction.distance", ""), "custom");
  EXPECT_FALSE(DetectorConfig::FromSpec(spec).ok());
  // The genuine registry instance prints (and reloads) by name.
  config.canopy.comparator = *GetComparator("jaro");
  PlanSpec named = config.ToSpec();
  EXPECT_EQ(named.params().GetString("reduction.distance", ""), "jaro");
  Result<DetectorConfig> back = DetectorConfig::FromSpec(named);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->canopy.comparator, *GetComparator("jaro"));
}

// ------------------------------------------ pinned translation output

/// The configs whose ToSpec fingerprints are pinned: the defaults, each
/// registered component at its defaults and with every parameter off
/// its default, and one config that prints every conditional base key.
std::vector<std::pair<std::string, DetectorConfig>> GoldenConfigs() {
  const ComponentRegistry& registry = ComponentRegistry::Global();
  std::vector<std::pair<std::string, DetectorConfig>> configs;
  configs.emplace_back("defaults", DetectorConfig());
  for (const std::string& name : registry.ReductionNames()) {
    DetectorConfig config;
    config.reduction = (*registry.FindReduction(name))->method;
    configs.emplace_back(name, config);
    config.window = 5;
    config.conflict_strategy = ConflictStrategy::kLongest;
    config.world_selection.strategy = WorldSelectionStrategy::kDiverse;
    config.world_selection.count = 4;
    config.world_selection.lambda = 0.25;
    config.world_selection.candidate_pool = 16;
    config.world_selection.all_present_only = false;
    config.ranking_method = RankingMethod::kExpectedRank;
    config.clustering.algorithm =
        ClusteredBlockingOptions::Algorithm::kKMedoids;
    config.clustering.comparator = *GetComparator("jaro");
    config.clustering.leader_threshold = 0.35;
    config.clustering.kmedoids = {5, 7, 99};
    config.clustering.conditioned = true;
    config.canopy = {0.8, 0.3, *GetComparator("levenshtein"), true};
    config.adaptive = {0.75, 12, *GetComparator("jaro_winkler"),
                       ConflictStrategy::kShortest};
    config.qgram = {3, 1, 0.25, 4};
    configs.emplace_back(name + " off-default", config);
  }
  for (const std::string& name : registry.CombinationNames()) {
    DetectorConfig config;
    config.combination = (*registry.FindCombination(name))->kind;
    configs.emplace_back(name, config);
    config.weights = {0.6, 0.4};
    config.fs_attributes = {{0.9, 0.1, 0.8}, {0.85, 0.05, 0.75}};
    config.fs_interpolated = true;
    config.rules_text = "IF name > 0.8 THEN DUPLICATES\n";
    configs.emplace_back(name + " off-default", config);
  }
  for (const std::string& name : registry.DerivationNames()) {
    DetectorConfig config;
    config.derivation = (*registry.FindDerivation(name))->kind;
    configs.emplace_back(name, config);
    config.intermediate = {0.3, 0.6};
    configs.emplace_back(name + " off-default", config);
  }
  DetectorConfig conditional;
  conditional.prune = true;
  conditional.prune_threshold = 0.35;
  conditional.comparators = {"levenshtein", "default"};
  Standardizer standardizer;
  standardizer.LowerCase().TrimWhitespace();
  conditional.preparation = DataPreparation::Uniform(standardizer, 2);
  configs.emplace_back("every conditional key", conditional);
  return configs;
}

TEST(TranslateTest, FingerprintsArePinned) {
  // A plan's fingerprint is its identity in reports, caches and
  // indexes: any change to a printed key, default or value format
  // shows here.
  const std::map<std::string, std::string> kExpected = {
      {"defaults", "a6ecba38588334cd"},
      {"blocking_alternatives", "81f9f7698373269e"},
      {"blocking_alternatives off-default", "81f9f7698373269e"},
      {"blocking_certain_keys", "727d1f4c26e764fa"},
      {"blocking_certain_keys off-default", "b612bd9b992590c5"},
      {"blocking_clustered", "cf8de43003325dba"},
      {"blocking_clustered off-default", "a26ef792cc845d74"},
      {"blocking_multipass_worlds", "a7ca7885144213d9"},
      {"blocking_multipass_worlds off-default", "f36eff9fe0d096aa"},
      {"canopy", "a6dcea6735e6c9cc"},
      {"canopy off-default", "507d933c2bd4d079"},
      {"full", "a6ecba38588334cd"},
      {"full off-default", "a6ecba38588334cd"},
      {"qgram_index", "443e3d9d7b172408"},
      {"qgram_index off-default", "9cf35ce04ed038a7"},
      {"snm_adaptive", "3ecd36fc3d5d755b"},
      {"snm_adaptive off-default", "3bbe7802596b5001"},
      {"snm_certain_keys", "a9523a4a373eb456"},
      {"snm_certain_keys off-default", "2f0ca0c6e1c5e885"},
      {"snm_multipass_worlds", "feae9ba89c0ac85e"},
      {"snm_multipass_worlds off-default", "99f166dc8b65e5d8"},
      {"snm_sorting_alternatives", "c3fea908863cb271"},
      {"snm_sorting_alternatives off-default", "c4057108864271f7"},
      {"snm_uncertain_ranking", "a66e9337b1b955d4"},
      {"snm_uncertain_ranking off-default", "b4492845ec3f3a79"},
      {"fellegi_sunter", "04c4c7413dc27f3c"},
      {"fellegi_sunter off-default", "a3b6a094a6143aaf"},
      {"rules", "822cf07fc396eb27"},
      {"rules off-default", "abd6e979eb54e50a"},
      {"weighted_sum", "a6ecba38588334cd"},
      {"weighted_sum off-default", "1d7a609c7f4240d5"},
      {"expected_matching", "f29a4ce6882cd1b9"},
      {"expected_matching off-default", "b8e2404dfe6a7ddf"},
      {"expected_similarity", "a6ecba38588334cd"},
      {"expected_similarity off-default", "a6ecba38588334cd"},
      {"matching_weight", "e6f4719ddc1eff2b"},
      {"matching_weight off-default", "d852bba29f29a10d"},
      {"max_similarity", "8b28065de4ebd8dd"},
      {"max_similarity off-default", "8b28065de4ebd8dd"},
      {"min_similarity", "d2c21e90f40cc85f"},
      {"min_similarity off-default", "d2c21e90f40cc85f"},
      {"mode_similarity", "b822962fa864ae22"},
      {"mode_similarity off-default", "b822962fa864ae22"},
      {"every conditional key", "6a0244a496aa875e"},
  };
  std::vector<std::pair<std::string, DetectorConfig>> configs =
      GoldenConfigs();
  ASSERT_EQ(configs.size(), 44u);
  for (const auto& [name, config] : configs) {
    PlanSpec spec = config.ToSpec();
    auto expected = kExpected.find(name);
    ASSERT_NE(expected, kExpected.end()) << name;
    EXPECT_EQ(FingerprintHex(spec.Fingerprint()), expected->second)
        << name << "\n"
        << spec.ToText();
    Result<DetectorConfig> back = DetectorConfig::FromSpec(spec);
    ASSERT_TRUE(back.ok()) << name << ": " << back.status().ToString();
    EXPECT_EQ(back->ToSpec(), spec) << name;
  }
}

TEST(TranslateTest, FromSpecOutcomesArePinned) {
  DetectorConfig adaptive_base;
  adaptive_base.reduction = ReductionMethod::kSnmAdaptive;
  adaptive_base.adaptive.strategy = ConflictStrategy::kFirst;
  struct Case {
    const char* spec;
    std::string outcome;
    DetectorConfig base = DetectorConfig();
  };
  // "ok <fingerprint of the resolved ToSpec>" or the Status text.
  const Case kCases[] = {
      {"reduction = canopy\nreduction.window = 4\n",
       "InvalidArgument: unknown parameter in plan spec (for reduction "
       "'canopy', combination 'weighted_sum', derivation "
       "'expected_similarity'): reduction.window"},
      {"reduction = snm_certain_keys\nreduction.windwo = 4\n",
       "InvalidArgument: unknown parameter in plan spec (for reduction "
       "'snm_certain_keys', combination 'weighted_sum', derivation "
       "'expected_similarity'): reduction.windwo"},
      {"reduction.windwo = 4\n",
       "InvalidArgument: unknown parameter in plan spec (for reduction "
       "'full', combination 'weighted_sum', derivation "
       "'expected_similarity'): reduction.windwo"},
      {"reduction = snm_certain_keys\nreduction.window = 2.5\n",
       "InvalidArgument: parameter 'reduction.window' is not a "
       "non-negative integer: '2.5'"},
      {"reduction = snm_certain_keys\nreduction.window = -1\n",
       "InvalidArgument: parameter 'reduction.window' is not a "
       "non-negative integer: '-1'"},
      {"classify.t_lambda = high\n",
       "InvalidArgument: parameter 'classify.t_lambda' is not a number: "
       "'high'"},
      {"reduction = canopy\nreduction.loose = 0.8x\n",
       "InvalidArgument: parameter 'reduction.loose' is not a number: "
       "'0.8x'"},
      {"prune = maybe\n",
       "InvalidArgument: parameter 'prune' is not a boolean: 'maybe'"},
      {"reduction = canopy\nreduction.conditioned = 2\n",
       "InvalidArgument: parameter 'reduction.conditioned' is not a "
       "boolean: '2'"},
      {"combination.weights = 0.8,x\n",
       "InvalidArgument: bad weight 'x' in combination.weights"},
      {"combination.weights =\n", "ok 60f98264a5d18a11"},
      {"combination = fellegi_sunter\ncombination.fs = 0.9:0.1\n",
       "InvalidArgument: bad Fellegi-Sunter attribute '0.9:0.1' in "
       "combination.fs (want m:u:agreement_threshold)"},
      {"combination = fellegi_sunter\ncombination.fs = "
       "0.9:0.1:0.8,0.8:0.2:0.7\ncombination.interpolated = true\n",
       "ok 775d7318da5d4702"},
      {"key = name\n", "InvalidArgument: key component 'name' is not attr:len"},
      {"key = name:x\n", "InvalidArgument: bad prefix length in 'name:x'"},
      {"key = name:4,job:0\n", "ok 05aa3b310e437d76"},
      {"reduction = snm_certan_keys\n",
       "InvalidArgument: unknown reduction 'snm_certan_keys'; did you "
       "mean 'snm_certain_keys'? registered: blocking_alternatives, "
       "blocking_certain_keys, blocking_clustered, "
       "blocking_multipass_worlds, canopy, full, qgram_index, "
       "snm_adaptive, snm_certain_keys, snm_multipass_worlds, "
       "snm_sorting_alternatives, snm_uncertain_ranking"},
      {"combination = weighted_summ\n",
       "InvalidArgument: unknown combination 'weighted_summ'; did you "
       "mean 'weighted_sum'? registered: fellegi_sunter, rules, "
       "weighted_sum"},
      {"derivation = max_similarty\n",
       "InvalidArgument: unknown derivation 'max_similarty'; did you mean "
       "'max_similarity'? registered: expected_matching, "
       "expected_similarity, matching_weight, max_similarity, "
       "min_similarity, mode_similarity"},
      {"reduction = snm_certain_keys\nreduction.conflict = longst\n",
       "InvalidArgument: unknown conflict strategy 'longst'; did you mean "
       "'longest'? registered: first, lex_min, longest, most_probable, "
       "shortest"},
      {"reduction = snm_uncertain_ranking\nreduction.ranking = positionl\n",
       "InvalidArgument: unknown ranking method 'positionl'; did you mean "
       "'positional'? registered: expected_rank, positional"},
      {"reduction = snm_multipass_worlds\nreduction.world_strategy = "
       "divers\n",
       "InvalidArgument: unknown world-selection strategy 'divers'; did "
       "you mean 'diverse'? registered: diverse, top_probable"},
      {"reduction = blocking_clustered\nreduction.algorithm = kmedoid\n",
       "InvalidArgument: unknown clustering algorithm 'kmedoid'; did you "
       "mean 'kmedoids'? registered: kmedoids, leader"},
      {"comparators = custom,hamming\n",
       "InvalidArgument: plan specs cannot resolve 'custom' comparators — "
       "set DetectorConfig::custom_comparators programmatically"},
      {"comparators = jaro,hammin\n", "NotFound: no comparator named 'hammin'"},
      {"reduction = canopy\nreduction.distance = custom\n",
       "InvalidArgument: plan specs cannot resolve a 'custom' "
       "reduction.distance comparator — set the option struct's "
       "comparator programmatically"},
      {"reduction = snm_adaptive\nreduction.key_comparator = jarro\n",
       "NotFound: no comparator named 'jarro'"},
      {"prepare = custom\n",
       "InvalidArgument: plan specs cannot resolve 'custom' preparation — "
       "set DetectorConfig::preparation programmatically"},
      {"reduction = canopy\nreduction.distance = overlap\n",
       "ok a6dcea6735e6c9cc"},
      {"reduction = blocking_clustered\nreduction.distance = jaro\n",
       "ok c561af8ddebe8ee1"},
      {"prepare.attributes = 2\n",
       "InvalidArgument: unknown parameter in plan spec (for reduction "
       "'full', combination 'weighted_sum', derivation "
       "'expected_similarity'): prepare.attributes"},
      {"prepare = lower,trim\nprepare.attributes = 2\n", "ok 92ce188412741623"},
      {"prune.threshold = 0.3\n", "ok a6ecba38588334cd"},
      {"shard.count = 2\n",
       "InvalidArgument: unknown parameter in plan spec (for reduction "
       "'full', combination 'weighted_sum', derivation "
       "'expected_similarity'): shard.count"},
      {"shard.count = 2\nreduction.windwo = 4\nexecutor.thread = 2\n",
       "InvalidArgument: unknown parameters in plan spec (for reduction "
       "'full', combination 'weighted_sum', derivation "
       "'expected_similarity'): executor.thread, reduction.windwo, "
       "shard.count"},
      {"executor.workers = 4\nexecutor.batch = 64\n", "ok a6ecba38588334cd"},
      {"derivation = matching_weight\nderivation.t_mu = 0.8\n",
       "ok af3b63d732904dec"},
      {"derivation.t_mu = 0.8\n",
       "InvalidArgument: unknown parameter in plan spec (for reduction "
       "'full', combination 'weighted_sum', derivation "
       "'expected_similarity'): derivation.t_mu"},
      {"reduction.max_window = 20\n",
       "ok 21d302689bb94dcb",
       adaptive_base},
  };
  for (const Case& c : kCases) {
    Result<PlanSpec> spec = PlanSpec::Parse(c.spec);
    ASSERT_TRUE(spec.ok()) << c.spec;
    Result<DetectorConfig> config = DetectorConfig::FromSpec(*spec, c.base);
    std::string outcome =
        config.ok() ? "ok " + FingerprintHex(config->ToSpec().Fingerprint())
                    : config.status().ToString();
    EXPECT_EQ(outcome, c.outcome) << c.spec;
  }
}

// FromSpec only reads the spec, so threads may share one.
TEST(TranslateTest, ConcurrentReadsOfOneSpecAgree) {
  PlanSpec spec = PlanBuilder()
                      .Reduction("canopy")
                      .Set("reduction.loose", 0.75)
                      .Set("executor.workers", 2)
                      .Build();
  Result<DetectorConfig> expected = DetectorConfig::FromSpec(spec);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const std::string text = expected->ToSpec().ToText();
  std::vector<std::string> results(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&spec, &results, t] {
      for (int i = 0; i < 50; ++i) {
        Result<DetectorConfig> config = DetectorConfig::FromSpec(spec);
        results[t] = config.ok() ? config->ToSpec().ToText()
                                 : config.status().ToString();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& result : results) EXPECT_EQ(result, text);
}

// -------------------------------------------------- compiled equivalence

TEST(CompileTest, EveryReductionCompilesFromItsRegistryName) {
  for (const std::string& name :
       ComponentRegistry::Global().ReductionNames()) {
    PlanSpec spec = PlanBuilder()
                        .AddKey("name", 3)
                        .AddKey("job", 2)
                        .Reduction(name)
                        .Weights({0.8, 0.2})
                        .Build();
    Result<std::shared_ptr<const DetectionPlan>> plan =
        DetectionPlan::Compile(spec, PaperSchema());
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    EXPECT_NE((*plan)->fingerprint(), 0u);
    // The generator resolves through the registry as well.
    EXPECT_NE((*plan)->MakePairGenerator(), nullptr);
  }
}

TEST(CompileTest, SpecAndConfigPathsDecideIdentically) {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.8, 0.2};
  config.reduction = ReductionMethod::kSnmCertainKeys;
  config.window = 4;
  Result<DuplicateDetector> from_config =
      DuplicateDetector::Make(config, PaperSchema());
  ASSERT_TRUE(from_config.ok());
  // The same plan, declaratively.
  Result<DuplicateDetector> from_spec =
      DuplicateDetector::Make(config.ToSpec(), PaperSchema());
  ASSERT_TRUE(from_spec.ok()) << from_spec.status().ToString();
  EXPECT_EQ(from_config->plan().fingerprint(),
            from_spec->plan().fingerprint());
  XRelation r34 = BuildR34();
  Result<DetectionResult> a = from_config->Run(r34);
  Result<DetectionResult> b = from_spec->Run(r34);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->decisions.size(), b->decisions.size());
  for (size_t i = 0; i < a->decisions.size(); ++i) {
    EXPECT_EQ(a->id(a->decisions[i].index1), b->id(b->decisions[i].index1));
    EXPECT_DOUBLE_EQ(a->decisions[i].similarity, b->decisions[i].similarity);
    EXPECT_EQ(a->decisions[i].match_class, b->decisions[i].match_class);
  }
  EXPECT_EQ(a->plan_fingerprint, from_config->plan().fingerprint());
}

TEST(CompileTest, FingerprintIgnoresUnreadConfigFields) {
  DetectorConfig a;
  a.key = {{"name", 3}, {"job", 2}};
  a.weights = {0.8, 0.2};
  DetectorConfig b = a;
  // Fields no selected component reads must not affect identity.
  b.canopy.loose = 0.99;
  b.window = 17;
  b.workers = 8;
  EXPECT_EQ(a.ToSpec().Fingerprint(), b.ToSpec().Fingerprint());
  // A field the plan does read must.
  DetectorConfig c = a;
  c.final_thresholds.t_mu = 0.71;
  EXPECT_NE(a.ToSpec().Fingerprint(), c.ToSpec().Fingerprint());
}

// ------------------------------------------------------------ Validate

TEST(ValidateTest, PruneThresholdRange) {
  DetectorConfig config;
  config.prune_threshold = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.prune_threshold = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config.prune_threshold = 1.0;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ValidateTest, PruneRequiresMaxLengthNormalizedComparators) {
  DetectorConfig config;
  config.prune = true;
  config.comparators = {"jaro", "hamming"};
  Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("jaro"), std::string::npos);
  config.comparators = {"levenshtein", "hamming"};
  EXPECT_TRUE(config.Validate().ok());
  config.comparators = {"default", "damerau"};
  EXPECT_TRUE(config.Validate().ok());
  // exact / exact_nocase / prefix are length-bounded too.
  config.comparators = {"exact", "prefix"};
  EXPECT_TRUE(config.Validate().ok());
  // A custom comparator instance overriding the unsound name passes
  // (soundness is then the caller's responsibility).
  config.comparators = {"jaro", "hamming"};
  ExactComparator exact;
  config.custom_comparators = {&exact, nullptr};
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ValidateTest, PruneRequiresTheWeightedSumCombination) {
  // The bound is a weighted-sum bound: under Fellegi-Sunter it pruned
  // pairs whose matching weight reaches the threshold.
  DetectorConfig config;
  config.prune = true;
  config.combination = CombinationKind::kFellegiSunter;
  config.fs_attributes = {{0.9, 0.1, 0.2}, {0.9, 0.1, 0.2}};
  Status status = config.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("fellegi_sunter"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(DetectionPlan::Compile(config, PaperSchema()).ok());
  config.prune = false;
  EXPECT_TRUE(DetectionPlan::Compile(config, PaperSchema()).ok());
}

TEST(ValidateTest, PruneRejectsNumericDefaultAtCompileTime) {
  // Validate() cannot see the schema; Compile() can, and must reject
  // the numeric_rel default (not max-length-normalized) under prune.
  Schema schema({{"name", ValueType::kString, {}},
                 {"age", ValueType::kNumeric, {}}});
  DetectorConfig config;
  config.key = {{"name", 3}};
  config.weights = {0.5, 0.5};
  config.prune = true;
  Result<std::shared_ptr<const DetectionPlan>> plan =
      DetectionPlan::Compile(config, schema);
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("numeric_rel"), std::string::npos);
  // Without prune the same plan compiles.
  config.prune = false;
  EXPECT_TRUE(DetectionPlan::Compile(config, schema).ok());
}

}  // namespace
}  // namespace pdd
