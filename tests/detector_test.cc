// Integration tests for the end-to-end DuplicateDetector public API.

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/paper_examples.h"
#include "datagen/astronomy_generator.h"
#include "datagen/person_generator.h"
#include "pdb/text_format.h"

namespace pdd {
namespace {

DetectorConfig PaperConfig() {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.8, 0.2};
  config.final_thresholds = {0.4, 0.7};
  return config;
}

TEST(DetectorConfigTest, DefaultsValidate) {
  EXPECT_TRUE(DetectorConfig{}.Validate().ok());
}

TEST(DetectorConfigTest, RejectsBadInputs) {
  DetectorConfig config;
  config.key = {};
  EXPECT_FALSE(config.Validate().ok());
  config = DetectorConfig{};
  config.reduction = ReductionMethod::kSnmCertainKeys;
  config.window = 1;
  EXPECT_FALSE(config.Validate().ok());
  config = DetectorConfig{};
  config.final_thresholds = {0.9, 0.2};
  EXPECT_FALSE(config.Validate().ok());
  config = DetectorConfig{};
  config.weights = {-1.0, 0.5};
  EXPECT_FALSE(config.Validate().ok());
  config = DetectorConfig{};
  config.combination = CombinationKind::kFellegiSunter;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(DetectorTest, MakeRejectsUnknownKeyAttribute) {
  DetectorConfig config = PaperConfig();
  config.key = {{"city", 2}};
  EXPECT_FALSE(DuplicateDetector::Make(config, PaperSchema()).ok());
}

TEST(DetectorTest, MakeRejectsUnknownComparator) {
  DetectorConfig config = PaperConfig();
  config.comparators = {"hamming", "bogus"};
  EXPECT_FALSE(DuplicateDetector::Make(config, PaperSchema()).ok());
}

TEST(DetectorTest, MakeRejectsComparatorArityMismatch) {
  DetectorConfig config = PaperConfig();
  config.comparators = {"hamming"};
  EXPECT_FALSE(DuplicateDetector::Make(config, PaperSchema()).ok());
}

TEST(DetectorTest, MakeRejectsWeightArityMismatch) {
  DetectorConfig config = PaperConfig();
  config.weights = {1.0};
  EXPECT_FALSE(DuplicateDetector::Make(config, PaperSchema()).ok());
}

TEST(DetectorTest, RunRejectsIncompatibleSchema) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PaperConfig(), PaperSchema());
  ASSERT_TRUE(detector.ok());
  XRelation other("X", Schema::Strings({"a", "b", "c"}));
  EXPECT_FALSE(detector->Run(other).ok());
}

TEST(DetectorTest, PairSimilarityMatchesPaper) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PaperConfig(), PaperSchema());
  ASSERT_TRUE(detector.ok());
  XTuple t32 = BuildR3().xtuple(1);
  XTuple t42 = BuildR4().xtuple(1);
  EXPECT_NEAR(detector->PairSimilarity(t32, t42), 7.0 / 15.0, 1e-12);
}

TEST(DetectorTest, RunOnR34FullExaminesAllPairs) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PaperConfig(), PaperSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result = detector->Run(BuildR34());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidate_count, 10u);
  EXPECT_EQ(result->total_pairs, 10u);
  EXPECT_EQ(result->decisions.size(), 10u);
  // (t31, t41) is the obvious duplicate: both mostly (John, pilot).
  bool found = false;
  for (const PairDecisionRecord& rec : result->decisions) {
    if (result->id(rec.index1) == "t31" && result->id(rec.index2) == "t41") {
      found = true;
      EXPECT_GT(rec.similarity, 0.7);
      EXPECT_EQ(rec.match_class, MatchClass::kMatch);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DetectorTest, RunOnSourcesUnions) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PaperConfig(), PaperSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result =
      detector->RunOnSources(BuildR3(), BuildR4());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total_pairs, 10u);
}

TEST(DetectorTest, MatchClassPartition) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PaperConfig(), PaperSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result = detector->Run(BuildR34());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Matches().size() + result->PossibleMatches().size() +
                result->Unmatches().size(),
            result->decisions.size());
}

TEST(DetectorTest, EveryReductionMethodRuns) {
  for (ReductionMethod method :
       {ReductionMethod::kFull, ReductionMethod::kSnmMultipassWorlds,
        ReductionMethod::kSnmCertainKeys,
        ReductionMethod::kSnmSortingAlternatives,
        ReductionMethod::kSnmUncertainRanking,
        ReductionMethod::kBlockingCertainKeys,
        ReductionMethod::kBlockingAlternatives,
        ReductionMethod::kBlockingMultipassWorlds,
        ReductionMethod::kBlockingClustered}) {
    DetectorConfig config = PaperConfig();
    config.reduction = method;
    Result<DuplicateDetector> detector =
        DuplicateDetector::Make(config, PaperSchema());
    ASSERT_TRUE(detector.ok()) << ReductionMethodName(method);
    Result<DetectionResult> result = detector->Run(BuildR34());
    ASSERT_TRUE(result.ok()) << ReductionMethodName(method);
    EXPECT_LE(result->candidate_count, 10u) << ReductionMethodName(method);
  }
}

TEST(DetectorTest, EveryDerivationKindRuns) {
  for (DerivationKind kind :
       {DerivationKind::kExpectedSimilarity, DerivationKind::kMatchingWeight,
        DerivationKind::kExpectedMatching, DerivationKind::kMaxSimilarity,
        DerivationKind::kMinSimilarity, DerivationKind::kModeSimilarity}) {
    DetectorConfig config = PaperConfig();
    config.derivation = kind;
    if (kind == DerivationKind::kMatchingWeight) {
      config.final_thresholds = {0.5, 1.0};
    }
    Result<DuplicateDetector> detector =
        DuplicateDetector::Make(config, PaperSchema());
    ASSERT_TRUE(detector.ok()) << DerivationKindName(kind);
    Result<DetectionResult> result = detector->Run(BuildR34());
    ASSERT_TRUE(result.ok()) << DerivationKindName(kind);
  }
}

TEST(DetectorTest, CustomComparatorsOverrideNames) {
  // A constant-zero comparator on the name attribute must kill every
  // similarity contribution from it.
  class ZeroComparator : public Comparator {
   public:
    double Compare(std::string_view, std::string_view) const override {
      return 0.0;
    }
    std::string name() const override { return "zero"; }
  };
  static ZeroComparator zero;
  DetectorConfig config = PaperConfig();
  config.weights = {1.0, 0.0};  // only the name attribute counts
  config.custom_comparators = {&zero, nullptr};
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PaperSchema());
  ASSERT_TRUE(detector.ok()) << detector.status().ToString();
  Result<DetectionResult> result = detector->Run(BuildR34());
  ASSERT_TRUE(result.ok());
  for (const PairDecisionRecord& rec : result->decisions) {
    EXPECT_DOUBLE_EQ(rec.similarity, 0.0)
        << result->id(rec.index1) << "," << result->id(rec.index2);
  }
}

TEST(DetectorTest, CustomComparatorArityMismatchRejected) {
  DetectorConfig config = PaperConfig();
  static ExactComparator exact;
  config.custom_comparators = {&exact};
  EXPECT_FALSE(DuplicateDetector::Make(config, PaperSchema()).ok());
}

TEST(DetectorTest, FellegiSunterCombination) {
  DetectorConfig config = PaperConfig();
  config.combination = CombinationKind::kFellegiSunter;
  config.fs_attributes = {{0.9, 0.1, 0.8}, {0.85, 0.15, 0.6}};
  config.derivation = DerivationKind::kExpectedSimilarity;
  // Matching-weight scale thresholds.
  config.final_thresholds = {0.5, 5.0};
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PaperSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result = detector->Run(BuildR34());
  ASSERT_TRUE(result.ok());
  // (t31, t41) should still surface as the strongest pair.
  double best_sim = 0.0;
  std::string best_pair;
  for (const PairDecisionRecord& rec : result->decisions) {
    if (rec.similarity > best_sim) {
      best_sim = rec.similarity;
      best_pair = result->id(rec.index1) + "-" + result->id(rec.index2);
    }
  }
  EXPECT_EQ(best_pair, "t31-t41");
}

TEST(DetectorTest, FellegiSunterInterpolatedOption) {
  DetectorConfig config = PaperConfig();
  config.combination = CombinationKind::kFellegiSunter;
  config.fs_attributes = {{0.9, 0.1, 0.8}, {0.85, 0.15, 0.6}};
  config.fs_interpolated = true;
  config.final_thresholds = {0.5, 5.0};
  Result<DuplicateDetector> interpolated =
      DuplicateDetector::Make(config, PaperSchema());
  ASSERT_TRUE(interpolated.ok());
  config.fs_interpolated = false;
  Result<DuplicateDetector> binarized =
      DuplicateDetector::Make(config, PaperSchema());
  ASSERT_TRUE(binarized.ok());
  // The two weight styles must differ on a pair with continuous partial
  // agreement (t32 vs t42: name similarities strictly between the
  // agreement thresholds).
  XTuple t32 = BuildR3().xtuple(1);
  XTuple t42 = BuildR4().xtuple(1);
  EXPECT_NE(interpolated->PairSimilarity(t32, t42),
            binarized->PairSimilarity(t32, t42));
}

TEST(DetectorTest, EvaluateAgainstGold) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PaperConfig(), PaperSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result = detector->Run(BuildR34());
  ASSERT_TRUE(result.ok());
  GoldStandard gold;
  gold.AddMatch("t31", "t41");
  EffectivenessMetrics m = Evaluate(*result, gold);
  EXPECT_GT(m.recall, 0.99);  // t31-t41 is found
  EXPECT_GT(m.precision, 0.0);
  ReductionMetrics r = EvaluateReduction(*result, gold);
  EXPECT_DOUBLE_EQ(r.reduction_ratio, 0.0);  // full pairs
  EXPECT_DOUBLE_EQ(r.pairs_completeness, 1.0);
}

TEST(DetectorTest, EvaluateCountsPrunedGoldAsFalseNegatives) {
  DetectorConfig config = PaperConfig();
  config.reduction = ReductionMethod::kBlockingCertainKeys;
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PaperSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result = detector->Run(BuildR34());
  ASSERT_TRUE(result.ok());
  GoldStandard gold;
  gold.AddMatch("t31", "t41");
  gold.AddMatch("t32", "t42");  // pruned by certain-key blocking
  EffectivenessMetrics m = Evaluate(*result, gold);
  EXPECT_NEAR(m.recall, 0.5, 1e-12);
  ReductionMetrics r = EvaluateReduction(*result, gold);
  EXPECT_NEAR(r.pairs_completeness, 0.5, 1e-12);
}

TEST(DetectorTest, PruningPreservesDecisionsAboveThreshold) {
  PersonGenOptions gen;
  gen.num_entities = 50;
  gen.duplicate_rate = 0.6;
  GeneratedData data = GeneratePersons(gen);
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.5, 0.25, 0.25};
  config.final_thresholds = {0.6, 0.8};
  Result<DuplicateDetector> plain =
      DuplicateDetector::Make(config, PersonSchema());
  config.prune = true;
  config.prune_threshold = 0.6;
  Result<DuplicateDetector> pruned =
      DuplicateDetector::Make(config, PersonSchema());
  Result<DetectionResult> plain_result = plain->Run(data.relation);
  Result<DetectionResult> pruned_result = pruned->Run(data.relation);
  ASSERT_TRUE(plain_result.ok());
  ASSERT_TRUE(pruned_result.ok());
  EXPECT_LE(pruned_result->candidate_count, plain_result->candidate_count);
  // Every match and possible match of the plain run survives pruning
  // (the bound is sound for the default hamming comparators).
  std::vector<IdPair> plain_matches = plain_result->Matches();
  std::vector<IdPair> pruned_matches = pruned_result->Matches();
  EXPECT_EQ(plain_matches, pruned_matches);
  EXPECT_EQ(plain_result->PossibleMatches(),
            pruned_result->PossibleMatches());
}

TEST(DetectorTest, PruningBoundsPatternsByTheirExpansions) {
  // b's job "mu*" expands to musician, a's job. Bounded by its stored
  // prefix "mu", the pair would read 0.5·3/7 + 0.5·2/8 < Tλ and drop.
  Result<XRelation> rel = ParseXRelation(
      "relation R\n"
      "schema name:string, job:string\n"
      "vocab job machinist, mechanic, musician\n"
      "tuple a\nalt 1 | Timothy ; musician\n"
      "tuple b\nalt 1 | Tim ; mu*\n"
      "tuple c\nalt 1 | Tom ; machinist\n");
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  DetectorConfig config;
  config.weights = {0.5, 0.5};
  std::vector<IdPair> matches;
  for (bool prune : {false, true}) {
    config.prune = prune;
    Result<DuplicateDetector> detector =
        DuplicateDetector::Make(config, rel->schema());
    ASSERT_TRUE(detector.ok()) << detector.status().ToString();
    Result<DetectionResult> result = detector->Run(*rel);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!prune) matches = result->Matches();
    EXPECT_EQ(result->Matches(), matches) << "prune " << prune;
  }
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0], IdPair("a", "b"));
}

TEST(DetectorTest, EndToEndOnSyntheticPersons) {
  PersonGenOptions gen;
  gen.num_entities = 40;
  gen.duplicate_rate = 0.8;
  gen.errors.char_error_rate = 0.02;
  GeneratedData data = GeneratePersons(gen);
  DetectorConfig config;
  config.key = {{"name", 3}, {"city", 2}};
  config.weights = {0.5, 0.3, 0.2};
  config.final_thresholds = {0.6, 0.8};
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result = detector->Run(data.relation);
  ASSERT_TRUE(result.ok());
  EffectivenessMetrics m = Evaluate(*result, data.gold);
  // Clean-ish data: the pipeline must beat trivial baselines clearly.
  EXPECT_GT(m.recall, 0.5);
  EXPECT_GT(m.precision, 0.5);
}

TEST(DetectorTest, TelescopeCrossMatchEndToEnd) {
  // The paper's motivating scenario: link two telescope catalogs.
  AstroGenOptions gen;
  gen.num_objects = 120;
  gen.detection_prob = 0.9;
  GeneratedSources sources = GenerateTelescopeSources(gen);
  DetectorConfig config;
  config.key = {{"ra", 4}, {"dec", 3}};
  config.reduction = ReductionMethod::kSnmSortingAlternatives;
  config.window = 8;
  config.comparators = {"numeric", "numeric", "numeric_rel"};
  config.weights = {0.4, 0.4, 0.2};
  config.final_thresholds = {0.85, 0.95};
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, TelescopeSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result =
      detector->RunOnSources(sources.source1, sources.source2);
  ASSERT_TRUE(result.ok());
  EffectivenessMetrics m = Evaluate(*result, sources.gold);
  EXPECT_GT(m.recall, 0.9);
  EXPECT_GT(m.precision, 0.95);
}

TEST(DetectorTest, ReductionTradesCompletenessForSpeed) {
  PersonGenOptions gen;
  gen.num_entities = 60;
  gen.duplicate_rate = 0.6;
  GeneratedData data = GeneratePersons(gen);
  DetectorConfig full_config;
  full_config.key = {{"name", 3}, {"job", 2}};
  full_config.weights = {0.5, 0.3, 0.2};
  Result<DuplicateDetector> full =
      DuplicateDetector::Make(full_config, PersonSchema());
  ASSERT_TRUE(full.ok());
  DetectorConfig snm_config = full_config;
  snm_config.reduction = ReductionMethod::kSnmUncertainRanking;
  snm_config.window = 5;
  Result<DuplicateDetector> snm =
      DuplicateDetector::Make(snm_config, PersonSchema());
  ASSERT_TRUE(snm.ok());
  Result<DetectionResult> full_result = full->Run(data.relation);
  Result<DetectionResult> snm_result = snm->Run(data.relation);
  ASSERT_TRUE(full_result.ok());
  ASSERT_TRUE(snm_result.ok());
  EXPECT_LT(snm_result->candidate_count, full_result->candidate_count);
  ReductionMetrics r = EvaluateReduction(*snm_result, data.gold);
  EXPECT_GT(r.reduction_ratio, 0.5);
}

}  // namespace
}  // namespace pdd
