// Unit tests for the Monte-Carlo similarity estimator and incremental
// detection.

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/paper_examples.h"
#include "datagen/person_generator.h"
#include "derive/monte_carlo.h"
#include "derive/similarity_based.h"
#include "sim/edit_distance.h"

namespace pdd {
namespace {

const Comparator& Hamming() {
  static NormalizedHammingComparator cmp;
  return cmp;
}

// ------------------------------------------------------------ Monte Carlo

TEST(MonteCarloTest, ConvergesToEq6OnPaperPair) {
  TupleMatcher matcher = *TupleMatcher::Make(PaperSchema(),
                                             {&Hamming(), &Hamming()});
  WeightedSumCombination phi({0.8, 0.2});
  XTuple t32 = BuildR3().xtuple(1);
  XTuple t42 = BuildR4().xtuple(1);
  Rng rng(7);
  McOptions options;
  options.samples = 40000;
  McEstimate est = EstimateSimilarityMc(t32, t42, matcher, phi, &rng,
                                        options);
  // Eq. 6 exact value is 7/15; 40k samples pin it within a few SEs.
  EXPECT_NEAR(est.similarity, 7.0 / 15.0, 0.01);
  EXPECT_EQ(est.samples, 40000u);
  EXPECT_GT(est.standard_error, 0.0);
  EXPECT_LT(est.standard_error, 0.005);
}

TEST(MonteCarloTest, CertainPairHasZeroVariance) {
  TupleMatcher matcher = *TupleMatcher::Make(PaperSchema(),
                                             {&Hamming(), &Hamming()});
  WeightedSumCombination phi({0.8, 0.2});
  XTuple a("a", {{{Value::Certain("Tim"), Value::Certain("mechanic")}, 1.0}});
  XTuple b("b", {{{Value::Certain("Tom"), Value::Certain("mechanic")}, 1.0}});
  Rng rng(7);
  McOptions options;
  options.samples = 100;
  McEstimate est = EstimateSimilarityMc(a, b, matcher, phi, &rng, options);
  double exact = phi.Combine(matcher.CompareAlternatives(a.alternative(0),
                                                         b.alternative(0)));
  EXPECT_NEAR(est.similarity, exact, 1e-12);
  EXPECT_NEAR(est.standard_error, 0.0, 1e-12);
}

TEST(MonteCarloTest, EarlyStopOnTargetStandardError) {
  TupleMatcher matcher = *TupleMatcher::Make(PaperSchema(),
                                             {&Hamming(), &Hamming()});
  WeightedSumCombination phi({0.8, 0.2});
  XTuple t32 = BuildR3().xtuple(1);
  XTuple t42 = BuildR4().xtuple(1);
  Rng rng(7);
  McOptions options;
  options.samples = 100000;
  options.target_standard_error = 0.01;
  McEstimate est = EstimateSimilarityMc(t32, t42, matcher, phi, &rng,
                                        options);
  EXPECT_LT(est.samples, 100000u);
  EXPECT_LE(est.standard_error, 0.011);
}

TEST(MonteCarloTest, EstimateIsUnbiasedAcrossSeeds) {
  TupleMatcher matcher = *TupleMatcher::Make(PaperSchema(),
                                             {&Hamming(), &Hamming()});
  WeightedSumCombination phi({0.8, 0.2});
  XTuple t32 = BuildR3().xtuple(1);
  XTuple t42 = BuildR4().xtuple(1);
  McOptions options;
  options.samples = 2000;
  double total = 0.0;
  const int runs = 20;
  for (int seed = 0; seed < runs; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) + 1);
    total +=
        EstimateSimilarityMc(t32, t42, matcher, phi, &rng, options)
            .similarity;
  }
  EXPECT_NEAR(total / runs, 7.0 / 15.0, 0.005);
}

TEST(MonteCarloTest, DegenerateInputs) {
  TupleMatcher matcher = *TupleMatcher::Make(PaperSchema(),
                                             {&Hamming(), &Hamming()});
  WeightedSumCombination phi({0.8, 0.2});
  Rng rng(7);
  McOptions none;
  none.samples = 0;
  McEstimate est = EstimateSimilarityMc(BuildR3().xtuple(0),
                                        BuildR4().xtuple(0), matcher, phi,
                                        &rng, none);
  EXPECT_EQ(est.samples, 0u);
  EXPECT_DOUBLE_EQ(est.similarity, 0.0);
}

// ------------------------------------------------------------ incremental

DetectorConfig PersonConfig() {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.5, 0.25, 0.25};
  config.final_thresholds = {0.6, 0.8};
  return config;
}

TEST(IncrementalTest, OnlyPairsTouchingAdditionsExamined) {
  PersonGenOptions gen;
  gen.num_entities = 40;
  gen.duplicate_rate = 0.5;
  GeneratedData data = GeneratePersons(gen);
  // Split: first 80 % existing, rest additions.
  size_t split = data.relation.size() * 4 / 5;
  XRelation existing("existing", data.relation.schema());
  XRelation additions("additions", data.relation.schema());
  for (size_t i = 0; i < data.relation.size(); ++i) {
    (i < split ? existing : additions)
        .AppendUnchecked(data.relation.xtuple(i));
  }
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> incremental =
      detector->RunIncremental(existing, additions);
  ASSERT_TRUE(incremental.ok());
  for (const PairDecisionRecord& rec : incremental->decisions) {
    EXPECT_GE(rec.index2, split);  // every pair touches an addition
  }
  size_t n_new = additions.size();
  EXPECT_EQ(incremental->total_pairs,
            split * n_new + n_new * (n_new - 1) / 2);
}

TEST(IncrementalTest, AgreesWithFullRunOnSharedPairs) {
  PersonGenOptions gen;
  gen.num_entities = 30;
  gen.duplicate_rate = 0.6;
  GeneratedData data = GeneratePersons(gen);
  size_t split = data.relation.size() - 5;
  XRelation existing("existing", data.relation.schema());
  XRelation additions("additions", data.relation.schema());
  for (size_t i = 0; i < data.relation.size(); ++i) {
    (i < split ? existing : additions)
        .AppendUnchecked(data.relation.xtuple(i));
  }
  DetectorConfig config = PersonConfig();
  config.reduction = ReductionMethod::kFull;  // deterministic coverage
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PersonSchema());
  Result<DetectionResult> full = detector->Run(data.relation);
  Result<DetectionResult> incremental =
      detector->RunIncremental(existing, additions);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(incremental.ok());
  // Every incremental decision must match the full run's decision.
  for (const PairDecisionRecord& inc : incremental->decisions) {
    const std::string& id1 = incremental->id(inc.index1);
    const std::string& id2 = incremental->id(inc.index2);
    bool found = false;
    for (const PairDecisionRecord& rec : full->decisions) {
      if (full->id(rec.index1) == id1 && full->id(rec.index2) == id2) {
        found = true;
        EXPECT_NEAR(rec.similarity, inc.similarity, 1e-12);
        EXPECT_EQ(rec.match_class, inc.match_class);
      }
    }
    EXPECT_TRUE(found) << id1 << "," << id2;
  }
}

TEST(IncrementalTest, EmptyAdditionsYieldNothing) {
  XRelation existing = BuildR34();
  XRelation additions("empty", existing.schema());
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.8, 0.2};
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PaperSchema());
  Result<DetectionResult> result =
      detector->RunIncremental(existing, additions);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidate_count, 0u);
  EXPECT_EQ(result->total_pairs, 0u);
}

TEST(IncrementalTest, RejectsDuplicateIds) {
  XRelation existing = BuildR34();
  XRelation additions("dup", existing.schema());
  additions.AppendUnchecked(existing.xtuple(0));  // same id
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.8, 0.2};
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PaperSchema());
  EXPECT_FALSE(detector->RunIncremental(existing, additions).ok());
}

}  // namespace
}  // namespace pdd
