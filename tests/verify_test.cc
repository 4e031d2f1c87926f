// Unit tests for verification metrics (Section III-E), gold standards
// and gold evaluation of detection results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/detector.h"
#include "core/threshold_tuner.h"
#include "datagen/person_generator.h"
#include "verify/gold_io.h"
#include "verify/gold_standard.h"
#include "verify/metrics.h"
#include "verify/similarity_histogram.h"

namespace pdd {
namespace {

TEST(EffectivenessTest, PerfectClassifier) {
  EffectivenessMetrics m =
      ComputeEffectiveness({.true_positives = 10,
                            .false_positives = 0,
                            .false_negatives = 0,
                            .true_negatives = 90});
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
  EXPECT_DOUBLE_EQ(m.f1, 1.0);
  EXPECT_DOUBLE_EQ(m.false_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(m.false_negative_rate, 0.0);
  EXPECT_DOUBLE_EQ(m.accuracy, 1.0);
}

TEST(EffectivenessTest, MixedCounts) {
  EffectivenessMetrics m =
      ComputeEffectiveness({.true_positives = 6,
                            .false_positives = 2,
                            .false_negatives = 4,
                            .true_negatives = 88});
  EXPECT_NEAR(m.precision, 0.75, 1e-12);
  EXPECT_NEAR(m.recall, 0.6, 1e-12);
  EXPECT_NEAR(m.f1, 2.0 * 0.75 * 0.6 / 1.35, 1e-12);
  EXPECT_NEAR(m.false_positive_rate, 2.0 / 90.0, 1e-12);
  EXPECT_NEAR(m.false_negative_rate, 0.4, 1e-12);
  EXPECT_NEAR(m.accuracy, 0.94, 1e-12);
}

TEST(EffectivenessTest, NothingPredictedNothingToFind) {
  EffectivenessMetrics m = ComputeEffectiveness(
      {.true_positives = 0, .false_positives = 0, .false_negatives = 0,
       .true_negatives = 10});
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
}

TEST(EffectivenessTest, NothingPredictedButMatchesExist) {
  EffectivenessMetrics m = ComputeEffectiveness(
      {.true_positives = 0, .false_positives = 0, .false_negatives = 5,
       .true_negatives = 10});
  EXPECT_DOUBLE_EQ(m.precision, 0.0);
  EXPECT_DOUBLE_EQ(m.recall, 0.0);
  EXPECT_DOUBLE_EQ(m.f1, 0.0);
  EXPECT_DOUBLE_EQ(m.false_negative_rate, 1.0);
}

TEST(EffectivenessTest, ToStringMentionsAllMetrics) {
  EffectivenessMetrics m = ComputeEffectiveness(
      {.true_positives = 1, .false_positives = 1, .false_negatives = 1,
       .true_negatives = 1});
  std::string s = m.ToString();
  EXPECT_NE(s.find("P=0.5"), std::string::npos);
  EXPECT_NE(s.find("R=0.5"), std::string::npos);
  EXPECT_NE(s.find("F1=0.5"), std::string::npos);
}

TEST(ReductionMetricsTest, FullSearchSpace) {
  ReductionMetrics m = ComputeReduction(100, 100, 10, 10);
  EXPECT_DOUBLE_EQ(m.reduction_ratio, 0.0);
  EXPECT_DOUBLE_EQ(m.pairs_completeness, 1.0);
  EXPECT_NEAR(m.pairs_quality, 0.1, 1e-12);
}

TEST(ReductionMetricsTest, AggressiveReduction) {
  ReductionMetrics m = ComputeReduction(10, 1000, 8, 10);
  EXPECT_NEAR(m.reduction_ratio, 0.99, 1e-12);
  EXPECT_NEAR(m.pairs_completeness, 0.8, 1e-12);
  EXPECT_NEAR(m.pairs_quality, 0.8, 1e-12);
}

TEST(ReductionMetricsTest, DegenerateDenominators) {
  ReductionMetrics no_gold = ComputeReduction(10, 100, 0, 0);
  EXPECT_DOUBLE_EQ(no_gold.pairs_completeness, 1.0);
  ReductionMetrics no_candidates = ComputeReduction(0, 100, 0, 5);
  EXPECT_DOUBLE_EQ(no_candidates.pairs_quality, 0.0);
  EXPECT_DOUBLE_EQ(no_candidates.reduction_ratio, 1.0);
}

TEST(GoldStandardTest, AddAndQuery) {
  GoldStandard gold;
  gold.AddMatch("a", "b");
  EXPECT_TRUE(gold.IsMatch("a", "b"));
  EXPECT_TRUE(gold.IsMatch("b", "a"));
  EXPECT_FALSE(gold.IsMatch("a", "c"));
  EXPECT_EQ(gold.size(), 1u);
}

TEST(GoldStandardTest, IdempotentAndSelfPairFree) {
  GoldStandard gold;
  gold.AddMatch("a", "b");
  gold.AddMatch("b", "a");
  gold.AddMatch("a", "a");
  EXPECT_EQ(gold.size(), 1u);
  EXPECT_FALSE(gold.IsMatch("a", "a"));
}

TEST(GoldStandardTest, PairsAreCanonical) {
  GoldStandard gold;
  gold.AddMatch("z", "a");
  std::vector<IdPair> pairs = gold.Pairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].first, "a");
  EXPECT_EQ(pairs[0].second, "z");
}

TEST(GoldStandardTest, CountCovered) {
  GoldStandard gold;
  gold.AddMatch("a", "b");
  gold.AddMatch("c", "d");
  std::vector<IdPair> candidates = {MakeIdPair("b", "a"),
                                    MakeIdPair("a", "c"),
                                    MakeIdPair("d", "c")};
  EXPECT_EQ(gold.CountCovered(candidates), 2u);
}

TEST(ResolvedGoldTest, EqualsIsMatchForEveryIndexPair) {
  GoldStandard gold;
  gold.AddMatch("a", "b");
  gold.AddMatch("c", "b");      // recorded against id order
  gold.AddMatch("a", "ghost");  // one id absent from the table
  gold.AddMatch("x", "y");      // both absent
  // "a" names two tuples; "d" has no gold partner.
  std::vector<std::string> ids = {"b", "a", "d", "c", "a"};
  ResolvedGold resolved(gold, &ids);
  for (uint32_t i = 0; i < ids.size(); ++i) {
    for (uint32_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(resolved.IsMatch(i, j), gold.IsMatch(ids[i], ids[j]))
          << i << "," << j;
    }
  }
  EXPECT_FALSE(resolved.IsMatch(1, 9));  // past the table
  EXPECT_FALSE(ResolvedGold(gold, nullptr).IsMatch(0, 1));
  EXPECT_FALSE(ResolvedGold(GoldStandard(), &ids).IsMatch(0, 1));
}

// --------------------------------------------- gold evaluation of results

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameMetrics(const EffectivenessMetrics& a,
                       const EffectivenessMetrics& b) {
  EXPECT_EQ(Bits(a.precision), Bits(b.precision));
  EXPECT_EQ(Bits(a.recall), Bits(b.recall));
  EXPECT_EQ(Bits(a.f1), Bits(b.f1));
  EXPECT_EQ(Bits(a.false_positive_rate), Bits(b.false_positive_rate));
  EXPECT_EQ(Bits(a.false_negative_rate), Bits(b.false_negative_rate));
  EXPECT_EQ(Bits(a.accuracy), Bits(b.accuracy));
}

// Effectiveness by definition from per-pair (predicted, actual) outcomes;
// gold pairs never examined are false negatives.
EffectivenessMetrics ReferenceEffectiveness(
    const std::vector<std::pair<bool, bool>>& outcomes, size_t total_pairs,
    size_t gold_size) {
  ConfusionCounts counts;
  size_t gold_examined = 0;
  for (const auto& [predicted, actual] : outcomes) {
    gold_examined += actual ? 1 : 0;
    if (predicted) {
      ++(actual ? counts.true_positives : counts.false_positives);
    } else if (actual) {
      ++counts.false_negatives;
    }
  }
  counts.false_negatives += gold_size - gold_examined;
  counts.true_negatives = total_pairs - counts.true_positives -
                          counts.false_positives - counts.false_negatives;
  return ComputeEffectiveness(counts);
}

// Evaluate, EvaluateReduction and TuneThresholds against references that
// call GoldStandard::IsMatch once per record.
void ExpectEvaluationMatchesReference(const DetectionResult& result,
                                      const GoldStandard& gold) {
  std::vector<bool> actual;
  for (const PairDecisionRecord& rec : result.decisions) {
    actual.push_back(
        gold.IsMatch(result.id(rec.index1), result.id(rec.index2)));
  }

  for (bool possible_counts : {false, true}) {
    std::vector<std::pair<bool, bool>> outcomes;
    for (size_t i = 0; i < result.decisions.size(); ++i) {
      MatchClass c = result.decisions[i].match_class;
      outcomes.emplace_back(
          c == MatchClass::kMatch ||
              (possible_counts && c == MatchClass::kPossible),
          actual[i]);
    }
    ExpectSameMetrics(Evaluate(result, gold, possible_counts),
                      ReferenceEffectiveness(outcomes, result.total_pairs,
                                             gold.size()));
  }

  size_t covered = std::count(actual.begin(), actual.end(), true);
  ReductionMetrics reduction = EvaluateReduction(result, gold);
  ReductionMetrics expected = ComputeReduction(
      result.candidate_count, result.total_pairs, covered, gold.size());
  EXPECT_EQ(Bits(reduction.reduction_ratio), Bits(expected.reduction_ratio));
  EXPECT_EQ(Bits(reduction.pairs_completeness),
            Bits(expected.pairs_completeness));
  EXPECT_EQ(Bits(reduction.pairs_quality), Bits(expected.pairs_quality));

  // With every candidate kept, sweep point k declares the k-th shortest
  // prefix (by descending similarity) that ends at a distinct value,
  // starting from the empty one; the best point is the first with the
  // highest F1.
  std::vector<std::pair<double, bool>> ranked;
  for (size_t i = 0; i < result.decisions.size(); ++i) {
    ASSERT_TRUE(std::isfinite(result.decisions[i].similarity));
    ranked.emplace_back(result.decisions[i].similarity, actual[i]);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  TuneOptions every_candidate;
  every_candidate.max_candidates = 0;
  TuneResult tuned = TuneThresholds(result, gold, every_candidate);
  std::vector<EffectivenessMetrics> sweep;
  for (size_t prefix = 0; prefix <= ranked.size(); ++prefix) {
    if (prefix > 0 && prefix < ranked.size() &&
        ranked[prefix].first == ranked[prefix - 1].first) {
      continue;
    }
    std::vector<std::pair<bool, bool>> outcomes;
    for (size_t i = 0; i < ranked.size(); ++i) {
      outcomes.emplace_back(i < prefix, ranked[i].second);
    }
    sweep.push_back(
        ReferenceEffectiveness(outcomes, result.total_pairs, gold.size()));
  }
  ASSERT_EQ(tuned.sweep.size(), sweep.size());
  size_t best = 0;
  for (size_t k = 0; k < sweep.size(); ++k) {
    ExpectSameMetrics(tuned.sweep[k].metrics, sweep[k]);
    if (sweep[k].f1 > sweep[best].f1) best = k;
  }
  ExpectSameMetrics(tuned.best_metrics, sweep[best]);
  EXPECT_EQ(Bits(tuned.best.t_mu), Bits(tuned.sweep[best].t_mu));
}

TEST(GoldEvaluationTest, IndexSpaceEvaluationEqualsPerRecordIsMatch) {
  PersonGenOptions gen;
  gen.num_entities = 60;
  gen.duplicate_rate = 0.8;
  GeneratedData data = GeneratePersons(gen);
  GoldStandard gold = data.gold;
  const XRelation& rel = data.relation;
  gold.AddMatch("ghost-1", "ghost-2");           // both ids absent
  gold.AddMatch(rel.xtuple(0).id(), "ghost-3");  // one id absent
  for (size_t k = 0; k + 9 < rel.size(); k += 9) {
    gold.AddMatch(rel.xtuple(k + 9).id(), rel.xtuple(k).id());
  }

  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.5, 0.25, 0.25};
  config.final_thresholds = {0.5, 0.9};
  config.reduction = ReductionMethod::kSnmCertainKeys;  // prunes gold
  config.window = 4;
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(detector.ok()) << detector.status().ToString();
  Result<DetectionResult> result = detector->Run(rel);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->decisions.empty());
  ExpectEvaluationMatchesReference(*result, gold);

  // Records may name their pair in either index orientation.
  DetectionResult swapped = *result;
  for (size_t i = 0; i < swapped.decisions.size(); i += 2) {
    std::swap(swapped.decisions[i].index1, swapped.decisions[i].index2);
  }
  SCOPED_TRACE("swapped orientation");
  ExpectEvaluationMatchesReference(swapped, gold);
}

TEST(MakeIdPairTest, OrdersEndpoints) {
  IdPair p = MakeIdPair("t43", "t31");
  EXPECT_EQ(p.first, "t31");
  EXPECT_EQ(p.second, "t43");
}

TEST(GoldIoTest, RoundTrip) {
  GoldStandard gold;
  gold.AddMatch("t31", "t41");
  gold.AddMatch("b", "a");
  std::string text = SerializeGoldStandard(gold);
  Result<GoldStandard> parsed = ParseGoldStandard(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);
  EXPECT_TRUE(parsed->IsMatch("t41", "t31"));
  EXPECT_TRUE(parsed->IsMatch("a", "b"));
}

TEST(GoldIoTest, ParsesCommentsAndWhitespace) {
  Result<GoldStandard> parsed = ParseGoldStandard(
      "# header\n"
      "\n"
      "  a , b  \n"
      "c,d\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);
  EXPECT_TRUE(parsed->IsMatch("a", "b"));
}

TEST(GoldIoTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseGoldStandard("a,b,c\n").ok());
  EXPECT_FALSE(ParseGoldStandard("loner\n").ok());
  EXPECT_FALSE(ParseGoldStandard("a,\n").ok());
  Result<GoldStandard> bad = ParseGoldStandard("a,b\nbroken\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

TEST(GoldIoTest, EmptyInputIsEmptyGold) {
  Result<GoldStandard> parsed = ParseGoldStandard("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 0u);
}

TEST(SimilarityHistogramTest, BucketsObservations) {
  SimilarityHistogram hist(10);
  hist.AddAll({0.05, 0.05, 0.95, 0.5});
  EXPECT_EQ(hist.total(), 4u);
  EXPECT_EQ(hist.bucket(0), 2u);  // [0.0, 0.1)
  EXPECT_EQ(hist.bucket(5), 1u);  // [0.5, 0.6)
  EXPECT_EQ(hist.bucket(9), 1u);  // [0.9, 1.0]
}

TEST(SimilarityHistogramTest, ClampsOutOfRange) {
  SimilarityHistogram hist(4);
  hist.Add(-1.0);
  hist.Add(2.0);
  EXPECT_EQ(hist.bucket(0), 1u);
  EXPECT_EQ(hist.bucket(3), 1u);
}

TEST(SimilarityHistogramTest, BucketEdges) {
  SimilarityHistogram hist(4);
  EXPECT_DOUBLE_EQ(hist.BucketLow(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.BucketLow(2), 0.5);
  EXPECT_DOUBLE_EQ(hist.BucketLow(4), 1.0);
  // Exactly 1.0 lands in the last bucket, not past it.
  hist.Add(1.0);
  EXPECT_EQ(hist.bucket(3), 1u);
}

TEST(SimilarityHistogramTest, AsciiRendering) {
  SimilarityHistogram hist(2);
  hist.AddAll({0.1, 0.2, 0.9});
  std::string s = hist.ToString(10);
  EXPECT_NE(s.find("##########| 2"), std::string::npos);
  EXPECT_NE(s.find("| 1"), std::string::npos);
}

TEST(SimilarityHistogramTest, EmptyHistogramRenders) {
  SimilarityHistogram hist(3);
  std::string s = hist.ToString();
  EXPECT_EQ(hist.total(), 0u);
  EXPECT_NE(s.find("| 0"), std::string::npos);
}

}  // namespace
}  // namespace pdd
