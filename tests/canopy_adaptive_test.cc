// Unit tests for the canopy and adaptive-SNM reduction methods, the
// key-distribution table behind canopy and clustered blocking, and the
// detector-integrated data preparation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "core/detector.h"
#include "core/paper_examples.h"
#include "datagen/person_generator.h"
#include "plan/plan_spec.h"
#include "reduction/blocking_clustered.h"
#include "reduction/canopy.h"
#include "reduction/full_pairs.h"
#include "reduction/snm_adaptive.h"
#include "sim/edit_distance.h"
#include "sim/registry.h"

namespace pdd {
namespace {

constexpr size_t kT31 = 0, kT32 = 1, kT41 = 2, kT42 = 3, kT43 = 4;

// ------------------------------------------------------------------ canopy

TEST(CanopyTest, EveryTupleLandsInSomeCanopy) {
  CanopyOptions options;
  CanopyReduction canopy(PaperSortingKey(), options);
  XRelation r34 = BuildR34();
  std::vector<std::vector<size_t>> canopies = canopy.Canopies(r34);
  std::vector<bool> seen(r34.size(), false);
  for (const auto& c : canopies) {
    EXPECT_FALSE(c.empty());
    for (size_t i : c) seen[i] = true;
  }
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_TRUE(seen[i]) << i;
}

TEST(CanopyTest, OverlappingKeysShareACanopy) {
  // t31 {Johpi .7, Johmu .3} and t41 {Johpi 1.0}: overlap distance 0.3.
  CanopyOptions options;
  options.loose = 0.5;
  options.tight = 0.2;
  CanopyReduction canopy(PaperSortingKey(), options);
  Result<std::vector<CandidatePair>> pairs = canopy.Generate(BuildR34());
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(ContainsPair(*pairs, MakePair(kT31, kT41)));
}

TEST(CanopyTest, LooseThresholdOneComparesEverything) {
  CanopyOptions options;
  options.loose = 1.0;
  options.tight = 1.0;
  CanopyReduction canopy(PaperSortingKey(), options);
  XRelation r34 = BuildR34();
  Result<std::vector<CandidatePair>> pairs = canopy.Generate(r34);
  ASSERT_TRUE(pairs.ok());
  FullPairs full;
  EXPECT_EQ(pairs->size(), full.Generate(r34)->size());
}

TEST(CanopyTest, TightAboveLooseRejected) {
  CanopyOptions options;
  options.loose = 0.3;
  options.tight = 0.8;
  CanopyReduction canopy(PaperSortingKey(), options);
  EXPECT_FALSE(canopy.Generate(BuildR34()).ok());
}

TEST(CanopyTest, ExpectedKeyDistanceFindsNearKeys) {
  // With the soft distance, Joh-prefixed keys cluster even without
  // identical key strings.
  NormalizedHammingComparator hamming;
  CanopyOptions options;
  options.comparator = &hamming;
  options.loose = 0.5;
  options.tight = 0.3;
  CanopyReduction canopy(PaperSortingKey(), options);
  Result<std::vector<CandidatePair>> pairs = canopy.Generate(BuildR34());
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(ContainsPair(*pairs, MakePair(kT31, kT41)));
}

TEST(CanopyTest, SubsetOfFullPairs) {
  PersonGenOptions gen;
  gen.num_entities = 30;
  GeneratedData data = GeneratePersons(gen);
  KeySpec spec = *KeySpec::FromNames({{"name", 3}, {"job", 2}},
                                     PersonSchema());
  CanopyReduction canopy(spec, CanopyOptions{});
  Result<std::vector<CandidatePair>> pairs = canopy.Generate(data.relation);
  ASSERT_TRUE(pairs.ok());
  FullPairs full;
  Result<std::vector<CandidatePair>> all = full.Generate(data.relation);
  for (const CandidatePair& p : *pairs) {
    EXPECT_TRUE(ContainsPair(*all, p));
  }
}

// ---------------------------------------- canopy / clustered differential

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// A person relation with ⊥ mass in key components and maybe x-tuples.
XRelation UncertainPersons(size_t entities) {
  PersonGenOptions gen;
  gen.num_entities = entities;
  gen.duplicate_rate = 0.7;
  gen.uncertainty.null_mass_prob = 0.5;
  gen.uncertainty.maybe_prob = 0.3;
  gen.seed = 17;
  return GeneratePersons(gen).relation;
}

KeySpec PersonKey() {
  return *KeySpec::FromNames({{"name", 3}, {"job", 2}}, PersonSchema());
}

std::vector<KeyDistribution> Distributions(const XRelation& rel,
                                           bool conditioned) {
  KeyBuilder builder(PersonKey(), &rel.schema());
  std::vector<KeyDistribution> dists;
  for (const XTuple& t : rel.xtuples()) {
    dists.push_back(builder.DistributionFor(t, conditioned));
  }
  return dists;
}

double FreeDistance(const KeyDistribution& a, const KeyDistribution& b,
                    const Comparator* cmp) {
  return cmp != nullptr ? ExpectedKeyDistance(a, b, *cmp)
                        : OverlapDistance(a, b);
}

// The canopy definition, O(n²) over the free distance functions: every
// unconsumed tuple is scored against every center.
std::vector<std::vector<size_t>> BruteForceCanopies(
    const std::vector<KeyDistribution>& dists, const CanopyOptions& o) {
  double tight = std::min(o.tight, o.loose);
  std::vector<bool> removed(dists.size(), false);
  std::vector<std::vector<size_t>> canopies;
  for (size_t center = 0; center < dists.size(); ++center) {
    if (removed[center]) continue;
    removed[center] = true;
    std::vector<size_t> canopy = {center};
    for (size_t i = 0; i < dists.size(); ++i) {
      if (i == center || removed[i]) continue;
      double d = FreeDistance(dists[center], dists[i], o.comparator);
      if (d <= o.loose) {
        canopy.push_back(i);
        if (d <= tight) removed[i] = true;
      }
    }
    canopies.push_back(std::move(canopy));
  }
  return canopies;
}

TEST(CanopyDifferentialTest, RelationHasNullKeyMassAndMaybeTuples) {
  XRelation rel = UncertainPersons(40);
  bool null_key_mass = false, maybe = false;
  for (const XTuple& t : rel.xtuples()) {
    maybe |= t.existence_probability() < 1.0;
    for (const AltTuple& alt : t.alternatives()) {
      null_key_mass |= alt.values[0].null_probability() > 0.0 ||
                       alt.values[1].null_probability() > 0.0;
    }
  }
  EXPECT_TRUE(null_key_mass);
  EXPECT_TRUE(maybe);
}

TEST(CanopyDifferentialTest, CanopiesEqualBruteForceAcrossTheGrid) {
  XRelation rel = UncertainPersons(40);
  const Comparator* levenshtein = *GetComparator("levenshtein");
  size_t overlapping = 0;  // grid points with a multi-member canopy
  for (bool conditioned : {false, true}) {
    std::vector<KeyDistribution> dists = Distributions(rel, conditioned);
    for (const Comparator* cmp : {static_cast<const Comparator*>(nullptr),
                                  levenshtein}) {
      for (double loose : {0.3, 0.7, std::nextafter(1.0, 0.0), 1.0, 1.5}) {
        for (double tight : {0.0, 0.4, loose}) {
          CanopyOptions options;
          options.loose = loose;
          options.tight = tight;
          options.comparator = cmp;
          options.conditioned = conditioned;
          std::vector<std::vector<size_t>> canopies =
              CanopyReduction(PersonKey(), options).Canopies(rel);
          EXPECT_EQ(canopies, BruteForceCanopies(dists, options))
              << "conditioned=" << conditioned
              << " distance=" << (cmp == nullptr ? "overlap" : cmp->name())
              << " loose=" << loose << " tight=" << tight;
          for (const std::vector<size_t>& canopy : canopies) {
            if (canopy.size() > 1 && canopy.size() < rel.size()) {
              ++overlapping;
              break;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(overlapping, 0u);
}

TEST(CanopyDifferentialTest, ClustersEqualClusteringOverFreeDistances) {
  XRelation rel = UncertainPersons(40);
  const Comparator* levenshtein = *GetComparator("levenshtein");
  for (bool conditioned : {false, true}) {
    std::vector<KeyDistribution> dists = Distributions(rel, conditioned);
    for (const Comparator* cmp : {static_cast<const Comparator*>(nullptr),
                                  levenshtein}) {
      DistanceFn reference = [&](size_t a, size_t b) {
        return FreeDistance(dists[a], dists[b], cmp);
      };
      ClusteredBlockingOptions options;
      options.comparator = cmp;
      options.conditioned = conditioned;
      for (double threshold : {0.3, 0.7, 1.0}) {
        options.algorithm = ClusteredBlockingOptions::Algorithm::kLeader;
        options.leader_threshold = threshold;
        EXPECT_EQ(BlockingClustered(PersonKey(), options).Clusters(rel),
                  LeaderClustering(rel.size(), reference, threshold))
            << "leader conditioned=" << conditioned << " threshold="
            << threshold;
      }
      options.algorithm = ClusteredBlockingOptions::Algorithm::kKMedoids;
      options.kmedoids.k = 4;
      options.kmedoids.max_iterations = 3;
      EXPECT_EQ(BlockingClustered(PersonKey(), options).Clusters(rel),
                KMedoids(rel.size(), reference, options.kmedoids))
          << "k-medoids conditioned=" << conditioned;
    }
  }
}

TEST(KeyDistributionTableTest, DistancesAreBitEqualToTheFreeFunctions) {
  XRelation rel = UncertainPersons(12);
  const Comparator* levenshtein = *GetComparator("levenshtein");
  for (bool conditioned : {false, true}) {
    std::vector<KeyDistribution> dists = Distributions(rel, conditioned);
    // Hand-made shapes the builder never emits: repeated keys (summed
    // in entry order), zero and empty mass, the ⊥-only key "".
    dists.push_back({{{"ab", 0.1}, {"cd", 0.3}, {"ab", 0.2}}});
    dists.push_back({{{"ab", 0.3}, {"ab", 0.3}, {"ab", 0.4}}});
    dists.push_back({{{"ab", 0.0}}});
    dists.push_back({});
    dists.push_back({{{"cd", 0.25}, {"", 0.25}}});
    KeyDistributionTable table(dists);
    std::vector<size_t> sharing;
    for (size_t a = 0; a < dists.size(); ++a) {
      std::set<std::string> keys_a;
      if (!(dists[a].TotalMass() <= 0.0)) {
        for (const auto& entry : dists[a].entries) keys_a.insert(entry.first);
      }
      std::vector<size_t> expected_sharing;
      for (size_t b = 0; b < dists.size(); ++b) {
        double overlap = OverlapDistance(dists[a], dists[b]);
        EXPECT_EQ(Bits(table.OverlapDistance(a, b)), Bits(overlap))
            << a << "," << b;
        EXPECT_EQ(Bits(table.ExpectedKeyDistance(a, b, *levenshtein)),
                  Bits(ExpectedKeyDistance(dists[a], dists[b], *levenshtein)))
            << a << "," << b;
        bool shares = false;
        if (!(dists[b].TotalMass() <= 0.0)) {
          for (const auto& entry : dists[b].entries) {
            shares |= keys_a.count(entry.first) > 0;
          }
        }
        if (shares) {
          expected_sharing.push_back(b);
        } else {
          // What lets canopies score only the posting lists.
          EXPECT_EQ(Bits(overlap), Bits(1.0)) << a << "," << b;
        }
      }
      table.TuplesSharingKey(a, &sharing);
      EXPECT_EQ(sharing, expected_sharing) << a;
    }
  }
}

// ---------------------------------------------------------------- adaptive

TEST(SnmAdaptiveTest, SimilarKeyRunsPairUp) {
  // Certain keys of R34: Jimba, Johpi, Johpi, Seapi, Tomme (Fig. 10).
  // The two Johpi entries are identical -> similarity 1 -> paired.
  SnmAdaptiveOptions options;
  options.key_similarity_threshold = 0.9;
  SnmAdaptive snm(PaperSortingKey(), options);
  Result<std::vector<CandidatePair>> pairs = snm.Generate(BuildR34());
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(ContainsPair(*pairs, MakePair(kT31, kT41)));
  // Jimba vs Johpi differ in 3 of 5 positions (sim 0.4 < 0.9): the chain
  // breaks, so t32 pairs with nobody.
  for (const CandidatePair& p : *pairs) {
    EXPECT_NE(p.first, kT32);
    EXPECT_NE(p.second, kT32);
  }
}

TEST(SnmAdaptiveTest, LowerThresholdWidensWindows) {
  XRelation r34 = BuildR34();
  SnmAdaptiveOptions strict;
  strict.key_similarity_threshold = 0.95;
  SnmAdaptiveOptions loose;
  loose.key_similarity_threshold = 0.1;
  SnmAdaptive strict_snm(PaperSortingKey(), strict);
  SnmAdaptive loose_snm(PaperSortingKey(), loose);
  Result<std::vector<CandidatePair>> strict_pairs = strict_snm.Generate(r34);
  Result<std::vector<CandidatePair>> loose_pairs = loose_snm.Generate(r34);
  ASSERT_TRUE(strict_pairs.ok());
  ASSERT_TRUE(loose_pairs.ok());
  EXPECT_GE(loose_pairs->size(), strict_pairs->size());
  for (const CandidatePair& p : *strict_pairs) {
    EXPECT_TRUE(ContainsPair(*loose_pairs, p));
  }
}

TEST(SnmAdaptiveTest, MaxWindowCapsChains) {
  // Identical keys everywhere: only max_window bounds the pairing.
  XRelation rel("R", Schema::Strings({"a"}));
  for (int i = 0; i < 6; ++i) {
    rel.AppendUnchecked(XTuple("t" + std::to_string(i),
                               {{{Value::Certain("same")}, 1.0}}));
  }
  KeySpec spec({{0, 4}});
  SnmAdaptiveOptions options;
  options.max_window = 2;  // adjacent only
  SnmAdaptive snm(spec, options);
  Result<std::vector<CandidatePair>> pairs = snm.Generate(rel);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->size(), 5u);  // chain of adjacents
  options.max_window = 6;
  SnmAdaptive wide(spec, options);
  EXPECT_EQ(wide.Generate(rel)->size(), 15u);  // all pairs
}

TEST(SnmAdaptiveTest, RejectsDegenerateWindow) {
  SnmAdaptiveOptions options;
  options.max_window = 1;
  SnmAdaptive snm(PaperSortingKey(), options);
  EXPECT_FALSE(snm.Generate(BuildR34()).ok());
}

// ----------------------------------------------------- detector integration

TEST(DetectorIntegrationTest, CanopyAndAdaptiveRunThroughConfig) {
  for (ReductionMethod method :
       {ReductionMethod::kCanopy, ReductionMethod::kSnmAdaptive}) {
    DetectorConfig config;
    config.key = {{"name", 3}, {"job", 2}};
    config.weights = {0.8, 0.2};
    config.reduction = method;
    Result<DuplicateDetector> detector =
        DuplicateDetector::Make(config, PaperSchema());
    ASSERT_TRUE(detector.ok()) << ReductionMethodName(method);
    Result<DetectionResult> result = detector->Run(BuildR34());
    ASSERT_TRUE(result.ok()) << ReductionMethodName(method);
  }
}

TEST(DetectorIntegrationTest, InvalidCanopyThresholdsFailAtMake) {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.8, 0.2};
  config.reduction = ReductionMethod::kCanopy;
  config.canopy.tight = 0.9;
  config.canopy.loose = 0.5;
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PaperSchema());
  ASSERT_FALSE(detector.ok());
  EXPECT_NE(detector.status().message().find("tight"), std::string::npos);
  // Other reductions ignore the canopy options.
  config.reduction = ReductionMethod::kFull;
  EXPECT_TRUE(DuplicateDetector::Make(config, PaperSchema()).ok());

  const std::string base =
      "key = name:3,job:2\n"
      "reduction = canopy\n"
      "reduction.loose = 0.5\n";
  Result<PlanSpec> bad = PlanSpec::Parse(base + "reduction.tight = 0.9\n");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  Result<DuplicateDetector> from_spec =
      DuplicateDetector::Make(*bad, PaperSchema());
  ASSERT_FALSE(from_spec.ok());
  EXPECT_NE(from_spec.status().message().find("tight"), std::string::npos);
  Result<PlanSpec> good = PlanSpec::Parse(base + "reduction.tight = 0.5\n");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(DuplicateDetector::Make(*good, PaperSchema()).ok());
}

TEST(DetectorIntegrationTest, PreparationNormalizesCase) {
  // Two sources disagreeing only in case: without preparation the pair
  // scores low under case-sensitive Hamming; with lowering it matches.
  XRelation rel("R", PaperSchema());
  rel.AppendUnchecked(XTuple(
      "a", {{{Value::Certain("JOHN"), Value::Certain("PILOT")}, 1.0}}));
  rel.AppendUnchecked(XTuple(
      "b", {{{Value::Certain("john"), Value::Certain("pilot")}, 1.0}}));
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.8, 0.2};
  config.final_thresholds = {0.4, 0.7};
  Result<DuplicateDetector> plain =
      DuplicateDetector::Make(config, PaperSchema());
  Standardizer lower;
  lower.LowerCase();
  config.preparation = DataPreparation::Uniform(lower, 2);
  Result<DuplicateDetector> prepared =
      DuplicateDetector::Make(config, PaperSchema());
  double sim_plain = (*plain->Run(rel)).decisions[0].similarity;
  double sim_prepared = (*prepared->Run(rel)).decisions[0].similarity;
  EXPECT_LT(sim_plain, 0.2);
  EXPECT_NEAR(sim_prepared, 1.0, 1e-12);
}

TEST(DetectorIntegrationTest, PreparationDoesNotMutateInput) {
  XRelation rel("R", PaperSchema());
  rel.AppendUnchecked(XTuple(
      "a", {{{Value::Certain("JOHN"), Value::Certain("PILOT")}, 1.0}}));
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.8, 0.2};
  Standardizer lower;
  lower.LowerCase();
  config.preparation = DataPreparation::Uniform(lower, 2);
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PaperSchema());
  ASSERT_TRUE(detector->Run(rel).ok());
  EXPECT_EQ(rel.xtuple(0).alternative(0).values[0],
            Value::Certain("JOHN"));
}

}  // namespace
}  // namespace pdd
