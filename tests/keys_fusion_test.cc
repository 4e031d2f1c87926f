// Unit tests for conflict resolution (fusion) and key creation,
// including the Fig. 13 key distributions.

#include <gtest/gtest.h>

#include "core/paper_examples.h"
#include "fusion/conflict_resolution.h"
#include "keys/key_builder.h"
#include "keys/key_spec.h"
#include "plan/registry.h"

namespace pdd {
namespace {

// ---------------------------------------------------- conflict resolution

TEST(ConflictResolutionTest, ResolveValueMostProbable) {
  Value v = Value::Dist({{"Tim", 0.6}, {"Tom", 0.4}});
  EXPECT_EQ(ResolveValue(v, ConflictStrategy::kMostProbable), "Tim");
  EXPECT_EQ(ResolveValue(Value::Null(), ConflictStrategy::kMostProbable), "");
}

TEST(ConflictResolutionTest, ResolveValueDominantNull) {
  Value v = Value::Dist({{"x", 0.2}});  // ⊥ mass 0.8
  EXPECT_EQ(ResolveValue(v, ConflictStrategy::kMostProbable), "");
  // Text-based strategies still pick the explicit alternative.
  EXPECT_EQ(ResolveValue(v, ConflictStrategy::kFirst), "x");
}

TEST(ConflictResolutionTest, ResolveValueTextStrategies) {
  Value v = Value::Dist({{"bb", 0.3}, {"a", 0.3}, {"ccc", 0.4}});
  EXPECT_EQ(ResolveValue(v, ConflictStrategy::kFirst), "bb");
  EXPECT_EQ(ResolveValue(v, ConflictStrategy::kLongest), "ccc");
  EXPECT_EQ(ResolveValue(v, ConflictStrategy::kShortest), "a");
  EXPECT_EQ(ResolveValue(v, ConflictStrategy::kLexicographicMin), "a");
}

TEST(ConflictResolutionTest, ResolveAlternativeMostProbable) {
  XTuple t32 = BuildR3().xtuple(1);
  // Alternatives: 0.3, 0.2, 0.4 -> index 2 (Jim, baker).
  EXPECT_EQ(ResolveAlternative(t32, ConflictStrategy::kMostProbable), 2u);
  EXPECT_EQ(ResolveAlternative(t32, ConflictStrategy::kFirst), 0u);
}

TEST(ConflictResolutionTest, ResolveAlternativeSingleIsZero) {
  XTuple t42 = BuildR4().xtuple(1);
  for (ConflictStrategy s :
       {ConflictStrategy::kMostProbable, ConflictStrategy::kFirst,
        ConflictStrategy::kLongest, ConflictStrategy::kShortest,
        ConflictStrategy::kLexicographicMin}) {
    EXPECT_EQ(ResolveAlternative(t42, s), 0u);
  }
}

TEST(ConflictResolutionTest, ResolveAlternativeTextStrategies) {
  XTuple t43 = BuildR4().xtuple(2);
  // (John, ⊥) concat "John" (4 chars) vs (Sean, pilot) "Seanpilot" (9).
  EXPECT_EQ(ResolveAlternative(t43, ConflictStrategy::kLongest), 1u);
  EXPECT_EQ(ResolveAlternative(t43, ConflictStrategy::kShortest), 0u);
  EXPECT_EQ(ResolveAlternative(t43, ConflictStrategy::kLexicographicMin), 0u);
}

TEST(ConflictResolutionTest, ParseAndName) {
  EXPECT_EQ(*ConflictStrategies().Find("most_probable"),
            ConflictStrategy::kMostProbable);
  EXPECT_EQ(*ConflictStrategies().Find("lex_min"),
            ConflictStrategy::kLexicographicMin);
  EXPECT_FALSE(ConflictStrategies().Find("bogus").ok());
  EXPECT_STREQ(ConflictStrategies().Name(ConflictStrategy::kLongest),
               "longest");
}

// ---------------------------------------------------------------- KeySpec

TEST(KeySpecTest, MakeValidatesAttributeIndices) {
  Schema schema = PaperSchema();
  EXPECT_FALSE(KeySpec::Make({}, schema).ok());
  EXPECT_FALSE(KeySpec::Make({{5, 3}}, schema).ok());
  EXPECT_TRUE(KeySpec::Make({{0, 3}, {1, 2}}, schema).ok());
}

TEST(KeySpecTest, FromNamesResolvesAttributes) {
  Schema schema = PaperSchema();
  Result<KeySpec> spec = KeySpec::FromNames({{"name", 3}, {"job", 2}},
                                            schema);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->components()[0].attribute, 0u);
  EXPECT_EQ(spec->components()[1].prefix_length, 2u);
  EXPECT_FALSE(KeySpec::FromNames({{"city", 1}}, schema).ok());
}

TEST(KeySpecTest, KeyFromTextsConcatenatesPrefixes) {
  KeySpec spec = PaperSortingKey();
  EXPECT_EQ(spec.KeyFromTexts({"John", "pilot"}), "Johpi");
  EXPECT_EQ(spec.KeyFromTexts({"John", ""}), "Joh");  // ⊥ contributes nothing
  EXPECT_EQ(spec.KeyFromTexts({"Jo", "pilot"}), "Jopi");  // short value
}

TEST(KeySpecTest, ZeroPrefixTakesWholeValue) {
  KeySpec spec({{0, 0}});
  EXPECT_EQ(spec.KeyFromTexts({"whole-value"}), "whole-value");
}

// -------------------------------------------------------------- KeyBuilder

TEST(KeyBuilderTest, KeyForAlternative) {
  Schema schema = PaperSchema();
  KeyBuilder builder(PaperSortingKey(), &schema);
  XRelation r4 = BuildR4();
  EXPECT_EQ(builder.KeyForAlternative(r4.xtuple(0).alternative(0)), "Johpi");
  EXPECT_EQ(builder.KeyForAlternative(r4.xtuple(2).alternative(0)), "Joh");
  EXPECT_EQ(builder.KeyForAlternative(r4.xtuple(2).alternative(1)), "Seapi");
}

TEST(KeyBuilderTest, PatternContributesLiteralPrefix) {
  Schema schema = PaperSchema();
  KeyBuilder builder(PaperSortingKey(), &schema);
  // t31 alternative 2: (Johan, mu*) -> "Joh" + "mu" = "Johmu" (Fig. 9/13).
  XRelation r3 = BuildR3();
  EXPECT_EQ(builder.KeyForAlternative(r3.xtuple(0).alternative(1)), "Johmu");
}

TEST(KeyBuilderTest, CertainKeyMostProbable) {
  Schema schema = PaperSchema();
  KeyBuilder builder(PaperSortingKey(), &schema);
  XRelation r34 = BuildR34();
  // Fig. 10: t31 Johpi, t32 Jimba, t41 Johpi, t42 Tomme, t43 Seapi.
  EXPECT_EQ(builder.CertainKey(r34.xtuple(0)), "Johpi");
  EXPECT_EQ(builder.CertainKey(r34.xtuple(1)), "Jimba");
  EXPECT_EQ(builder.CertainKey(r34.xtuple(2)), "Johpi");
  EXPECT_EQ(builder.CertainKey(r34.xtuple(3)), "Tomme");
  EXPECT_EQ(builder.CertainKey(r34.xtuple(4)), "Seapi");
}

TEST(KeyBuilderTest, AlternativeKeysPerAlternative) {
  Schema schema = PaperSchema();
  KeyBuilder builder(PaperSortingKey(), &schema);
  XRelation r34 = BuildR34();
  // Fig. 11 left: t31 {Johpi, Johmu}, t32 {Timme, Jimme, Jimba},
  // t41 {Johpi} (duplicate collapsed), t42 {Tomme}, t43 {Joh, Seapi}.
  EXPECT_EQ(builder.AlternativeKeys(r34.xtuple(0)),
            (std::vector<std::string>{"Johpi", "Johmu"}));
  EXPECT_EQ(builder.AlternativeKeys(r34.xtuple(1)),
            (std::vector<std::string>{"Timme", "Jimme", "Jimba"}));
  EXPECT_EQ(builder.AlternativeKeys(r34.xtuple(2)),
            (std::vector<std::string>{"Johpi"}));
  EXPECT_EQ(builder.AlternativeKeys(r34.xtuple(4)),
            (std::vector<std::string>{"Joh", "Seapi"}));
}

TEST(KeyBuilderTest, KeysForWorldSkipsAbsent) {
  Schema schema = PaperSchema();
  KeyBuilder builder(PaperSortingKey(), &schema);
  XRelation r34 = BuildR34();
  World world{{0, kAbsent, 0, 0, 1}, 0.1};
  std::vector<std::pair<size_t, std::string>> keys =
      builder.KeysForWorld(world, r34);
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys[0], (std::pair<size_t, std::string>{0, "Johpi"}));
  EXPECT_EQ(keys[3], (std::pair<size_t, std::string>{4, "Seapi"}));
}

TEST(KeyBuilderTest, Fig13Distributions) {
  Schema schema = PaperSchema();
  KeyBuilder builder(PaperSortingKey(), &schema);
  XRelation r34 = BuildR34();
  // t31: Johpi 0.7, Johmu 0.3.
  KeyDistribution d31 = builder.DistributionFor(r34.xtuple(0));
  ASSERT_EQ(d31.entries.size(), 2u);
  EXPECT_EQ(d31.entries[0].first, "Johpi");
  EXPECT_NEAR(d31.entries[0].second, 0.7, 1e-12);
  EXPECT_EQ(d31.entries[1].first, "Johmu");
  EXPECT_NEAR(d31.entries[1].second, 0.3, 1e-12);
  // t32: Timme 0.3, Jimme 0.2, Jimba 0.4 (raw masses as in Fig. 13).
  KeyDistribution d32 = builder.DistributionFor(r34.xtuple(1));
  ASSERT_EQ(d32.entries.size(), 3u);
  EXPECT_NEAR(d32.TotalMass(), 0.9, 1e-12);
  // t41 merges both alternatives to the single certain key Johpi 1.0
  // ("certain key value despite having two alternative tuples").
  KeyDistribution d41 = builder.DistributionFor(r34.xtuple(2));
  ASSERT_EQ(d41.entries.size(), 1u);
  EXPECT_EQ(d41.entries[0].first, "Johpi");
  EXPECT_NEAR(d41.entries[0].second, 1.0, 1e-12);
  // t43: Joh 0.2, Seapi 0.6.
  KeyDistribution d43 = builder.DistributionFor(r34.xtuple(4));
  ASSERT_EQ(d43.entries.size(), 2u);
  EXPECT_EQ(d43.entries[0].first, "Joh");
  EXPECT_NEAR(d43.entries[0].second, 0.2, 1e-12);
  EXPECT_EQ(d43.entries[1].first, "Seapi");
  EXPECT_NEAR(d43.entries[1].second, 0.6, 1e-12);
}

TEST(KeyBuilderTest, ConditionedDistributionNormalizes) {
  Schema schema = PaperSchema();
  KeyBuilder builder(PaperSortingKey(), &schema);
  XRelation r34 = BuildR34();
  KeyDistribution d32 = builder.DistributionFor(r34.xtuple(1),
                                                /*conditioned=*/true);
  EXPECT_NEAR(d32.TotalMass(), 1.0, 1e-12);
  EXPECT_NEAR(d32.entries[0].second, 0.3 / 0.9, 1e-12);
}

TEST(KeyBuilderTest, DistributionExpandsValueLevelUncertainty) {
  // A tuple of the dependency-free model: name {Tim:0.7, Kim:0.3},
  // job {mechanic:0.5, baker:0.5} -> four key outcomes.
  Schema schema = PaperSchema();
  KeyBuilder builder(PaperSortingKey(), &schema);
  XTuple t("t", {{{Value::Dist({{"Tim", 0.7}, {"Kim", 0.3}}),
                   Value::Dist({{"mechanic", 0.5}, {"baker", 0.5}})},
                  1.0}});
  KeyDistribution d = builder.DistributionFor(t);
  ASSERT_EQ(d.entries.size(), 4u);
  EXPECT_EQ(d.entries[0].first, "Timme");
  EXPECT_NEAR(d.entries[0].second, 0.35, 1e-12);
  EXPECT_EQ(d.entries[3].first, "Kimba");
  EXPECT_NEAR(d.entries[3].second, 0.15, 1e-12);
  EXPECT_NEAR(d.TotalMass(), 1.0, 1e-12);
}

TEST(KeyBuilderTest, DistributionHandlesPartialNullValue) {
  // Value with ⊥ mass: key outcome without the component.
  Schema schema = PaperSchema();
  KeyBuilder builder(PaperSortingKey(), &schema);
  XTuple t("t", {{{Value::Certain("John"),
                   Value::Dist({{"pilot", 0.6}})},  // ⊥ mass 0.4
                  1.0}});
  KeyDistribution d = builder.DistributionFor(t);
  ASSERT_EQ(d.entries.size(), 2u);
  EXPECT_EQ(d.entries[0].first, "Johpi");
  EXPECT_NEAR(d.entries[0].second, 0.6, 1e-12);
  EXPECT_EQ(d.entries[1].first, "Joh");
  EXPECT_NEAR(d.entries[1].second, 0.4, 1e-12);
}

TEST(KeyDistributionTest, MostProbableKey) {
  KeyDistribution d;
  d.entries = {{"a", 0.3}, {"b", 0.5}, {"c", 0.2}};
  EXPECT_EQ(d.MostProbableKey(), "b");
  EXPECT_NEAR(d.TotalMass(), 1.0, 1e-12);
}

}  // namespace
}  // namespace pdd
