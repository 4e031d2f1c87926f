// Unit tests for the synthetic data generators: error injection,
// uncertainty injection, person datasets and telescope catalogs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <utility>
#include <vector>

#include "datagen/astronomy_generator.h"
#include "datagen/error_injector.h"
#include "datagen/person_generator.h"
#include "datagen/text_safe.h"
#include "datagen/uncertainty_injector.h"
#include "datagen/vocabularies.h"
#include "pdb/text_format.h"
#include "util/string_util.h"

namespace pdd {
namespace {

// ------------------------------------------------------------ vocabularies

TEST(VocabulariesTest, ContainPaperValues) {
  auto contains = [](const std::vector<std::string>& vocab,
                     const std::string& word) {
    return std::find(vocab.begin(), vocab.end(), word) != vocab.end();
  };
  for (const char* name : {"Tim", "Tom", "Jim", "Kim", "John", "Johan", "Jon",
                           "Sean", "Timothy"}) {
    EXPECT_TRUE(contains(FirstNames(), name)) << name;
  }
  for (const char* job : {"machinist", "mechanic", "baker", "confectioner",
                          "confectionist", "pilot", "pianist", "musician",
                          "engineer"}) {
    EXPECT_TRUE(contains(Jobs(), job)) << job;
  }
}

TEST(VocabulariesTest, ReasonableSizes) {
  EXPECT_GE(FirstNames().size(), 100u);
  EXPECT_GE(Surnames().size(), 100u);
  EXPECT_GE(Jobs().size(), 80u);
  EXPECT_GE(Cities().size(), 70u);
  EXPECT_GE(JobSynonyms().size(), 5u);
}

TEST(VocabulariesTest, SynonymGroupsUseVocabulary) {
  for (const auto& group : JobSynonyms()) {
    EXPECT_GE(group.size(), 2u);
    for (const std::string& term : group) {
      EXPECT_NE(std::find(Jobs().begin(), Jobs().end(), term), Jobs().end())
          << term;
    }
  }
}

// ----------------------------------------------------------- error channel

TEST(ErrorInjectorTest, PrimitiveOpsChangeLengthAsExpected) {
  Rng rng(1);
  std::string s = "machinist";
  EXPECT_EQ(ErrorInjector::SubstituteChar(s, &rng).size(), s.size());
  EXPECT_EQ(ErrorInjector::InsertChar(s, &rng).size(), s.size() + 1);
  EXPECT_EQ(ErrorInjector::DeleteChar(s, &rng).size(), s.size() - 1);
  EXPECT_EQ(ErrorInjector::TransposeChars(s, &rng).size(), s.size());
  EXPECT_LT(ErrorInjector::Truncate(s, &rng).size(), s.size());
}

TEST(ErrorInjectorTest, PrimitiveOpsHandleDegenerateInput) {
  Rng rng(1);
  EXPECT_EQ(ErrorInjector::SubstituteChar("", &rng), "");
  EXPECT_EQ(ErrorInjector::DeleteChar("", &rng), "");
  EXPECT_EQ(ErrorInjector::TransposeChars("a", &rng), "a");
  EXPECT_EQ(ErrorInjector::Truncate("a", &rng), "a");
  EXPECT_EQ(ErrorInjector::InsertChar("", &rng).size(), 1u);
}

TEST(ErrorInjectorTest, TransposeSwapsNeighbors) {
  Rng rng(3);
  std::string out = ErrorInjector::TransposeChars("ab", &rng);
  EXPECT_EQ(out, "ba");
}

TEST(ErrorInjectorTest, AbbreviateKeepsInitial) {
  EXPECT_EQ(ErrorInjector::Abbreviate("John"), "J.");
  EXPECT_EQ(ErrorInjector::Abbreviate(""), "");
}

TEST(ErrorInjectorTest, SwapTokensNeedsTwoTokens) {
  Rng rng(1);
  EXPECT_EQ(ErrorInjector::SwapTokens("single", &rng), "single");
  std::string out = ErrorInjector::SwapTokens("john smith", &rng);
  EXPECT_EQ(out, "smith john");
}

TEST(ErrorInjectorTest, OcrConfusesVisuallySimilar) {
  Rng rng(1);
  std::string out = ErrorInjector::OcrConfuse("mm", &rng);
  // Either character may flip to 'n'.
  EXPECT_TRUE(out == "nm" || out == "mn") << out;
  // No confusable characters -> unchanged.
  EXPECT_EQ(ErrorInjector::OcrConfuse("xyz", &rng), "xyz");
}

TEST(ErrorInjectorTest, SubstitutePreservesCase) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    std::string out = ErrorInjector::SubstituteChar("A", &rng);
    EXPECT_TRUE(std::isupper(static_cast<unsigned char>(out[0]))) << out;
  }
}

TEST(ErrorInjectorTest, ZeroRatesAreIdentity) {
  ErrorInjectorOptions options;
  options.char_error_rate = 0.0;
  options.truncate_prob = 0.0;
  options.abbreviate_prob = 0.0;
  options.token_swap_prob = 0.0;
  options.ocr_prob = 0.0;
  ErrorInjector injector(options);
  Rng rng(5);
  EXPECT_EQ(injector.Corrupt("machinist", &rng), "machinist");
}

TEST(ErrorInjectorTest, HighRatesUsuallyChangeValue) {
  ErrorInjectorOptions options;
  options.char_error_rate = 0.3;
  ErrorInjector injector(options);
  Rng rng(5);
  int changed = 0;
  for (int i = 0; i < 100; ++i) {
    if (injector.Corrupt("machinist", &rng) != "machinist") ++changed;
  }
  EXPECT_GT(changed, 80);
}

TEST(ErrorInjectorTest, DeterministicUnderSeed) {
  ErrorInjector injector;
  Rng a(9), b(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(injector.Corrupt("confectioner", &a),
              injector.Corrupt("confectioner", &b));
  }
}

// ----------------------------------------------------- uncertainty channel

TEST(UncertaintyInjectorTest, ValuesAreAlwaysValid) {
  ErrorInjector errors;
  UncertaintyOptions options;
  options.value_uncertainty_prob = 1.0;
  options.null_mass_prob = 0.5;
  UncertaintyInjector injector(options, &errors);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    Value v = injector.MakeValue("machinist", &rng);
    double total = 0.0;
    for (const Alternative& a : v.alternatives()) {
      EXPECT_GT(a.prob, 0.0);
      total += a.prob;
    }
    EXPECT_LE(total, 1.0 + 1e-9);
    // Truth is the dominant alternative.
    EXPECT_EQ(v.alternatives()[0].text, "machinist");
  }
}

TEST(UncertaintyInjectorTest, ZeroUncertaintyYieldsCertainValues) {
  ErrorInjector errors;
  UncertaintyOptions options;
  options.value_uncertainty_prob = 0.0;
  UncertaintyInjector injector(options, &errors);
  Rng rng(11);
  Value v = injector.MakeValue("pilot", &rng);
  EXPECT_TRUE(v.is_certain());
  EXPECT_EQ(v.MostProbableText(), "pilot");
}

TEST(UncertaintyInjectorTest, XTuplesValidate) {
  ErrorInjector errors;
  UncertaintyOptions options;
  options.xtuple_alternative_prob = 1.0;
  options.maybe_prob = 0.5;
  UncertaintyInjector injector(options, &errors);
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    XTuple t = injector.MakeXTuple("t" + std::to_string(i),
                                   {"Tim", "mechanic", "Hamburg"}, &rng);
    EXPECT_TRUE(t.Validate().ok()) << t.ToString();
    EXPECT_EQ(t.arity(), 3u);
    EXPECT_GE(t.size(), 1u);
  }
}

TEST(UncertaintyInjectorTest, MaybeProbabilityRespected) {
  ErrorInjector errors;
  UncertaintyOptions options;
  options.maybe_prob = 1.0;
  UncertaintyInjector injector(options, &errors);
  Rng rng(13);
  XTuple t = injector.MakeXTuple("t", {"Tim"}, &rng);
  EXPECT_TRUE(t.is_maybe());
  options.maybe_prob = 0.0;
  UncertaintyInjector certain(options, &errors);
  XTuple t2 = certain.MakeXTuple("t", {"Tim"}, &rng);
  EXPECT_FALSE(t2.is_maybe());
}

// ------------------------------------------------------------------ person

TEST(PersonGeneratorTest, SchemaAndSizes) {
  PersonGenOptions options;
  options.num_entities = 50;
  options.duplicate_rate = 1.0;
  GeneratedData data = GeneratePersons(options);
  EXPECT_EQ(data.num_entities, 50u);
  EXPECT_GE(data.relation.size(), 50u);
  EXPECT_TRUE(data.relation.schema().CompatibleWith(PersonSchema()));
  // With duplicate_rate 1 there must be duplicates and gold pairs.
  EXPECT_GT(data.gold.size(), 0u);
}

TEST(PersonGeneratorTest, AllXTuplesValid) {
  PersonGenOptions options;
  options.num_entities = 40;
  GeneratedData data = GeneratePersons(options);
  for (const XTuple& t : data.relation.xtuples()) {
    EXPECT_TRUE(t.Validate().ok()) << t.id();
  }
}

TEST(PersonGeneratorTest, UniqueIds) {
  PersonGenOptions options;
  options.num_entities = 60;
  GeneratedData data = GeneratePersons(options);
  std::set<std::string> ids;
  for (const XTuple& t : data.relation.xtuples()) {
    EXPECT_TRUE(ids.insert(t.id()).second) << t.id();
  }
}

TEST(PersonGeneratorTest, DeterministicUnderSeed) {
  PersonGenOptions options;
  options.num_entities = 20;
  options.seed = 77;
  GeneratedData a = GeneratePersons(options);
  GeneratedData b = GeneratePersons(options);
  ASSERT_EQ(a.relation.size(), b.relation.size());
  EXPECT_EQ(a.gold.size(), b.gold.size());
  for (size_t i = 0; i < a.relation.size(); ++i) {
    EXPECT_EQ(a.relation.xtuple(i).ToString(),
              b.relation.xtuple(i).ToString());
  }
}

TEST(PersonGeneratorTest, GoldPairsConnectOnlyGeneratedIds) {
  PersonGenOptions options;
  options.num_entities = 30;
  options.duplicate_rate = 0.8;
  GeneratedData data = GeneratePersons(options);
  std::set<std::string> ids;
  for (const XTuple& t : data.relation.xtuples()) ids.insert(t.id());
  for (const IdPair& pair : data.gold.Pairs()) {
    EXPECT_TRUE(ids.count(pair.first)) << pair.first;
    EXPECT_TRUE(ids.count(pair.second)) << pair.second;
  }
}

TEST(PersonGeneratorTest, ZeroDuplicateRateYieldsNoGold) {
  PersonGenOptions options;
  options.num_entities = 30;
  options.duplicate_rate = 0.0;
  GeneratedData data = GeneratePersons(options);
  EXPECT_EQ(data.gold.size(), 0u);
  EXPECT_EQ(data.relation.size(), 30u);
}

TEST(PersonGeneratorTest, TwoSourceSplitPreservesRecords) {
  PersonGenOptions options;
  options.num_entities = 25;
  options.duplicate_rate = 1.0;
  GeneratedSources sources = GeneratePersonSources(options);
  GeneratedData whole = GeneratePersons(options);
  EXPECT_EQ(sources.source1.size() + sources.source2.size(),
            whole.relation.size());
  EXPECT_EQ(sources.gold.size(), whole.gold.size());
}

TEST(PersonGeneratorTest, FullNamesOption) {
  PersonGenOptions options;
  options.num_entities = 10;
  options.full_names = true;
  options.uncertainty.value_uncertainty_prob = 0.0;
  GeneratedData data = GeneratePersons(options);
  // First record of each entity is clean: full name has two tokens.
  const Value& name = data.relation.xtuple(0).alternative(0).values[0];
  EXPECT_EQ(SplitWhitespace(name.MostProbableText()).size(), 2u);
}

/// pddgen's person settings (tools/pddgen.cc defaults).
PersonGenOptions PddgenPersonOptions(size_t entities, uint64_t seed) {
  PersonGenOptions options;
  options.num_entities = entities;
  options.duplicate_rate = 0.6;
  options.errors.char_error_rate = 0.04;
  options.uncertainty.value_uncertainty_prob = 0.3;
  options.uncertainty.xtuple_alternative_prob = 0.15;
  options.seed = seed;
  return options;
}

/// Whether `text` parses back and re-serializes to itself.
bool RoundTrips(const std::string& text) {
  Result<XRelation> parsed = ParseXRelation(text);
  return parsed.ok() && SerializeXRelation(*parsed) == text;
}

// At 3,000 entities the error channel empties a one-character text for
// about half of the seeds 1-30. With --full-names (400 entities, seed 7
// at duplicate rate 0.5 and seed 11 at 0.6) a corrupted name keeps a
// trailing space, alone or next to the same name without it. With
// TextSafeRelation every relation's text parses back and re-serializes
// to the same bytes; a relation the mapping leaves alone is written
// unchanged, and one it changes would not round-trip raw.
TEST(TextSafeTest, PersonRelationsRoundTripThroughTheTextFormat) {
  std::vector<PersonGenOptions> runs;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    runs.push_back(PddgenPersonOptions(3000, seed));
  }
  for (auto [seed, duplicate_rate] : {std::pair{7, 0.5}, std::pair{11, 0.6}}) {
    PersonGenOptions options = PddgenPersonOptions(400, seed);
    options.duplicate_rate = duplicate_rate;
    options.full_names = true;
    runs.push_back(options);
  }
  size_t changed_runs = 0;
  for (const PersonGenOptions& options : runs) {
    const std::string run = "seed " + std::to_string(options.seed) +
                            (options.full_names ? " full names" : "");
    GeneratedData data = GeneratePersons(options);
    const std::string raw = SerializeXRelation(data.relation);
    const std::string text =
        SerializeXRelation(TextSafeRelation(data.relation));
    if (text != raw) ++changed_runs;
    Result<XRelation> parsed = ParseXRelation(text);
    ASSERT_TRUE(parsed.ok()) << run << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->size(), data.relation.size()) << run;
    EXPECT_EQ(SerializeXRelation(*parsed), text) << run;
    EXPECT_EQ(RoundTrips(raw), text == raw) << run;
    if (options.full_names) {
      EXPECT_NE(text, raw) << run;
    }
  }
  EXPECT_GT(changed_runs, 2u);
}

TEST(TextSafeTest, EmptyAlternativesBecomeNullMass) {
  Schema schema({{"name", ValueType::kString, {}}});
  XRelation rel("r", schema);
  rel.AppendUnchecked(XTuple(
      "t1", {AltTuple{{Value::Unchecked({{"", 0.4}, {"ann", 0.5}})}, 1.0}}));
  rel.AppendUnchecked(XTuple("t2", {AltTuple{{Value::Certain("")}, 1.0}}));
  XRelation safe = TextSafeRelation(rel);
  ASSERT_EQ(safe.size(), 2u);
  const Value& partial = safe.xtuple(0).alternative(0).values[0];
  ASSERT_EQ(partial.size(), 1u);
  EXPECT_EQ(partial.alternatives()[0].text, "ann");
  EXPECT_NEAR(partial.null_probability(), 0.5, 1e-12);
  EXPECT_TRUE(safe.xtuple(1).alternative(0).values[0].is_null());
}

TEST(TextSafeTest, TextsAreTrimmedAndAlternativesThatThenMatchMerge) {
  Schema schema({{"name", ValueType::kString, {}}});
  XRelation rel("r", schema);
  rel.AppendUnchecked(
      XTuple("t1", {AltTuple{{Value::Certain("Adrian ")}, 1.0}}));
  rel.AppendUnchecked(XTuple(
      "t2", {AltTuple{{Value::Unchecked(
                          {{"Tara ", 0.25}, {"Ann", 0.25}, {"Tara", 0.5}})},
                      1.0}}));
  // The raw text has a trailing space the parser trims, and two
  // alternatives the parser reads as one duplicate.
  EXPECT_FALSE(RoundTrips(SerializeXRelation(rel)));
  XRelation safe = TextSafeRelation(rel);
  const Value& trimmed = safe.xtuple(0).alternative(0).values[0];
  ASSERT_EQ(trimmed.size(), 1u);
  EXPECT_EQ(trimmed.alternatives()[0].text, "Adrian");
  const Value& merged = safe.xtuple(1).alternative(0).values[0];
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged.alternatives()[0].text, "Tara");
  EXPECT_DOUBLE_EQ(merged.alternatives()[0].prob, 0.75);
  EXPECT_EQ(merged.alternatives()[1].text, "Ann");
  EXPECT_DOUBLE_EQ(merged.alternatives()[1].prob, 0.25);
  EXPECT_TRUE(RoundTrips(SerializeXRelation(safe)));
  // Texts already trimmed and distinct are written unchanged.
  XRelation clean = TextSafeRelation(safe);
  EXPECT_EQ(SerializeXRelation(clean), SerializeXRelation(safe));
}

// --------------------------------------------------------------- telescope

TEST(AstronomyGeneratorTest, SchemaAndGold) {
  AstroGenOptions options;
  options.num_objects = 50;
  options.detection_prob = 1.0;
  GeneratedSources sources = GenerateTelescopeSources(options);
  EXPECT_EQ(sources.source1.size(), 50u);
  EXPECT_EQ(sources.source2.size(), 50u);
  EXPECT_EQ(sources.gold.size(), 50u);  // every object seen by both
  EXPECT_TRUE(sources.source1.schema().CompatibleWith(TelescopeSchema()));
}

TEST(AstronomyGeneratorTest, PartialDetectionShrinksGold) {
  AstroGenOptions options;
  options.num_objects = 200;
  options.detection_prob = 0.5;
  GeneratedSources sources = GenerateTelescopeSources(options);
  // Cross-source pairs only exist for doubly-detected objects (~25%).
  EXPECT_LT(sources.gold.size(), 120u);
  EXPECT_GT(sources.gold.size(), 20u);
}

TEST(AstronomyGeneratorTest, ValuesAreValidDiscreteDistributions) {
  AstroGenOptions options;
  options.num_objects = 30;
  options.readings = 4;
  GeneratedSources sources = GenerateTelescopeSources(options);
  for (const XRelation* rel : {&sources.source1, &sources.source2}) {
    for (const XTuple& t : rel->xtuples()) {
      EXPECT_TRUE(t.Validate().ok());
      for (const Value& v : t.alternative(0).values) {
        EXPECT_GE(v.size(), 1u);
        EXPECT_LE(v.size(), 4u);
        EXPECT_NEAR(v.existence_probability(), 1.0, 1e-9);
      }
    }
  }
}

TEST(AstronomyGeneratorTest, FaintDetectionsAreMaybe) {
  AstroGenOptions options;
  options.num_objects = 100;
  options.faint_prob = 1.0;
  GeneratedSources sources = GenerateTelescopeSources(options);
  for (const XTuple& t : sources.source1.xtuples()) {
    EXPECT_TRUE(t.is_maybe()) << t.id();
  }
}

TEST(AstronomyGeneratorTest, DeterministicUnderSeed) {
  AstroGenOptions options;
  options.num_objects = 20;
  GeneratedSources a = GenerateTelescopeSources(options);
  GeneratedSources b = GenerateTelescopeSources(options);
  EXPECT_EQ(a.source1.size(), b.source1.size());
  EXPECT_EQ(a.gold.size(), b.gold.size());
}

}  // namespace
}  // namespace pdd
