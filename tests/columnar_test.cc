// Tests for the columnar decide path: RelationArena round-trips the
// prepared relation field for field (built at once or grown tuple by
// tuple through generations) and interns values into exact-content
// classes, every columnar kernel is bit-identical to its registry
// comparator, and the executor's records equal the
// DetectionPlan::DecidePair oracle bit for bit for every comparator —
// kernel-backed, kernel-less and custom — and every φ/ϑ, across batch
// sizes, worker counts and the decision cache, over relations whose
// values repeat heavily and over one whose value pairs overflow the
// matcher's value memo.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/decision_cache.h"
#include "cache/pair_digest.h"
#include "columnar/relation_arena.h"
#include "core/detector.h"
#include "core/paper_examples.h"
#include "core/report_writer.h"
#include "datagen/person_generator.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"
#include "pipeline/stage_executor.h"
#include "plan/plan_builder.h"
#include "plan/registry.h"
#include "sim/columnar_kernels.h"
#include "sim/registry.h"
#include "sim/sim_scratch.h"

namespace pdd {
namespace {

GeneratedData UncertainPersons(size_t entities = 60) {
  PersonGenOptions gen;
  gen.num_entities = entities;
  gen.duplicate_rate = 0.6;
  gen.uncertainty.value_uncertainty_prob = 0.4;
  gen.uncertainty.xtuple_alternative_prob = 0.3;
  gen.uncertainty.null_mass_prob = 0.2;
  gen.seed = 60606;
  return GeneratePersons(gen);
}

DetectorConfig PersonConfig() {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.5, 0.3, 0.2};
  return config;
}

/// A relation whose values repeat heavily across tuples: each comes
/// from a pool of five per attribute, among them multi-alternative
/// values with unequal probabilities (the same texts in the same order
/// with other probabilities, and in another order), ⊥, and on job the
/// patterns 'me*' and 'ma*'. Tuples hold one to three alternatives,
/// some of them maybe-tuples.
XRelation RepeatingRelation() {
  Schema schema({
      {"name", ValueType::kString, {}},
      {"job",
       ValueType::kString,
       {"machinist", "mechanic", "mechanist", "baker", "pilot"}},
      {"city", ValueType::kString, {}},
  });
  const std::vector<std::vector<Value>> pools = {
      {Value::Certain("john"),
       Value::Dist({{"john", 0.55}, {"johan", 0.3}, {"jon", 0.1}}),
       Value::Dist({{"john", 0.3}, {"johan", 0.55}, {"jon", 0.1}}),
       Value::Dist({{"jon", 0.15}, {"john", 0.25}, {"johan", 0.55}}),
       Value::Null()},
      {Value::Certain("mechanic"), Value::Pattern("me", 0.9),
       Value::Pattern("ma"), Value::Dist({{"baker", 0.7}, {"pilot", 0.2}}),
       Value::Dist({{"pilot", 0.35}, {"mechanic", 0.45}, {"baker", 0.15}})},
      {Value::Certain("berlin"), Value::Certain("bern"),
       Value::Dist({{"berlin", 0.6}, {"bern", 0.25}, {"ulm", 0.1}}),
       Value::Dist({{"ulm", 0.2}, {"berlin", 0.7}}),
       Value::Dist({{"ulm", 0.7}, {"berlin", 0.2}})},
  };
  const std::vector<std::vector<double>> tuple_probs = {
      {1.0}, {0.6, 0.4}, {0.5, 0.3, 0.15}, {0.7}};
  XRelation rel("repeating", schema);
  for (size_t t = 0; t < 36; ++t) {
    const std::vector<double>& probs = tuple_probs[t % tuple_probs.size()];
    std::vector<AltTuple> alternatives;
    for (size_t i = 0; i < probs.size(); ++i) {
      std::vector<Value> values;
      for (size_t attr = 0; attr < pools.size(); ++attr) {
        const std::vector<Value>& pool = pools[attr];
        values.push_back(pool[(t * (attr + 2) + i * 3 + attr) % pool.size()]);
      }
      alternatives.push_back({std::move(values), probs[i]});
    }
    rel.AppendUnchecked(
        XTuple("r" + std::to_string(t), std::move(alternatives)));
  }
  return rel;
}

/// The values of `rel` in arena order (row-major over the flattened
/// alternative tuples, patterns expanded).
std::vector<Value> FlattenedValues(const XRelation& rel) {
  const Schema& schema = rel.schema();
  std::vector<Value> values;
  for (const XTuple& tuple : rel.xtuples()) {
    for (const AltTuple& alt : tuple.alternatives()) {
      for (size_t attr = 0; attr < schema.arity(); ++attr) {
        values.push_back(
            alt.values[attr].Expanded(schema.attribute(attr).vocabulary));
      }
    }
  }
  return values;
}

// --- arena round-trip ---------------------------------------------------

TEST(RelationArenaTest, RoundTripsPreparedRelation) {
  GeneratedData data = UncertainPersons();
  const XRelation& rel = data.relation;
  const Schema& schema = rel.schema();
  std::shared_ptr<const RelationArena> arena = RelationArena::Build(rel);
  ASSERT_NE(arena, nullptr);

  EXPECT_EQ(arena->tuple_count(), rel.size());
  EXPECT_EQ(arena->arity(), schema.arity());
  EXPECT_EQ(arena->row_count(), rel.TotalAlternatives());

  for (size_t t = 0; t < rel.size(); ++t) {
    const XTuple& tuple = rel.xtuple(t);
    const size_t row_begin = arena->tuple_row_begin(t);
    const size_t row_end = arena->tuple_row_end(t);
    ASSERT_EQ(row_end - row_begin, tuple.size());
    EXPECT_EQ(arena->tuple_digest(t), TupleContentDigest(tuple));

    const std::vector<double> cond = tuple.ConditionedProbabilities();
    for (size_t i = 0; i < tuple.size(); ++i) {
      const size_t row = row_begin + i;
      EXPECT_EQ(arena->row_cond_prob(row), cond[i]);
      for (size_t attr = 0; attr < schema.arity(); ++attr) {
        const Value& value = tuple.alternative(i).values[attr];
        ASSERT_FALSE(value.has_pattern());  // persons carry no patterns
        const size_t v = arena->value_index(row, attr);
        const size_t alt_begin = arena->value_alt_begin(v);
        const size_t alt_end = arena->value_alt_end(v);
        ASSERT_EQ(alt_end - alt_begin, value.alternatives().size());
        EXPECT_EQ(arena->value_null_prob(v), value.null_probability());
        for (size_t a = 0; a < value.alternatives().size(); ++a) {
          const Alternative& alt = value.alternatives()[a];
          const size_t k = alt_begin + a;
          EXPECT_EQ(arena->alt_text(k), alt.text);
          EXPECT_EQ(arena->alt_prob(k), alt.prob);
          EXPECT_EQ(arena->alt_sig(k), QGram2Signature(alt.text));
        }
      }
    }
  }
}

TEST(RelationArenaTest, ExpandsPatternsLikeTheMatcher) {
  // R3/R4 carry Fig. 5's 'mu*' pattern on the job attribute; the arena
  // must store exactly what Value::Expanded produces, in its order.
  XRelation rel = BuildR34();
  const Schema& schema = rel.schema();
  std::shared_ptr<const RelationArena> arena = RelationArena::Build(rel);
  ASSERT_NE(arena, nullptr);

  size_t patterns_seen = 0;
  for (size_t t = 0; t < rel.size(); ++t) {
    const XTuple& tuple = rel.xtuple(t);
    for (size_t i = 0; i < tuple.size(); ++i) {
      const size_t row = arena->tuple_row_begin(t) + i;
      for (size_t attr = 0; attr < schema.arity(); ++attr) {
        const Value& raw = tuple.alternative(i).values[attr];
        if (!raw.has_pattern()) continue;
        ++patterns_seen;
        Value expanded = raw.Expanded(schema.attribute(attr).vocabulary);
        const size_t v = arena->value_index(row, attr);
        ASSERT_EQ(arena->value_alt_end(v) - arena->value_alt_begin(v),
                  expanded.alternatives().size());
        EXPECT_EQ(arena->value_null_prob(v), expanded.null_probability());
        for (size_t a = 0; a < expanded.alternatives().size(); ++a) {
          const size_t k = arena->value_alt_begin(v) + a;
          EXPECT_EQ(arena->alt_text(k), expanded.alternatives()[a].text);
          EXPECT_EQ(arena->alt_prob(k), expanded.alternatives()[a].prob);
        }
      }
    }
  }
  EXPECT_GT(patterns_seen, 0u);
}

// --- kernel ≡ comparator ------------------------------------------------

TEST(ColumnarKernelTest, KernelsBitIdenticalToRegistryComparators) {
  // Edge-heavy corpus: empties, equal strings, disjoint alphabets,
  // prefixes, transpositions, numerics (valid and not), long strings.
  const std::vector<std::string> corpus = {
      "",       "a",        "ab",          "abc",       "abd",
      "abcd",   "dcba",     "xyz",         "kitten",    "sitting",
      "martha", "marhta",   "dixon",       "dicksonx",  "jones",
      "johnson", "3.14",    "2.71",        "-12",       "0",
      "1000",   "not_a_number",
      "mississippi",        "misspellings",
      "the quick brown fox jumps over the lazy dog",
      "the quick brown fox jumped over a lazy dog"};
  SimScratch scratch;
  for (const std::string& name : ColumnarKernelNames()) {
    ColumnarKernelFn kernel = FindColumnarKernel(name);
    ASSERT_NE(kernel, nullptr) << name;
    Result<const Comparator*> cmp = GetComparator(name);
    ASSERT_TRUE(cmp.ok()) << name;
    for (const std::string& a : corpus) {
      for (const std::string& b : corpus) {
        const double expected = (*cmp)->Compare(a, b);
        const double actual =
            kernel(a, b, QGram2Signature(a), QGram2Signature(b), scratch);
        // EXPECT_EQ, not NEAR: the contract is bit-identity.
        EXPECT_EQ(actual, expected)
            << name << "(\"" << a << "\", \"" << b << "\")";
      }
    }
  }
}

// --- arena growth ---------------------------------------------------------

/// Field-for-field equality of two arenas over the same tuples.
void ExpectSameArena(const RelationArena& a, const RelationArena& b) {
  ASSERT_EQ(a.tuple_count(), b.tuple_count());
  ASSERT_EQ(a.row_count(), b.row_count());
  ASSERT_EQ(a.alternative_count(), b.alternative_count());
  ASSERT_EQ(a.arity(), b.arity());
  for (size_t t = 0; t < a.tuple_count(); ++t) {
    EXPECT_EQ(a.tuple_row_begin(t), b.tuple_row_begin(t));
    EXPECT_EQ(a.tuple_row_end(t), b.tuple_row_end(t));
    EXPECT_EQ(a.tuple_digest(t), b.tuple_digest(t));
  }
  for (size_t r = 0; r < a.row_count(); ++r) {
    EXPECT_EQ(a.row_cond_prob(r), b.row_cond_prob(r));
    for (size_t attr = 0; attr < a.arity(); ++attr) {
      const size_t v = a.value_index(r, attr);
      EXPECT_EQ(a.value_alt_begin(v), b.value_alt_begin(v));
      EXPECT_EQ(a.value_alt_end(v), b.value_alt_end(v));
      EXPECT_EQ(a.value_null_prob(v), b.value_null_prob(v));
      EXPECT_EQ(a.value_class(v), b.value_class(v));
    }
  }
  for (size_t k = 0; k < a.alternative_count(); ++k) {
    EXPECT_EQ(a.alt_text(k), b.alt_text(k));
    EXPECT_EQ(a.alt_prob(k), b.alt_prob(k));
    EXPECT_EQ(a.alt_sig(k), b.alt_sig(k));
  }
}

TEST(RelationArenaTest, ValueClassesAreExactContentWithinAnAttribute) {
  for (const XRelation& rel :
       {RepeatingRelation(), BuildR34(), UncertainPersons(40).relation}) {
    std::shared_ptr<const RelationArena> arena = RelationArena::Build(rel);
    ASSERT_NE(arena, nullptr);
    const size_t arity = arena->arity();
    const std::vector<Value> values = FlattenedValues(rel);
    ASSERT_EQ(values.size(), arena->row_count() * arity);
    size_t shared = 0;
    uint32_t next_class = 0;
    for (size_t v = 0; v < values.size(); ++v) {
      // Ids are dense, issued in first-appearance order.
      const uint32_t c = arena->value_class(v);
      ASSERT_LE(c, next_class) << rel.name() << " value " << v;
      if (c == next_class) ++next_class;
      for (size_t w = 0; w < v; ++w) {
        // Equal class <=> same attribute and equal content; no class
        // spans two attributes.
        const bool same_content =
            v % arity == w % arity && values[v] == values[w];
        EXPECT_EQ(arena->value_class(w) == c, same_content)
            << rel.name() << " values " << w << ", " << v << ": "
            << values[w].ToString() << " / " << values[v].ToString();
        shared += same_content ? 1 : 0;
      }
    }
    EXPECT_GT(shared, 0u) << rel.name() << " repeats no value";
  }
}

TEST(RelationArenaTest, AppendGrowsByGenerationsAndMatchesBuild) {
  for (const XRelation& rel :
       {UncertainPersons(40).relation, BuildR34(), RepeatingRelation()}) {
    XRelation empty(rel.name(), rel.schema());
    std::shared_ptr<RelationArena> arena = RelationArena::Build(empty);
    ASSERT_NE(arena, nullptr);
    size_t generations = 1;
    for (const XTuple& tuple : rel.xtuples()) {
      const RelationArena* before = arena.get();
      const size_t held = arena->tuple_count();
      const std::string first_text =
          held > 0 && arena->alternative_count() > 0
              ? std::string(arena->alt_text(0))
              : std::string();
      std::shared_ptr<RelationArena> next =
          RelationArena::Append(arena, tuple, rel.schema());
      ASSERT_NE(next, nullptr);
      if (next.get() != before) {
        ++generations;
        // The superseded generation is untouched: a reader holding it
        // still sees exactly the tuples it held.
        EXPECT_EQ(arena->tuple_count(), held);
        if (!first_text.empty()) {
          EXPECT_EQ(arena->alt_text(0), first_text);
        }
        // And its class ids stay valid in the new generation.
        for (size_t v = 0; v < arena->row_count() * arena->arity(); ++v) {
          EXPECT_EQ(next->value_class(v), arena->value_class(v));
        }
      }
      arena = std::move(next);
      EXPECT_EQ(arena->tuple_count(), held + 1);
    }
    EXPECT_GE(generations, 3u) << rel.name();
    std::shared_ptr<RelationArena> built = RelationArena::Build(rel);
    ASSERT_NE(built, nullptr);
    ExpectSameArena(*arena, *built);
  }
}

// --- plan: one entry per attribute -----------------------------------------

/// A comparator the registry does not know: exercises the custom
/// instance path (no kernel, cache-ineligible plan).
class FirstLetterComparator : public Comparator {
 public:
  double Compare(std::string_view a, std::string_view b) const override {
    if (a.empty() || b.empty()) return a.empty() && b.empty() ? 1.0 : 0.0;
    return a[0] == b[0] ? (a.size() == b.size() ? 1.0 : 0.75) : 0.125;
  }
  std::string name() const override { return "first_letter"; }
};

TEST(ColumnarPlanTest, KernelTableHasAnEntryPerAttribute) {
  FirstLetterComparator custom;
  DetectorConfig config = PersonConfig();
  config.comparators = {"monge_elkan", "soundex", "levenshtein"};
  config.custom_comparators = {nullptr, nullptr, &custom};
  auto plan = DetectionPlan::Compile(config, PersonSchema());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::vector<ColumnarKernelFn>& kernels = (*plan)->columnar_kernels();
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_EQ(kernels[0], nullptr);  // monge_elkan has no kernel
  EXPECT_EQ(kernels[1], nullptr);  // soundex has no kernel
  EXPECT_EQ(kernels[2], nullptr);  // custom instance
  ASSERT_EQ((*plan)->comparators().size(), 3u);
  EXPECT_EQ((*plan)->comparators()[0]->name(), "monge_elkan");
  EXPECT_EQ((*plan)->comparators()[1]->name(), "soundex");
  EXPECT_EQ((*plan)->comparators()[2], &custom);

  auto defaults = DetectionPlan::Compile(PersonConfig(), PersonSchema());
  ASSERT_TRUE(defaults.ok());
  for (ColumnarKernelFn kernel : (*defaults)->columnar_kernels()) {
    EXPECT_NE(kernel, nullptr);
  }
}

TEST(ColumnarPlanTest, MatchKernelSpecKeyIsRejected) {
  PlanSpec spec = PlanBuilder()
                      .AddKey("name", 3)
                      .Weights({0.5, 0.3, 0.2})
                      .Set("match.kernel", "columnar")
                      .Build();
  auto plan = DetectionPlan::Compile(spec, PersonSchema());
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().message().find("match.kernel"), std::string::npos)
      << plan.status().ToString();
}

// --- executor ≡ DecidePair oracle -------------------------------------------

/// One oracle record per executor record: DecidePair on the prepared
/// tuples in the executor's canonical orientation (smaller content
/// digest first), the record keeping the presentation indices.
std::vector<PairDecisionRecord> OracleRecords(
    const DetectionPlan& plan, const XRelation& prepared,
    const std::vector<PairDecisionRecord>& pairs) {
  std::vector<uint64_t> digests;
  for (const XTuple& tuple : prepared.xtuples()) {
    digests.push_back(TupleContentDigest(tuple));
  }
  std::vector<PairDecisionRecord> oracle;
  for (const PairDecisionRecord& pair : pairs) {
    const bool flip = digests[pair.index2] < digests[pair.index1];
    const XPairDecision decision =
        plan.DecidePair(prepared.xtuple(flip ? pair.index2 : pair.index1),
                        prepared.xtuple(flip ? pair.index1 : pair.index2));
    oracle.push_back(
        {pair.index1, pair.index2, decision.similarity, decision.match_class});
  }
  return oracle;
}

void ExpectRecordsEqual(const std::vector<PairDecisionRecord>& actual,
                        const std::vector<PairDecisionRecord>& oracle,
                        const std::string& context) {
  ASSERT_EQ(actual.size(), oracle.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].index1, oracle[i].index1) << context << " #" << i;
    EXPECT_EQ(actual[i].index2, oracle[i].index2) << context << " #" << i;
    // EXPECT_EQ, not NEAR: the contract is bit-identity.
    EXPECT_EQ(actual[i].similarity, oracle[i].similarity)
        << context << " #" << i;
    EXPECT_EQ(actual[i].match_class, oracle[i].match_class)
        << context << " #" << i;
  }
}

/// Runs `config` over `rel` in every executor shape — batch {1, 7,
/// 4096} × workers {0, 2} × uncached / cold-cached / warm-cached — and
/// checks each run's records against the oracle.
void ExpectOracleIdentity(DetectorConfig config, const XRelation& rel,
                          const std::string& label) {
  auto plan = DetectionPlan::Compile(config, rel.schema());
  ASSERT_TRUE(plan.ok()) << label << ": " << plan.status().ToString();
  std::vector<PairDecisionRecord> oracle;
  for (size_t batch : {size_t{1}, size_t{7}, size_t{4096}}) {
    for (size_t workers : {size_t{0}, size_t{2}}) {
      auto cache = std::make_shared<ShardedDecisionCache>();
      for (const char* mode : {"uncached", "cold", "warm"}) {
        const std::string context = label + " batch " +
                                    std::to_string(batch) + " workers " +
                                    std::to_string(workers) + " " + mode;
        StageExecutorOptions options;
        options.batch_size = batch;
        options.workers = workers;
        if (std::string(mode) != "uncached") options.cache = cache;
        auto stream = MakeFullStream(**plan, rel);
        ASSERT_TRUE(stream.ok()) << context;
        auto result = StageExecutor(*plan, options).Execute(**stream);
        ASSERT_TRUE(result.ok()) << context << ": "
                                 << result.status().ToString();
        ASSERT_GT(result->decisions.size(), 0u) << context;
        if (oracle.empty()) {
          oracle = OracleRecords(**plan, (*stream)->relation(),
                                 result->decisions);
        }
        ExpectRecordsEqual(result->decisions, oracle, context);
        if (std::string(mode) == "warm" &&
            (*plan)->decision_fingerprint() != 0) {
          ASSERT_TRUE(result->cache_stats.has_value());
          EXPECT_EQ(result->cache_stats->hits, result->cache_stats->lookups)
              << context;
        }
      }
    }
  }
}

TEST(ColumnarOracleTest, EveryRegistryComparatorMatchesDecidePair) {
  GeneratedData data = UncertainPersons(12);
  std::vector<std::string> names = ComparatorNames();
  ASSERT_EQ(names.size(), ColumnarKernelNames().size() + 2);
  for (const std::string& name : names) {
    DetectorConfig config = PersonConfig();
    config.comparators = {name, name, name};
    ExpectOracleIdentity(config, data.relation, name);
  }
}

TEST(ColumnarOracleTest, MixedAndCustomComparatorsMatchDecidePair) {
  GeneratedData data = UncertainPersons(12);
  DetectorConfig mixed = PersonConfig();
  mixed.comparators = {"monge_elkan", "soundex", "hamming"};
  ExpectOracleIdentity(mixed, data.relation, "monge_elkan,soundex,hamming");

  FirstLetterComparator custom;
  DetectorConfig with_custom = PersonConfig();
  with_custom.comparators = {"jaro_winkler", "default", "default"};
  with_custom.custom_comparators = {nullptr, &custom, nullptr};
  ExpectOracleIdentity(with_custom, data.relation, "custom");
}

TEST(ColumnarOracleTest, RepeatedValuesMatchDecidePair) {
  // Most value pairs recur, so the matcher's memo answers most of them:
  // across tuple pairs in both orientations, with multi-alternative
  // values on either side and pattern values.
  const XRelation rel = RepeatingRelation();
  for (const std::string& name : ComparatorNames()) {
    DetectorConfig config = PersonConfig();
    config.comparators = {name, name, name};
    ExpectOracleIdentity(config, rel, "repeating " + name);
  }
  DetectorConfig mixed = PersonConfig();
  mixed.comparators = {"soundex", "monge_elkan", "hamming"};
  ExpectOracleIdentity(mixed, rel, "repeating soundex,monge_elkan,hamming");

  FirstLetterComparator custom;
  DetectorConfig with_custom = PersonConfig();
  with_custom.comparators = {"jaro_winkler", "default", "default"};
  with_custom.custom_comparators = {nullptr, &custom, nullptr};
  ExpectOracleIdentity(with_custom, rel, "repeating custom");
}

TEST(ColumnarOracleTest, EveryCombinationAndDerivationMatchesDecidePair) {
  // Only a weighted-sum φ with the expected-similarity ϑ is summed
  // inside the match loop; every other pairing derives from the score
  // grid.
  const XRelation rel = RepeatingRelation();
  for (CombinationKind combination :
       {CombinationKind::kWeightedSum, CombinationKind::kFellegiSunter}) {
    for (DerivationKind derivation :
         {DerivationKind::kExpectedSimilarity, DerivationKind::kMatchingWeight,
          DerivationKind::kExpectedMatching, DerivationKind::kMaxSimilarity,
          DerivationKind::kMinSimilarity, DerivationKind::kModeSimilarity}) {
      DetectorConfig config = PersonConfig();
      config.comparators = {"jaro_winkler", "hamming", "monge_elkan"};
      config.combination = combination;
      config.derivation = derivation;
      if (combination == CombinationKind::kFellegiSunter) {
        config.fs_attributes = {
            {0.9, 0.1, 0.8}, {0.85, 0.15, 0.6}, {0.8, 0.2, 0.5}};
        config.final_thresholds = {0.5, 5.0};
      } else if (derivation == DerivationKind::kMatchingWeight) {
        config.final_thresholds = {0.5, 1.0};
      }
      ExpectOracleIdentity(config, rel,
                           std::string(CombinationKindName(combination)) +
                               "/" + DerivationKindName(derivation));
    }
  }
}

TEST(ColumnarOracleTest, MemoCollisionsNeverServeAnotherValuePair) {
  // Far more distinct value pairs than the matcher's 2^14 memo slots:
  // slots are evicted constantly, and an evicted or colliding slot must
  // never answer for another class pair.
  GeneratedData data = UncertainPersons(200);
  std::shared_ptr<const RelationArena> arena =
      RelationArena::Build(data.relation);
  ASSERT_NE(arena, nullptr);
  const size_t arity = arena->arity();
  std::set<uint64_t> class_pairs;
  for (size_t t1 = 0; t1 < arena->tuple_count(); ++t1) {
    for (size_t t2 = t1 + 1; t2 < arena->tuple_count(); ++t2) {
      for (size_t r1 = arena->tuple_row_begin(t1);
           r1 < arena->tuple_row_end(t1); ++r1) {
        for (size_t r2 = arena->tuple_row_begin(t2);
             r2 < arena->tuple_row_end(t2); ++r2) {
          for (size_t attr = 0; attr < arity; ++attr) {
            const uint64_t c1 = arena->value_class(r1 * arity + attr);
            const uint64_t c2 = arena->value_class(r2 * arity + attr);
            class_pairs.insert(std::min(c1, c2) << 32 | std::max(c1, c2));
          }
        }
      }
    }
  }
  EXPECT_GT(class_pairs.size(), size_t{4} << 14);
  ExpectOracleIdentity(PersonConfig(), data.relation, "many pairs default");
  DetectorConfig mixed = PersonConfig();
  mixed.comparators = {"soundex", "jaro", "numeric"};
  ExpectOracleIdentity(mixed, data.relation, "many pairs soundex,jaro,numeric");
}

TEST(ColumnarOracleTest, PatternRelationMatchesDecidePair) {
  // R3/R4 carry Fig. 5's 'mu*' pattern: the matcher reads the arena's
  // expanded alternatives, DecidePair expands per pair.
  XRelation r34 = BuildR34();
  for (const std::vector<std::string>& comparators :
       std::vector<std::vector<std::string>>{{"hamming", "hamming"},
                                             {"soundex", "monge_elkan"},
                                             {"levenshtein", "qgram2"}}) {
    DetectorConfig config;
    config.key = {{"name", 1}};
    config.weights = {0.8, 0.2};
    config.comparators = comparators;
    ExpectOracleIdentity(config, r34,
                         "R34 " + comparators[0] + "," + comparators[1]);
  }
}

// --- arena attachment -------------------------------------------------------

TEST(ColumnarExecutorTest, MaterializedStreamDecidesOverAnArenaExecuteBuilds) {
  GeneratedData data = UncertainPersons(20);
  DetectorConfig config = PersonConfig();
  config.comparators = {"soundex", "jaro", "monge_elkan"};
  auto plan = DetectionPlan::Compile(config, PersonSchema());
  ASSERT_TRUE(plan.ok());
  std::vector<CandidatePair> candidates;
  for (size_t j = 1; j < data.relation.size(); j += 2) {
    candidates.push_back({j - 1, j});
    candidates.push_back({0, j});
  }
  MaterializedCandidateStream stream("materialized", std::nullopt,
                                     &data.relation, candidates,
                                     candidates.size());
  ASSERT_EQ(stream.arena(), nullptr);
  auto first = StageExecutor(*plan).Execute(stream);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_NE(stream.arena(), nullptr);
  EXPECT_EQ(stream.arena()->tuple_count(), data.relation.size());
  ExpectRecordsEqual(first->decisions,
                     OracleRecords(**plan, data.relation, first->decisions),
                     "materialized");
  // A fresh stream given the first stream's arena decides over it.
  MaterializedCandidateStream rerun("materialized", std::nullopt,
                                    &data.relation, candidates,
                                    candidates.size());
  rerun.set_arena(stream.arena());
  auto second = StageExecutor(*plan).Execute(rerun);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(rerun.arena(), stream.arena());
  ExpectRecordsEqual(second->decisions, first->decisions, "re-run");
}

TEST(ColumnarExecutorTest, ArenaOfAnotherRelationIsInvalidArgument) {
  GeneratedData data = UncertainPersons(20);
  GeneratedData other = UncertainPersons(5);
  ASSERT_NE(other.relation.size(), data.relation.size());
  auto plan = DetectionPlan::Compile(PersonConfig(), PersonSchema());
  ASSERT_TRUE(plan.ok());
  MaterializedCandidateStream stream("custom", std::nullopt, &data.relation,
                                     {{0, 1}}, 1);
  stream.set_arena(RelationArena::Build(other.relation));
  auto result = StageExecutor(*plan).Execute(stream);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
}

// --- scratch reuse regression -------------------------------------------

TEST(SimScratchTest, CompareLoopIsAllocationFreeAfterWarmup) {
  // The hot-path fix this PR rides on: registry comparators borrow the
  // thread-local scratch instead of allocating DP rows per call. After
  // touching the largest strings once, further calls with smaller or
  // equal inputs must not grow any buffer's capacity.
  const std::vector<std::string> corpus = {
      "mississippi", "misspellings", "kitten", "sitting", "", "a",
      "the quick brown fox jumps over the lazy dog"};
  const std::vector<std::string> names = {"levenshtein", "damerau", "lcs",
                                          "jaro", "jaro_winkler"};
  // Warmup: every comparator sees the full corpus once.
  for (const std::string& name : names) {
    const Comparator* cmp = *GetComparator(name);
    for (const std::string& a : corpus) {
      for (const std::string& b : corpus) cmp->Compare(a, b);
    }
  }
  SimScratch& scratch = ThreadLocalSimScratch();
  const size_t cap_row0 = scratch.row0.capacity();
  const size_t cap_row1 = scratch.row1.capacity();
  const size_t cap_row2 = scratch.row2.capacity();
  const size_t cap_flags_a = scratch.flags_a.capacity();
  const size_t cap_flags_b = scratch.flags_b.capacity();
  for (int rep = 0; rep < 100; ++rep) {
    for (const std::string& name : names) {
      const Comparator* cmp = *GetComparator(name);
      for (const std::string& a : corpus) {
        for (const std::string& b : corpus) cmp->Compare(a, b);
      }
    }
  }
  EXPECT_EQ(scratch.row0.capacity(), cap_row0);
  EXPECT_EQ(scratch.row1.capacity(), cap_row1);
  EXPECT_EQ(scratch.row2.capacity(), cap_row2);
  EXPECT_EQ(scratch.flags_a.capacity(), cap_flags_a);
  EXPECT_EQ(scratch.flags_b.capacity(), cap_flags_b);
}

}  // namespace
}  // namespace pdd
