// Tests for the decision-cache subsystem: pair content digests,
// the sharded LRU store (incl. concurrency and disk snapshots), and
// the StageExecutor/DuplicateDetector memoization path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <unordered_map>

#include "cache/decision_cache.h"
#include "cache/pair_digest.h"
#include "core/detector.h"
#include "core/explain.h"
#include "datagen/person_generator.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"
#include "pipeline/stage_executor.h"
#include "plan/plan_builder.h"
#include "sim/edit_distance.h"

namespace pdd {
namespace {

XTuple MakeTuple(const std::string& id, const std::string& name,
                 const std::string& job, double prob = 1.0) {
  return XTuple(id, {{{Value::Certain(name), Value::Certain(job)}, prob}});
}

DetectorConfig PersonConfig() {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.5, 0.3, 0.2};
  config.final_thresholds = {0.4, 0.7};
  return config;
}

GeneratedData SeededPersons(size_t entities = 60, uint64_t seed = 20100301) {
  PersonGenOptions options;
  options.num_entities = entities;
  options.duplicate_rate = 0.8;
  options.uncertainty.value_uncertainty_prob = 0.3;
  options.uncertainty.xtuple_alternative_prob = 0.3;
  options.seed = seed;
  return GeneratePersons(options);
}

void ExpectIdenticalDecisions(const DetectionResult& a,
                              const DetectionResult& b) {
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.id(a.decisions[i].index1), b.id(b.decisions[i].index1))
        << "record " << i;
    EXPECT_EQ(a.id(a.decisions[i].index2), b.id(b.decisions[i].index2))
        << "record " << i;
    // Bit-identical: the cache must serve exactly the bits the stage
    // graph produced, never a re-derived approximation.
    EXPECT_EQ(a.decisions[i].similarity, b.decisions[i].similarity)
        << "record " << i;
    EXPECT_EQ(a.decisions[i].match_class, b.decisions[i].match_class)
        << "record " << i;
  }
}

// --- digests --------------------------------------------------------

TEST(PairDigestTest, TupleDigestIgnoresIdButReadsContent) {
  XTuple a = MakeTuple("t1", "anna", "doctor");
  XTuple same_content = MakeTuple("t2", "anna", "doctor");
  XTuple other_name = MakeTuple("t1", "anne", "doctor");
  XTuple other_prob("t1",
                    {{{Value::Certain("anna"), Value::Certain("doctor")},
                      0.5}});
  EXPECT_EQ(TupleContentDigest(a), TupleContentDigest(same_content));
  EXPECT_NE(TupleContentDigest(a), TupleContentDigest(other_name));
  EXPECT_NE(TupleContentDigest(a), TupleContentDigest(other_prob));
}

TEST(PairDigestTest, ValueDistributionReachesTheDigest) {
  XTuple plain("t", {{{Value::Certain("anna"), Value::Certain("doctor")},
                      1.0}});
  XTuple dist("t", {{{Value::Dist({{"anna", 0.5}, {"hanna", 0.5}}),
                      Value::Certain("doctor")},
                     1.0}});
  XTuple pattern("t", {{{Value::Pattern("anna", 1.0),
                         Value::Certain("doctor")},
                        1.0}});
  EXPECT_NE(TupleContentDigest(plain), TupleContentDigest(dist));
  // Same text and probability, but pattern flag set: must differ.
  EXPECT_NE(TupleContentDigest(plain), TupleContentDigest(pattern));
}

TEST(PairDigestTest, PairDigestIsOrderInvariant) {
  XTuple a = MakeTuple("a", "anna", "doctor");
  XTuple b = MakeTuple("b", "bernd", "baker");
  EXPECT_EQ(PairContentDigest(a, b), PairContentDigest(b, a));
  EXPECT_EQ(CombineTupleDigests(1, 2), CombineTupleDigests(2, 1));
  // Unordered combination must still separate {x,x} from {y,y} (a
  // plain xor would map both to the same digest).
  EXPECT_NE(CombineTupleDigests(1, 1), CombineTupleDigests(2, 2));
}

TEST(PairDigestTest, CollisionSanityOverGeneratedRelation) {
  GeneratedData data = SeededPersons(120);
  // Distinct tuple contents must digest distinctly (64-bit FNV over a
  // few hundred tuples: a collision here means a broken digest, not
  // bad luck).
  std::unordered_map<uint64_t, std::string> seen;
  size_t distinct = 0;
  for (const XTuple& t : data.relation.xtuples()) {
    // ToString() minus the leading id line: digests are content-only,
    // so exact duplicates under different ids SHOULD share a digest.
    std::string content = t.ToString();
    content.erase(0, content.find('\n') + 1);
    uint64_t digest = TupleContentDigest(t);
    auto [it, inserted] = seen.emplace(digest, content);
    if (inserted) {
      ++distinct;
    } else {
      EXPECT_EQ(it->second, content)
          << "digest collision between different contents";
    }
  }
  EXPECT_GT(distinct, 100u);
}

// --- sharded LRU store ----------------------------------------------

PairDecisionKey Key(uint64_t fp, uint64_t digest) {
  PairDecisionKey key;
  key.plan_fingerprint = fp;
  key.pair_digest = digest;
  return key;
}

TEST(ShardedDecisionCacheTest, LruEvictsOldestAtCapacity) {
  ShardedDecisionCacheOptions options;
  options.capacity = 3;
  options.shards = 1;  // single stripe so the LRU order is global
  ShardedDecisionCache cache(options);
  for (uint64_t i = 1; i <= 3; ++i) {
    cache.Insert(Key(7, i), {0.1 * static_cast<double>(i),
                             MatchClass::kUnmatch});
  }
  // Touch key 1 so key 2 becomes the least recently used...
  EXPECT_TRUE(cache.Lookup(Key(7, 1)).has_value());
  cache.Insert(Key(7, 4), {0.4, MatchClass::kMatch});
  // ...and is the one evicted.
  EXPECT_FALSE(cache.Lookup(Key(7, 2)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(7, 1)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(7, 3)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(7, 4)).has_value());
  EXPECT_EQ(cache.size(), 3u);
  DecisionCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.inserts, 4u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 3u);
}

TEST(ShardedDecisionCacheTest, ReinsertRefreshesWithoutEviction) {
  ShardedDecisionCacheOptions options;
  options.capacity = 2;
  options.shards = 1;
  ShardedDecisionCache cache(options);
  cache.Insert(Key(1, 1), {0.1, MatchClass::kUnmatch});
  cache.Insert(Key(1, 2), {0.2, MatchClass::kUnmatch});
  cache.Insert(Key(1, 1), {0.9, MatchClass::kMatch});  // refresh, not new
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Stats().evictions, 0u);
  std::optional<CachedPairDecision> hit = cache.Lookup(Key(1, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->similarity, 0.9);
  EXPECT_EQ(hit->match_class, MatchClass::kMatch);
}

// Regression: capacity must divide over the stripes EXACTLY. The old
// division rounded every stripe up to at least one entry, so capacity 8
// over 16 stripes admitted 16 residents; and plain truncation loses the
// remainder (capacity 10 over 8 stripes bounded only 8). The per-shard
// bounds must always sum to the configured capacity, and the resident
// total must never exceed it.
TEST(ShardedDecisionCacheTest, CapacityDividesOverShardsExactly) {
  struct Case {
    size_t capacity;
    size_t shards;
  };
  const Case cases[] = {{8, 16}, {10, 8}, {3, 16}, {1, 4},
                        {7, 2},  {100, 16}, {4096, 16}};
  for (const Case& c : cases) {
    ShardedDecisionCacheOptions options;
    options.capacity = c.capacity;
    options.shards = c.shards;
    ShardedDecisionCache cache(options);
    // The per-shard bounds sum to the capacity exactly — never more
    // (silent inflation), never less (lost remainder).
    EXPECT_EQ(cache.TotalCapacity(), c.capacity)
        << "capacity " << c.capacity << " over " << c.shards << " shards";
    // Hammer with far more distinct keys than capacity: whatever the
    // hash spread, the resident total must respect the bound.
    for (uint64_t i = 0; i < 64 * c.capacity + 100; ++i) {
      cache.Insert(Key(9, i + 1), {0.5, MatchClass::kPossible});
    }
    EXPECT_LE(cache.size(), c.capacity)
        << "capacity " << c.capacity << " over " << c.shards << " shards";
    EXPECT_EQ(cache.Stats().size, cache.size());
  }
}

TEST(ShardedDecisionCacheTest, SamePairDifferentPlanFingerprints) {
  ShardedDecisionCache cache;
  cache.Insert(Key(1, 42), {0.5, MatchClass::kPossible});
  EXPECT_TRUE(cache.Lookup(Key(1, 42)).has_value());
  // A different plan fingerprint is a different entry: no cross-plan
  // leakage between plans whose decide stages differ.
  EXPECT_FALSE(cache.Lookup(Key(2, 42)).has_value());
}

TEST(ShardedDecisionCacheTest, ConcurrentHammerMatchesReference) {
  // The deterministic value for key i — what every thread inserts and
  // what a single-threaded reference run would hold.
  auto value_of = [](uint64_t i) {
    return CachedPairDecision{static_cast<double>(i) * 0.001,
                              i % 3 == 0 ? MatchClass::kMatch
                                         : MatchClass::kUnmatch};
  };
  constexpr size_t kThreads = 8;
  constexpr size_t kKeys = 2048;
  constexpr size_t kOpsPerThread = 20000;
  ShardedDecisionCacheOptions options;
  options.capacity = 4096;  // no evictions: every key stays resident
  options.shards = 16;
  ShardedDecisionCache cache(options);
  std::atomic<size_t> wrong_values{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      uint64_t state = 0x9e3779b97f4a7c15ull * (t + 1);
      for (size_t op = 0; op < kOpsPerThread; ++op) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        uint64_t i = (state >> 33) % kKeys;
        PairDecisionKey key = Key(/*fp=*/99, /*digest=*/i);
        if (state & 1) {
          cache.Insert(key, value_of(i));
        } else {
          std::optional<CachedPairDecision> hit = cache.Lookup(key);
          if (hit.has_value() && !(*hit == value_of(i))) ++wrong_values;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(wrong_values.load(), 0u)
      << "a lookup observed a value no insert ever wrote";
  // Single-threaded reference sweep: everything inserted must be
  // resident (capacity exceeds the key space) with the right value.
  size_t resident = 0;
  for (uint64_t i = 0; i < kKeys; ++i) {
    std::optional<CachedPairDecision> hit = cache.Lookup(Key(99, i));
    if (!hit.has_value()) continue;
    ++resident;
    EXPECT_TRUE(*hit == value_of(i)) << "key " << i;
  }
  EXPECT_GT(resident, kKeys / 2);
  EXPECT_EQ(cache.Stats().evictions, 0u);
  EXPECT_EQ(cache.size(), resident);
}

// --- disk snapshot --------------------------------------------------

class SnapshotFile {
 public:
  explicit SnapshotFile(const char* name) : path_(name) {
    std::remove(path_.c_str());
  }
  ~SnapshotFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(SnapshotTest, RoundTripIsBitIdentical) {
  SnapshotFile file("decision_cache_test_roundtrip.pddcache");
  ShardedDecisionCache cache;
  // Values chosen to stress the bit-pattern serialization (not
  // representable exactly in short decimal form).
  cache.Insert(Key(0xdeadbeef, 1), {0.1 + 0.2, MatchClass::kMatch});
  cache.Insert(Key(0xdeadbeef, 2), {1.0 / 3.0, MatchClass::kPossible});
  cache.Insert(Key(0xffffffffffffffffull, 0), {0.0, MatchClass::kUnmatch});
  ASSERT_TRUE(cache.AppendSnapshot(file.path()).ok());

  ShardedDecisionCache restored;
  ASSERT_TRUE(restored.LoadSnapshot(file.path()).ok());
  EXPECT_EQ(restored.size(), 3u);
  std::optional<CachedPairDecision> hit = restored.Lookup(Key(0xdeadbeef, 1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->similarity, 0.1 + 0.2);  // exact bits, not ~0.3
  EXPECT_EQ(hit->match_class, MatchClass::kMatch);
  hit = restored.Lookup(Key(0xdeadbeef, 2));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->similarity, 1.0 / 3.0);
  EXPECT_EQ(hit->match_class, MatchClass::kPossible);
}

TEST(SnapshotTest, SavesAreAppendOnly) {
  SnapshotFile file("decision_cache_test_append.pddcache");
  ShardedDecisionCache cache;
  cache.Insert(Key(1, 1), {0.25, MatchClass::kUnmatch});
  ASSERT_TRUE(cache.AppendSnapshot(file.path()).ok());
  // Second save with no new entries must not grow the file.
  std::ifstream before(file.path(), std::ios::ate);
  std::streampos size_before = before.tellg();
  before.close();
  ASSERT_TRUE(cache.AppendSnapshot(file.path()).ok());
  std::ifstream unchanged(file.path(), std::ios::ate);
  EXPECT_EQ(unchanged.tellg(), size_before);
  unchanged.close();
  // New inserts append; the earlier entry survives a reload.
  cache.Insert(Key(1, 2), {0.75, MatchClass::kMatch});
  ASSERT_TRUE(cache.AppendSnapshot(file.path()).ok());
  ShardedDecisionCache restored;
  ASSERT_TRUE(restored.LoadSnapshot(file.path()).ok());
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_TRUE(restored.Lookup(Key(1, 1)).has_value());
  EXPECT_TRUE(restored.Lookup(Key(1, 2)).has_value());
}

TEST(SnapshotTest, MissingFileIsNotFoundAndGarbageIsParseError) {
  ShardedDecisionCache cache;
  Status missing = cache.LoadSnapshot("decision_cache_test_missing.tmp");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  SnapshotFile file("decision_cache_test_garbage.pddcache");
  {
    std::ofstream out(file.path());
    out << "not a cache file\n";
  }
  EXPECT_EQ(cache.LoadSnapshot(file.path()).code(),
            StatusCode::kParseError);
}

// --- executor integration -------------------------------------------

TEST(CachedExecutionTest, CachedColdWarmAndParallelAreBitIdentical) {
  GeneratedData data = SeededPersons();
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok()) << detector.status().ToString();
  Result<DetectionResult> uncached = detector->Run(data.relation);
  ASSERT_TRUE(uncached.ok());
  ASSERT_GT(uncached->decisions.size(), 0u);
  EXPECT_FALSE(uncached->cache_stats.has_value());

  auto cache = std::make_shared<ShardedDecisionCache>();
  detector->set_cache(cache);
  Result<DetectionResult> cold = detector->Run(data.relation);
  ASSERT_TRUE(cold.ok());
  Result<DetectionResult> warm = detector->Run(data.relation);
  ASSERT_TRUE(warm.ok());
  ExpectIdenticalDecisions(*uncached, *cold);
  ExpectIdenticalDecisions(*uncached, *warm);

  ASSERT_TRUE(cold.value().cache_stats.has_value());
  ASSERT_TRUE(warm.value().cache_stats.has_value());
  // The repeated identical run must be pure hit path.
  EXPECT_EQ(warm->cache_stats->hits, warm->cache_stats->lookups);
  EXPECT_GT(warm->cache_stats->HitRate(), 0.95);
  EXPECT_EQ(warm->cache_stats->inserts, 0u);

  // Thread-pool run against the same cache: still bit-identical.
  Result<std::unique_ptr<CandidateStream>> stream =
      MakeFullStream(detector->plan(), data.relation);
  ASSERT_TRUE(stream.ok());
  StageExecutorOptions options;
  options.workers = 4;
  options.batch_size = 32;
  options.cache = cache;
  StageExecutor executor(detector->shared_plan(), options);
  Result<DetectionResult> parallel = executor.Execute(**stream);
  ASSERT_TRUE(parallel.ok());
  ExpectIdenticalDecisions(*uncached, *parallel);
  EXPECT_GT(parallel->cache_stats->HitRate(), 0.95);
}

TEST(CachedExecutionTest, StageTimingsAccumulateWhenOptedIn) {
  GeneratedData data = SeededPersons(30);
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  // Off by default: the hot path pays no clock reads unasked.
  Result<DetectionResult> untimed = detector->Run(data.relation);
  ASSERT_TRUE(untimed.ok());
  EXPECT_EQ(untimed->stage_timings.TotalSeconds(), 0.0);

  detector->set_collect_stage_timings(true);
  Result<DetectionResult> timed = detector->Run(data.relation);
  ASSERT_TRUE(timed.ok());
  EXPECT_GT(timed->stage_timings.TotalSeconds(), 0.0);
  EXPECT_GT(timed->stage_timings.match_seconds, 0.0);
  // The timed walk executes the same stage graph bit for bit.
  ExpectIdenticalDecisions(*untimed, *timed);
}

TEST(CachedExecutionTest, ReductionSweepReusesDecisionsAcrossPlans) {
  GeneratedData data = SeededPersons();
  auto cache = std::make_shared<ShardedDecisionCache>();
  auto make_plan = [&](size_t window) {
    PlanBuilder builder;
    builder.AddKey("name", 3).AddKey("job", 2).Weights({0.5, 0.3, 0.2});
    builder.Reduction("snm_sorting_alternatives")
        .Set("reduction.window", window);
    Result<std::shared_ptr<const DetectionPlan>> plan =
        DetectionPlan::Compile(builder.Build(), PersonSchema());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return *plan;
  };
  std::shared_ptr<const DetectionPlan> narrow = make_plan(3);
  std::shared_ptr<const DetectionPlan> wide = make_plan(9);
  // Different full plan identities, same decide stage.
  EXPECT_NE(narrow->fingerprint(), wide->fingerprint());
  EXPECT_EQ(narrow->decision_fingerprint(), wide->decision_fingerprint());

  auto run = [&](const std::shared_ptr<const DetectionPlan>& plan,
                 std::shared_ptr<DecisionCache> shared) {
    Result<std::unique_ptr<CandidateStream>> stream =
        MakeFullStream(*plan, data.relation);
    EXPECT_TRUE(stream.ok());
    StageExecutorOptions options;
    options.cache = std::move(shared);
    Result<DetectionResult> result =
        StageExecutor(plan, options).Execute(**stream);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(*result);
  };
  DetectionResult narrow_run = run(narrow, cache);
  DetectionResult wide_uncached = run(wide, nullptr);
  // A fresh-cache run isolates the intra-run hits (generated data has
  // exact content duplicates, which legitimately hit each other)...
  DetectionResult wide_fresh =
      run(wide, std::make_shared<ShardedDecisionCache>());
  DetectionResult wide_cached = run(wide, cache);
  // ...so cross-plan reuse shows as hits beyond the fresh-cache count:
  // the wide window examines a superset of the narrow window's pairs
  // and pulls those decisions from the shared cache.
  EXPECT_GT(wide_cached.cache_stats->hits,
            wide_fresh.cache_stats->hits);
  EXPECT_GE(wide_cached.cache_stats->hits,
            narrow_run.cache_stats->inserts);
  ExpectIdenticalDecisions(wide_uncached, wide_cached);
}

TEST(CachedExecutionTest, ChangedDecideComponentsNeverServeStale) {
  GeneratedData data = SeededPersons();
  auto cache = std::make_shared<ShardedDecisionCache>();
  DetectorConfig config = PersonConfig();
  Result<DuplicateDetector> original =
      DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(original.ok());
  original->set_cache(cache);
  ASSERT_TRUE(original->Run(data.relation).ok());  // populate

  // A decide-relevant change (derivation ϑ) yields a new decision
  // fingerprint: zero hits, fresh decisions identical to uncached.
  config.derivation = DerivationKind::kMinSimilarity;
  Result<DuplicateDetector> changed =
      DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(changed.ok());
  EXPECT_NE(changed->plan().decision_fingerprint(),
            original->plan().decision_fingerprint());
  Result<DetectionResult> fresh_uncached = changed->Run(data.relation);
  ASSERT_TRUE(fresh_uncached.ok());
  changed->set_cache(cache);
  Result<DetectionResult> on_shared = changed->Run(data.relation);
  ASSERT_TRUE(on_shared.ok());
  changed->set_cache(std::make_shared<ShardedDecisionCache>());
  Result<DetectionResult> on_empty = changed->Run(data.relation);
  ASSERT_TRUE(on_empty.ok());
  // Intra-run content-duplicate hits are fine and identical either
  // way; anything beyond them would be a stale entry served from the
  // original plan's population.
  EXPECT_EQ(on_shared->cache_stats->hits, on_empty->cache_stats->hits);
  ExpectIdenticalDecisions(*fresh_uncached, *on_shared);

  // Threshold changes are decide-relevant too.
  DetectorConfig thresholds = PersonConfig();
  thresholds.final_thresholds = {0.3, 0.9};
  Result<DuplicateDetector> rethresholded =
      DuplicateDetector::Make(thresholds, PersonSchema());
  ASSERT_TRUE(rethresholded.ok());
  EXPECT_NE(rethresholded->plan().decision_fingerprint(),
            original->plan().decision_fingerprint());
}

TEST(CachedExecutionTest, IncrementalRerunHitsAndInvalidatesByPlan) {
  GeneratedData existing = SeededPersons(30);
  GeneratedData additions_data = SeededPersons(10, /*seed=*/77);
  XRelation additions("additions", additions_data.relation.schema());
  size_t n = 0;
  for (const XTuple& t : additions_data.relation.xtuples()) {
    XTuple renamed("new" + std::to_string(n++), t.alternatives());
    ASSERT_TRUE(additions.Append(std::move(renamed)).ok());
  }
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> uncached =
      detector->RunIncremental(existing.relation, additions);
  ASSERT_TRUE(uncached.ok());

  auto cache = std::make_shared<ShardedDecisionCache>();
  detector->set_cache(cache);
  Result<DetectionResult> cold =
      detector->RunIncremental(existing.relation, additions);
  ASSERT_TRUE(cold.ok());
  // An identical incremental re-run is pure hit path (100%).
  Result<DetectionResult> warm =
      detector->RunIncremental(existing.relation, additions);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache_stats->hits, warm->cache_stats->lookups);
  EXPECT_GT(warm->cache_stats->HitRate(), 0.95);
  ExpectIdenticalDecisions(*uncached, *cold);
  ExpectIdenticalDecisions(*uncached, *warm);

  // A changed plan fingerprint (decide-relevant: Tμ) must not serve
  // any of those entries.
  DetectorConfig strict = PersonConfig();
  strict.final_thresholds = {0.4, 0.95};
  Result<DuplicateDetector> changed =
      DuplicateDetector::Make(strict, PersonSchema());
  ASSERT_TRUE(changed.ok());
  Result<DetectionResult> changed_uncached =
      changed->RunIncremental(existing.relation, additions);
  ASSERT_TRUE(changed_uncached.ok());
  changed->set_cache(cache);
  Result<DetectionResult> on_shared =
      changed->RunIncremental(existing.relation, additions);
  ASSERT_TRUE(on_shared.ok());
  changed->set_cache(std::make_shared<ShardedDecisionCache>());
  Result<DetectionResult> on_empty =
      changed->RunIncremental(existing.relation, additions);
  ASSERT_TRUE(on_empty.ok());
  // Only intra-run content-duplicate hits are allowed — none of the
  // old plan's entries may be served under the new fingerprint.
  EXPECT_EQ(on_shared->cache_stats->hits, on_empty->cache_stats->hits);
  ExpectIdenticalDecisions(*changed_uncached, *on_shared);
}

TEST(CachedExecutionTest, CustomComparatorPlansBypassTheCache) {
  GeneratedData data = SeededPersons(20);
  NormalizedHammingComparator hamming;
  DetectorConfig config = PersonConfig();
  config.custom_comparators = {&hamming, &hamming, &hamming};
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(detector.ok()) << detector.status().ToString();
  EXPECT_EQ(detector->plan().decision_fingerprint(), 0u);
  auto cache = std::make_shared<ShardedDecisionCache>();
  detector->set_cache(cache);
  Result<DetectionResult> first = detector->Run(data.relation);
  Result<DetectionResult> second = detector->Run(data.relation);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Stats are reported (a cache was attached) but nothing was looked
  // up or stored: no stable key exists for custom code.
  ASSERT_TRUE(second->cache_stats.has_value());
  EXPECT_EQ(second->cache_stats->lookups, 0u);
  EXPECT_EQ(cache->size(), 0u);
  ExpectIdenticalDecisions(*first, *second);
}

// --- fingerprint stamping (0 == unknown; real runs stamp real ids) --

TEST(FingerprintStampingTest, EveryEntryPathStampsANonZeroFingerprint) {
  GeneratedData data = SeededPersons(20);
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  EXPECT_NE(detector->plan().fingerprint(), 0u);
  EXPECT_NE(detector->plan().decision_fingerprint(), 0u);

  Result<DetectionResult> full = detector->Run(data.relation);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->plan_fingerprint, detector->plan().fingerprint());
  EXPECT_NE(full->plan_fingerprint, 0u);

  PersonGenOptions options;
  options.num_entities = 10;
  options.seed = 4242;
  GeneratedSources sources = GeneratePersonSources(options);
  Result<DetectionResult> unioned =
      detector->RunOnSources(sources.source1, sources.source2);
  ASSERT_TRUE(unioned.ok());
  EXPECT_NE(unioned->plan_fingerprint, 0u);

  GeneratedData additions = SeededPersons(5, /*seed=*/99);
  XRelation renamed("additions", additions.relation.schema());
  size_t n = 0;
  for (const XTuple& t : additions.relation.xtuples()) {
    ASSERT_TRUE(
        renamed.Append(XTuple("new" + std::to_string(n++), t.alternatives()))
            .ok());
  }
  Result<DetectionResult> incremental =
      detector->RunIncremental(data.relation, renamed);
  ASSERT_TRUE(incremental.ok());
  EXPECT_NE(incremental->plan_fingerprint, 0u);

  PairExplanation explanation = ExplainPair(
      *detector, data.relation.xtuple(0), data.relation.xtuple(1));
  EXPECT_EQ(explanation.plan_fingerprint, detector->plan().fingerprint());
  EXPECT_NE(explanation.plan_fingerprint, 0u);
}

}  // namespace
}  // namespace pdd
