// Tests for the decision-cache subsystem: pair content digests,
// the sharded CLOCK store (incl. concurrency, allocation counts and
// disk snapshots), and the StageExecutor/DuplicateDetector memoization
// path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>

#include "cache/decision_cache.h"
#include "cache/pair_digest.h"
#include "core/detector.h"
#include "core/explain.h"
#include "datagen/person_generator.h"
#include "obs/export.h"
#include "obs/run_telemetry.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"
#include "pipeline/stage_executor.h"
#include "plan/plan_builder.h"
#include "sim/edit_distance.h"

// Allocation counters of tests/alloc_hooks.cc.
extern std::atomic<uint64_t> g_alloc_count;
extern std::atomic<uint64_t> g_alloc_bytes;

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

// --- sharded CLOCK store --------------------------------------------

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

// Reference CLOCK store for one stripe: a ring of entries, a key →
// position map and the hand. Same policy as the real store, none of
// its layout.
class ReferenceClock {
 public:
  explicit ReferenceClock(size_t capacity) : capacity_(capacity) {}

  std::optional<CachedPairDecision> Lookup(uint64_t key) {
    auto it = where_.find(key);
    if (it == where_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    ring_[it->second].referenced = true;
    return ring_[it->second].value;
  }

  void Insert(uint64_t key, const CachedPairDecision& value) {
    auto it = where_.find(key);
    if (it != where_.end()) {
      ring_[it->second] = {key, value, true};
      return;
    }
    ++stats_.inserts;
    if (ring_.size() < capacity_) {
      where_[key] = ring_.size();
      ring_.push_back({key, value, false});
      return;
    }
    while (ring_[hand_].referenced) {
      ring_[hand_].referenced = false;
      hand_ = (hand_ + 1) % capacity_;
    }
    where_.erase(ring_[hand_].key);
    ++stats_.evictions;
    ring_[hand_] = {key, value, false};
    where_[key] = hand_;
    hand_ = (hand_ + 1) % capacity_;
  }

  DecisionCacheStats Stats() const {
    DecisionCacheStats stats = stats_;
    stats.size = ring_.size();
    return stats;
  }

 private:
  struct Slot {
    uint64_t key;
    CachedPairDecision value;
    bool referenced;
  };
  size_t capacity_;
  size_t hand_ = 0;
  std::vector<Slot> ring_;
  std::unordered_map<uint64_t, size_t> where_;
  DecisionCacheStats stats_;
};

// Differential test of the flat store against the reference model
// under churn over 4x capacity keys: every eviction backward-shifts the
// index, so any probe-chain breakage shows up as a hit/miss mismatch.
TEST(ShardedDecisionCacheTest, MatchesReferenceClockModel) {
  for (size_t capacity : {size_t{1}, size_t{3}, size_t{257}, size_t{4096}}) {
    ShardedDecisionCacheOptions options;
    options.capacity = capacity;
    options.shards = 1;
    ShardedDecisionCache cache(options);
    ReferenceClock model(capacity);
    const uint64_t key_space = 4 * capacity;
    uint64_t state = 0x2545f4914f6cdd1dull ^ capacity;
    for (size_t op = 0; op < 200000; ++op) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const uint64_t k = (state >> 33) % key_space + 1;
      const CachedPairDecision value{static_cast<double>(op),
                                     static_cast<MatchClass>(op % 3)};
      const uint64_t kind = (state >> 17) % 3;
      if (kind == 1) {
        // Plain insert: a resident key makes this a re-insert.
        cache.Insert(Key(5, k), value);
        model.Insert(k, value);
        continue;
      }
      std::optional<CachedPairDecision> got = cache.Lookup(Key(5, k));
      std::optional<CachedPairDecision> want = model.Lookup(k);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "capacity " << capacity << " op " << op << " key " << k;
      if (got.has_value()) {
        ASSERT_TRUE(*got == *want) << "capacity " << capacity << " op " << op;
      } else if (kind == 2) {
        // The executor's pattern: a miss is decided, then inserted.
        cache.Insert(Key(5, k), value);
        model.Insert(k, value);
      }
    }
    const DecisionCacheStats got = cache.Stats();
    const DecisionCacheStats want = model.Stats();
    EXPECT_EQ(got.hits, want.hits) << "capacity " << capacity;
    EXPECT_EQ(got.misses, want.misses) << "capacity " << capacity;
    EXPECT_EQ(got.inserts, want.inserts) << "capacity " << capacity;
    EXPECT_EQ(got.evictions, want.evictions) << "capacity " << capacity;
    EXPECT_EQ(got.size, want.size) << "capacity " << capacity;
    EXPECT_GT(got.evictions, 0u) << "capacity " << capacity;
    // Same resident key set.
    for (uint64_t k = 1; k <= key_space; ++k) {
      EXPECT_EQ(cache.Lookup(Key(5, k)).has_value(),
                model.Lookup(k).has_value())
          << "capacity " << capacity << " key " << k;
    }
  }
}

TEST(ShardedDecisionCacheTest, LookedUpEntrySurvivesTheNextEviction) {
  ShardedDecisionCacheOptions options;
  options.capacity = 4;
  options.shards = 1;
  ShardedDecisionCache cache(options);
  for (uint64_t i = 1; i <= 5; ++i) {  // 5 evicts 1; the hand is at 2
    cache.Insert(Key(2, i), {0.5, MatchClass::kPossible});
  }
  // Key 2 is looked up since the hand last passed it: the next
  // eviction clears its bit and takes the younger key 3 instead.
  EXPECT_TRUE(cache.Lookup(Key(2, 2)).has_value());
  cache.Insert(Key(2, 6), {0.5, MatchClass::kPossible});
  EXPECT_FALSE(cache.Lookup(Key(2, 3)).has_value());
  EXPECT_EQ(cache.Stats().evictions, 2u);
  // The chance is spent: untouched since, key 2 goes when the hand
  // comes round again (after 4 and 5).
  for (uint64_t i = 7; i <= 9; ++i) {
    cache.Insert(Key(2, i), {0.5, MatchClass::kPossible});
  }
  for (uint64_t gone : {1, 2, 3, 4, 5}) {
    EXPECT_FALSE(cache.Lookup(Key(2, gone)).has_value()) << "key " << gone;
  }
  for (uint64_t kept : {6, 7, 8, 9}) {
    EXPECT_TRUE(cache.Lookup(Key(2, kept)).has_value()) << "key " << kept;
  }
}

// Entry positions are 32-bit, so no stripe's bound may pass
// kMaxShardCapacity: a larger capacity clamps to shards x the cap,
// remainder included, and still costs nothing until it fills.
TEST(ShardedDecisionCacheTest, CapacityClampsToTheStripeCap) {
  constexpr size_t kCap = ShardedDecisionCache::kMaxShardCapacity;
  for (size_t capacity : {16 * kCap + 5, std::numeric_limits<size_t>::max()}) {
    ShardedDecisionCacheOptions options;
    options.capacity = capacity;
    options.shards = 16;
    ShardedDecisionCache cache(options);
    EXPECT_EQ(cache.TotalCapacity(), 16 * kCap);
    EXPECT_EQ(cache.options().capacity, 16 * kCap);
    cache.Insert(Key(1, 1), {0.5, MatchClass::kMatch});
    EXPECT_TRUE(cache.Lookup(Key(1, 1)).has_value());
  }
  // Exactly shards x the cap is not clamped.
  ShardedDecisionCacheOptions exact;
  exact.capacity = 4 * kCap;
  exact.shards = 4;
  EXPECT_EQ(ShardedDecisionCache(exact).TotalCapacity(), 4 * kCap);
}

// The store allocates per stripe, not per entry: construction costs
// the stripes only, whatever the capacity, and inserts cost amortized
// array doublings.
TEST(ShardedDecisionCacheTest, AllocatesPerStripeNotPerEntry) {
  const uint64_t bytes_before = g_alloc_bytes.load(std::memory_order_relaxed);
  ShardedDecisionCacheOptions options;
  options.capacity = size_t{1} << 20;
  auto cache = std::make_unique<ShardedDecisionCache>(options);
  EXPECT_LT(g_alloc_bytes.load(std::memory_order_relaxed) - bytes_before,
            64u * 1024u);
  const uint64_t count_before = g_alloc_count.load(std::memory_order_relaxed);
  for (uint64_t i = 1; i <= 100000; ++i) {
    cache->Insert(Key(3, i), {0.25, MatchClass::kUnmatch});
  }
  EXPECT_LT(g_alloc_count.load(std::memory_order_relaxed) - count_before,
            2000u);
  EXPECT_EQ(cache->size(), 100000u);
  EXPECT_EQ(cache->Stats().evictions, 0u);
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
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());

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

TEST(SnapshotTest, ResavingKeepsTheSizeAndAddsNewEntries) {
  SnapshotFile file("decision_cache_test_append.pddcache");
  ShardedDecisionCache cache;
  cache.Insert(Key(1, 1), {0.25, MatchClass::kUnmatch});
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
  // Second save with no new entries must not grow the file.
  std::ifstream before(file.path(), std::ios::ate);
  std::streampos size_before = before.tellg();
  before.close();
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
  std::ifstream unchanged(file.path(), std::ios::ate);
  EXPECT_EQ(unchanged.tellg(), size_before);
  unchanged.close();
  // A new insert is saved too; the earlier entry survives a reload.
  cache.Insert(Key(1, 2), {0.75, MatchClass::kMatch});
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
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

std::string ReadText(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

TEST(SnapshotTest, ReloadRebuildsTheClockOrder) {
  SnapshotFile file("decision_cache_test_clock_order.pddcache");
  ShardedDecisionCacheOptions options;
  options.capacity = 8;
  options.shards = 1;
  ShardedDecisionCache writer(options);
  // 13 inserts into 8 entries: 5 evictions leave the hand mid-array.
  for (uint64_t i = 1; i <= 13; ++i) {
    writer.Insert(Key(6, i), {0.5, MatchClass::kMatch});
  }
  ASSERT_TRUE(writer.SaveSnapshot(file.path()).ok());
  ShardedDecisionCache reader(options);
  ASSERT_TRUE(reader.LoadSnapshot(file.path()).ok());
  EXPECT_EQ(reader.size(), 8u);
  // Both evict the same keys for the next inserts.
  for (uint64_t i = 100; i <= 102; ++i) {
    writer.Insert(Key(6, i), {0.5, MatchClass::kMatch});
    reader.Insert(Key(6, i), {0.5, MatchClass::kMatch});
  }
  for (uint64_t i = 1; i <= 102; ++i) {
    EXPECT_EQ(writer.Lookup(Key(6, i)).has_value(),
              reader.Lookup(Key(6, i)).has_value())
        << "key " << i;
  }
  EXPECT_FALSE(reader.Lookup(Key(6, 6)).has_value());
}

TEST(SnapshotTest, TornFinalLineIsDroppedAndTheNextSaveEndsClean) {
  SnapshotFile file("decision_cache_test_torn.pddcache");
  ShardedDecisionCache cache;
  for (uint64_t i = 1; i <= 5; ++i) {
    cache.Insert(Key(4, i), {0.125 * static_cast<double>(i),
                             MatchClass::kMatch});
  }
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
  // A file cut 7 bytes short of its end, as an older build's append
  // could leave it. Every entry line is three 16-digit hex fields, a
  // class code, three spaces and '\n'.
  const uintmax_t size = std::filesystem::file_size(file.path());
  std::filesystem::resize_file(file.path(), size - 7);
  ShardedDecisionCache restored;
  size_t torn_bytes = 0;
  ASSERT_TRUE(restored.LoadSnapshot(file.path(), &torn_bytes).ok());
  EXPECT_EQ(torn_bytes, 53u - 7u);
  EXPECT_EQ(restored.size(), 4u);

  // The next save writes the resident set whole: the file ends on a
  // complete line and reloads clean, with the new entry.
  restored.Insert(Key(4, 6), {0.75, MatchClass::kPossible});
  ASSERT_TRUE(restored.SaveSnapshot(file.path()).ok());
  const std::string text = ReadText(file.path());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  ShardedDecisionCache reloaded;
  torn_bytes = 99;
  ASSERT_TRUE(reloaded.LoadSnapshot(file.path(), &torn_bytes).ok());
  EXPECT_EQ(torn_bytes, 0u);
  EXPECT_EQ(reloaded.size(), 5u);
  EXPECT_TRUE(reloaded.Lookup(Key(4, 6)).has_value());
}

TEST(SnapshotTest, TornHeaderLoadsEmptyAndForeignLineIsRejected) {
  SnapshotFile file("decision_cache_test_torn_header.pddcache");
  // The first save stopped inside the header.
  WriteText(file.path(), "# pddca");
  ShardedDecisionCache cache;
  size_t torn_bytes = 0;
  ASSERT_TRUE(cache.LoadSnapshot(file.path(), &torn_bytes).ok());
  EXPECT_EQ(torn_bytes, 7u);
  EXPECT_EQ(cache.size(), 0u);
  cache.Insert(Key(8, 1), {0.5, MatchClass::kMatch});
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
  ShardedDecisionCache reloaded;
  ASSERT_TRUE(reloaded.LoadSnapshot(file.path(), &torn_bytes).ok());
  EXPECT_EQ(torn_bytes, 0u);
  EXPECT_EQ(reloaded.size(), 1u);

  // One unterminated line that is no piece of the header is not a
  // torn snapshot: loading fails and saving leaves the file alone.
  WriteText(file.path(), "not a cache file");
  EXPECT_EQ(cache.LoadSnapshot(file.path()).code(), StatusCode::kParseError);
  EXPECT_FALSE(cache.SaveSnapshot(file.path()).ok());
  EXPECT_EQ(ReadText(file.path()), "not a cache file");
}

TEST(SnapshotTest, CompleteMalformedLineAndMissingHeaderAreParseErrors) {
  SnapshotFile file("decision_cache_test_malformed.pddcache");
  const std::string entry =
      "00000000000000010000000000000002 3fe0000000000000 m\n";
  const std::string good_line =
      "0000000000000001 0000000000000002 3fe0000000000000 m\n";
  ShardedDecisionCache cache;
  // A cut line that still ends in '\n' is malformed, not torn.
  WriteText(file.path(), "# pddcache v1\n" + good_line + entry);
  Status malformed = cache.LoadSnapshot(file.path());
  EXPECT_EQ(malformed.code(), StatusCode::kParseError);
  EXPECT_NE(malformed.ToString().find("line 3"), std::string::npos)
      << malformed.ToString();
  // The first non-blank line must be the header, blank lines or not.
  WriteText(file.path(), "\n" + good_line);
  EXPECT_EQ(cache.LoadSnapshot(file.path()).code(), StatusCode::kParseError);
  WriteText(file.path(), "\n\n# pddcache v1\n" + good_line);
  ShardedDecisionCache headed;
  ASSERT_TRUE(headed.LoadSnapshot(file.path()).ok());
  EXPECT_EQ(headed.size(), 1u);
}

// The line syntax the loader accepts, pinned: fields are separated by
// runs of any whitespace byte (the "C" locale's isspace), hex fields
// are 1 to 16 lower-case digits, and blank and '#' lines after the
// header are skipped.
TEST(SnapshotTest, LoaderAcceptsExactlyTheLineSyntax) {
  SnapshotFile file("decision_cache_test_syntax.pddcache");
  WriteText(file.path(),
            " \t# pddcache v1 \r\n"
            "\n"
            " \t\v\f\r\n"
            "# a comment after the header\n"
            "  #another\n"
            "1 2 3ff0000000000000 m\n"
            "\t0000000000000001\t\t3  3fe0000000000000\tp \r\n"
            "a  \v b\f 0 u\n");
  ShardedDecisionCache cache;
  ASSERT_TRUE(cache.LoadSnapshot(file.path()).ok());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.Lookup(Key(1, 2)),
            std::optional<CachedPairDecision>({1.0, MatchClass::kMatch}));
  EXPECT_EQ(cache.Lookup(Key(1, 3)),
            std::optional<CachedPairDecision>({0.5, MatchClass::kPossible}));
  EXPECT_EQ(cache.Lookup(Key(0xa, 0xb)),
            std::optional<CachedPairDecision>({0.0, MatchClass::kUnmatch}));

  const std::string head = "# pddcache v1\n1 2 3 m\n";
  // Each one line fails the load, naming that line.
  const char* const rejected[] = {
      "1 2 3\n",       "1 2 3 m x\n",  "1 2 3A m\n",
      "1 2 0x3 m\n",   "1 2 3 mm\n",   "1 2 12345678901234567 m\n",
      "1,2 3 4 m\n",   "1 2 -3 m\n",   "1 2 3 M\n",
  };
  for (const char* line : rejected) {
    WriteText(file.path(), head + line);
    ShardedDecisionCache rejecting;
    Status status = rejecting.LoadSnapshot(file.path());
    EXPECT_EQ(status.code(), StatusCode::kParseError) << line;
    EXPECT_NE(status.ToString().find("line 3"), std::string::npos)
        << status.ToString();
  }
}

std::vector<std::string> EntryLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  std::getline(in, line);  // the header
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// A save writes what is resident, not what was ever inserted: however
// often a churning cache is saved, the file has size() + 1 lines and
// holds no evicted key.
TEST(SnapshotTest, SavesHoldExactlyTheResidentSet) {
  SnapshotFile file("decision_cache_test_resident.pddcache");
  ShardedDecisionCacheOptions options;
  options.capacity = 8;
  options.shards = 1;
  ShardedDecisionCache cache(options);
  uint64_t next = 1;
  for (; next <= 8; ++next) {
    cache.Insert(Key(9, next), {0.5, MatchClass::kMatch});
  }
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 20; ++i, ++next) {
      cache.Insert(Key(9, next), {0.5, MatchClass::kMatch});
    }
    ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
    ASSERT_EQ(cache.size(), 8u);
    const std::string text = ReadText(file.path());
    EXPECT_EQ(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')),
              cache.size() + 1)
        << "cycle " << cycle;
    const std::vector<std::string> lines = EntryLines(file.path());
    EXPECT_EQ(std::set<std::string>(lines.begin(), lines.end()).size(),
              lines.size());
    ShardedDecisionCache reloaded(options);
    ASSERT_TRUE(reloaded.LoadSnapshot(file.path()).ok());
    EXPECT_EQ(reloaded.size(), cache.size());
    for (uint64_t k = 1; k < next; ++k) {
      if (reloaded.Lookup(Key(9, k)).has_value()) {
        EXPECT_TRUE(cache.Lookup(Key(9, k)).has_value())
            << "evicted key " << k << " saved in cycle " << cycle;
      }
    }
  }
}

// Saves copy each stripe under its lock while workers insert and
// evict: every save stays loadable, with only keys that were inserted
// and their own values (TSan watches the copy).
TEST(SnapshotTest, SavesWhileWorkersInsertStayConsistent) {
  SnapshotFile file("decision_cache_test_concurrent.pddcache");
  auto value_of = [](uint64_t i) {
    return CachedPairDecision{static_cast<double>(i) * 0.25,
                              MatchClass::kPossible};
  };
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kKeysPerThread = 5000;
  ShardedDecisionCacheOptions options;
  options.capacity = 1024;  // churns: most inserts evict
  ShardedDecisionCache cache(options);
  std::atomic<bool> done{false};
  std::vector<std::thread> pool;
  for (uint64_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      for (uint64_t i = t * kKeysPerThread; i < (t + 1) * kKeysPerThread;
           ++i) {
        cache.Insert(Key(12, i), value_of(i));
      }
    });
  }
  std::thread saver([&]() {
    while (!done.load()) {
      ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
    }
  });
  for (std::thread& t : pool) t.join();
  done.store(true);
  saver.join();
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
  ShardedDecisionCache reloaded(options);
  ASSERT_TRUE(reloaded.LoadSnapshot(file.path()).ok());
  EXPECT_EQ(reloaded.size(), cache.size());
  for (uint64_t i = 0; i < kThreads * kKeysPerThread; ++i) {
    std::optional<CachedPairDecision> hit = reloaded.Lookup(Key(12, i));
    if (hit.has_value()) {
      EXPECT_EQ(*hit, value_of(i)) << "key " << i;
    }
  }
}

// A save replaces the file instead of rewriting it in place: a hard
// link taken before it still reads the old bytes.
TEST(SnapshotTest, SaveReplacesTheFileRatherThanRewritingIt) {
  SnapshotFile file("decision_cache_test_replace.pddcache");
  SnapshotFile link("decision_cache_test_replace_link.pddcache");
  ShardedDecisionCache cache;
  cache.Insert(Key(10, 1), {0.5, MatchClass::kMatch});
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
  const std::string before = ReadText(file.path());
  std::filesystem::create_hard_link(file.path(), link.path());
  cache.Insert(Key(10, 2), {0.25, MatchClass::kUnmatch});
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
  EXPECT_EQ(ReadText(link.path()), before);
  EXPECT_NE(ReadText(file.path()), before);
}

// A save holds one stripe at a time: it allocates one stripe's entry
// copy and text, not the text of the whole file. Here that is about
// 217 KB of text per stripe against a 3.5 MB file.
TEST(SnapshotTest, SaveAllocatesOneStripeNotTheWholeFile) {
  SnapshotFile file("decision_cache_test_stripe_save.pddcache");
  ShardedDecisionCacheOptions options;
  options.capacity = size_t{1} << 20;
  options.shards = 16;
  ShardedDecisionCache cache(options);
  constexpr uint64_t kResidents = 64 * 1024;
  for (uint64_t i = 0; i < kResidents; ++i) {
    cache.Insert(Key(15, i), {0.5, MatchClass::kMatch});
  }
  ASSERT_EQ(cache.size(), kResidents);
  constexpr uint64_t kLineBytes = 53;
  const uint64_t stripe_text = kLineBytes * kResidents / 16;
  const uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
  EXPECT_LT(g_alloc_bytes.load(std::memory_order_relaxed) - before,
            3 * stripe_text);
  EXPECT_EQ(ReadText(file.path()).size(),
            sizeof("# pddcache v1\n") - 1 + kLineBytes * kResidents);
}

// A file an appending build grew over three runs repeats a key: the
// load keeps its last line, and the next save compacts the file to
// the resident set.
TEST(SnapshotTest, AppendEraFileLoadsItsLastStateAndTheNextSaveCompactsIt) {
  SnapshotFile file("decision_cache_test_append_era.pddcache");
  WriteText(file.path(),
            "# pddcache v1\n"
            "0000000000000001 0000000000000001 3fd0000000000000 u\n"
            "0000000000000001 0000000000000002 3fe0000000000000 p\n"
            "0000000000000001 0000000000000001 3fe8000000000000 p\n"
            "0000000000000001 0000000000000003 3ff0000000000000 m\n"
            "0000000000000001 0000000000000001 3ff0000000000000 m\n");
  ShardedDecisionCache cache;
  ASSERT_TRUE(cache.LoadSnapshot(file.path()).ok());
  EXPECT_EQ(cache.size(), 3u);
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
  EXPECT_EQ(EntryLines(file.path()).size(), 3u);
  ShardedDecisionCache reloaded;
  ASSERT_TRUE(reloaded.LoadSnapshot(file.path()).ok());
  EXPECT_EQ(reloaded.size(), 3u);
  EXPECT_EQ(reloaded.Lookup(Key(1, 1)),
            std::optional<CachedPairDecision>({1.0, MatchClass::kMatch}));
  EXPECT_EQ(reloaded.Lookup(Key(1, 2)),
            std::optional<CachedPairDecision>({0.5, MatchClass::kPossible}));
}

// Only a snapshot is replaced: a file whose first line is anything
// else is refused and left as it was.
TEST(SnapshotTest, SaveRefusesAFileThatIsNotASnapshot) {
  SnapshotFile file("decision_cache_test_foreign.pddcache");
  WriteText(file.path(), "id,name\nr1,Tim\n");
  ShardedDecisionCache cache;
  cache.Insert(Key(11, 1), {0.5, MatchClass::kMatch});
  EXPECT_EQ(cache.SaveSnapshot(file.path()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadText(file.path()), "id,name\nr1,Tim\n");
}

// A cache file that is a symbolic link is written through: the file it
// names is replaced (created, while the link dangles), the link stays,
// and the next process warm-starts from it.
TEST(SnapshotTest, LinkedCacheFileWarmStartsAndStaysLinked) {
  SnapshotFile file("decision_cache_test_linked.pddcache");
  SnapshotFile link("decision_cache_test_linked_link.pddcache");
  std::filesystem::create_symlink(file.path(), link.path());
  ShardedDecisionCache cold;
  cold.Insert(Key(12, 1), {0.5, MatchClass::kMatch});
  ASSERT_TRUE(cold.SaveSnapshot(link.path()).ok());
  ShardedDecisionCache warm;
  ASSERT_TRUE(warm.LoadSnapshot(link.path()).ok());
  EXPECT_EQ(warm.Lookup(Key(12, 1)),
            std::optional<CachedPairDecision>({0.5, MatchClass::kMatch}));
  warm.Insert(Key(12, 2), {0.25, MatchClass::kUnmatch});
  ASSERT_TRUE(warm.SaveSnapshot(link.path()).ok());
  EXPECT_TRUE(std::filesystem::is_symlink(link.path()));
  EXPECT_EQ(EntryLines(file.path()).size(), 2u);
}

// What is no regular file is refused before it is read or replaced: a
// directory or a device is not taken for an empty snapshot. (A FIFO or
// /dev/zero, which a read would block on or never finish, goes through
// the same check; CI runs those under a timeout.)
TEST(SnapshotTest, NonRegularFilesAreRefusedBeforeReading) {
  const std::string dir = "decision_cache_test_dir.pddcache";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directory(dir));
  ShardedDecisionCache cache;
  cache.Insert(Key(13, 1), {0.5, MatchClass::kMatch});
  for (const std::string& path : {dir, std::string("/dev/null")}) {
    for (const Status& status :
         {cache.LoadSnapshot(path), cache.SaveSnapshot(path)}) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << path;
      EXPECT_NE(status.ToString().find("not a regular file"),
                std::string::npos)
          << status.ToString();
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove(dir);
}

// A snapshot that is there but cannot be read is refused, not taken
// for a missing file and replaced.
TEST(SnapshotTest, UnreadableSnapshotIsRefusedAndKept) {
  SnapshotFile file("decision_cache_test_unreadable.pddcache");
  ShardedDecisionCache cache;
  cache.Insert(Key(14, 1), {0.5, MatchClass::kMatch});
  ASSERT_TRUE(cache.SaveSnapshot(file.path()).ok());
  const std::string before = ReadText(file.path());
  namespace fs = std::filesystem;
  fs::permissions(file.path(), fs::perms::none);
  if (std::ifstream(file.path())) {
    GTEST_SKIP() << "this user reads files whatever their permission bits";
  }
  cache.Insert(Key(14, 2), {0.25, MatchClass::kUnmatch});
  EXPECT_EQ(cache.SaveSnapshot(file.path()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cache.LoadSnapshot(file.path()).code(),
            StatusCode::kInvalidArgument);
  fs::permissions(file.path(), fs::perms::owner_read);
  EXPECT_EQ(ReadText(file.path()), before);
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

  // Cache inserts are timed too: a cold run inserts, a warm all-hit
  // run inserts nothing, and an untimed run reads no clock.
  detector->set_cache(std::make_shared<ShardedDecisionCache>());
  Result<DetectionResult> cold = detector->Run(data.relation);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->stage_timings.cache_insert_seconds, 0.0);
  ASSERT_NE(cold->telemetry, nullptr);
  const TelemetrySpan* insert_span =
      cold->telemetry->root.Find("drain/stage.cache_insert");
  ASSERT_NE(insert_span, nullptr);
  EXPECT_EQ(insert_span->seconds, cold->stage_timings.cache_insert_seconds);
  EXPECT_NE(RenderExecutionStats(*cold->telemetry).find("| cache insert |"),
            std::string::npos);
  Result<DetectionResult> warm = detector->Run(data.relation);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache_stats->inserts, 0u);
  EXPECT_EQ(warm->stage_timings.cache_insert_seconds, 0.0);
  detector->set_collect_stage_timings(false);
  detector->set_cache(std::make_shared<ShardedDecisionCache>());
  Result<DetectionResult> untimed_cold = detector->Run(data.relation);
  ASSERT_TRUE(untimed_cold.ok());
  EXPECT_GT(untimed_cold->cache_stats->inserts, 0u);
  EXPECT_EQ(untimed_cold->stage_timings.cache_insert_seconds, 0.0);
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
