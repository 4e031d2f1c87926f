// Sharded candidate stream suite: for every registered reduction and
// shard counts {1, 2, 7, 16} × batch sizes {1, 4096}, the merged
// sharded stream must be bit-identical to the unsharded stream, the
// executor's per-shard drain must produce byte-identical reports,
// the shared decision cache must serve a second sharded run entirely
// from hits, and the Reset / hint seams must behave (no stats
// carry-over, no reliance on a count hint).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/decision_cache.h"
#include "core/detector.h"
#include "core/report_writer.h"
#include "datagen/person_generator.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"
#include "pipeline/sharded_stream.h"
#include "pipeline/stage_executor.h"
#include "plan/registry.h"
#include "reduction/shard_partitioner.h"
#include "util/checked_math.h"

namespace pdd {
namespace {

GeneratedData ShardTestPersons(size_t entities = 40) {
  PersonGenOptions options;
  options.num_entities = entities;
  options.duplicate_rate = 0.8;
  options.seed = 20100514;  // fixed: results must be reproducible
  return GeneratePersons(options);
}

DetectorConfig ReductionConfig(ReductionMethod method) {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.5, 0.3, 0.2};
  config.window = 4;
  config.reduction = method;
  return config;
}

std::vector<CandidatePair> DrainStream(CandidateStream& stream,
                                       size_t batch_size) {
  std::vector<CandidatePair> all;
  std::vector<CandidatePair> batch;
  while (stream.NextBatch(batch_size, &batch) > 0) {
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

void ExpectIdentical(const DetectionResult& a, const DetectionResult& b) {
  EXPECT_EQ(a.candidate_count, b.candidate_count);
  EXPECT_EQ(a.total_pairs, b.total_pairs);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.id(a.decisions[i].index1), b.id(b.decisions[i].index1)) << i;
    EXPECT_EQ(a.id(a.decisions[i].index2), b.id(b.decisions[i].index2)) << i;
    EXPECT_EQ(a.decisions[i].index1, b.decisions[i].index1) << i;
    EXPECT_EQ(a.decisions[i].index2, b.decisions[i].index2) << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.decisions[i].similarity, b.decisions[i].similarity) << i;
    EXPECT_EQ(a.decisions[i].match_class, b.decisions[i].match_class) << i;
  }
}

/// Field-wise record equality (bit-identical similarity).
bool SameRecord(const PairDecisionRecord& a, const PairDecisionRecord& b) {
  return a.index1 == b.index1 && a.index2 == b.index2 &&
         a.similarity == b.similarity && a.match_class == b.match_class;
}

/// Records in (index1, index2) order. A run decides each pair once, so
/// two sorted copies are equal exactly when the multisets are.
std::vector<PairDecisionRecord> SortedByPair(
    std::vector<PairDecisionRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const PairDecisionRecord& a, const PairDecisionRecord& b) {
              return a.index1 != b.index1 ? a.index1 < b.index1
                                          : a.index2 < b.index2;
            });
  return records;
}

// The core determinism contract: every registered reduction, sharded
// {1, 2, 7, 16} ways under every strategy's auto-resolution, merges
// back to the exact unsharded candidate sequence at every batch size.
TEST(ShardedStreamTest, MergedShardsEqualUnshardedForEveryReduction) {
  GeneratedData data = ShardTestPersons();
  const ComponentRegistry& registry = ComponentRegistry::Global();
  for (const std::string& name : registry.ReductionNames()) {
    Result<const ComponentRegistry::ReductionEntry*> entry =
        registry.FindReduction(name);
    ASSERT_TRUE(entry.ok()) << name;
    Result<std::shared_ptr<const DetectionPlan>> plan = DetectionPlan::Compile(
        ReductionConfig((*entry)->method), PersonSchema());
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    Result<std::unique_ptr<CandidateStream>> unsharded =
        MakeFullStream(**plan, data.relation);
    ASSERT_TRUE(unsharded.ok()) << name;
    std::vector<CandidatePair> expected = DrainStream(**unsharded, 64);
    ASSERT_GT(expected.size(), 0u) << name;
    for (size_t shards : {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
      for (size_t batch_size : {size_t{1}, size_t{4096}}) {
        Result<std::unique_ptr<CandidateStream>> sharded = MakeFullStream(
            **plan, data.relation, {shards, ShardStrategy::kAuto});
        ASSERT_TRUE(sharded.ok())
            << name << ": " << sharded.status().ToString();
        EXPECT_EQ(DrainStream(**sharded, batch_size), expected)
            << name << " diverges at " << shards << " shards, batch size "
            << batch_size;
      }
    }
  }
}

// Every explicit strategy must also merge exactly (auto-resolution is
// a load-balancing choice, never a correctness requirement).
TEST(ShardedStreamTest, EveryStrategyMergesExactly) {
  GeneratedData data = ShardTestPersons();
  for (ReductionMethod method : {ReductionMethod::kFull,
                                 ReductionMethod::kSnmCertainKeys,
                                 ReductionMethod::kBlockingAlternatives}) {
    Result<std::shared_ptr<const DetectionPlan>> plan =
        DetectionPlan::Compile(ReductionConfig(method), PersonSchema());
    ASSERT_TRUE(plan.ok());
    Result<std::unique_ptr<CandidateStream>> unsharded =
        MakeFullStream(**plan, data.relation);
    ASSERT_TRUE(unsharded.ok());
    std::vector<CandidatePair> expected = DrainStream(**unsharded, 64);
    for (ShardStrategy strategy :
         {ShardStrategy::kIndexRange, ShardStrategy::kKeyRange,
          ShardStrategy::kBlockSubset}) {
      Result<std::unique_ptr<CandidateStream>> sharded =
          MakeFullStream(**plan, data.relation, {7, strategy});
      ASSERT_TRUE(sharded.ok()) << ShardStrategyName(strategy);
      EXPECT_EQ(DrainStream(**sharded, 97), expected)
          << ReductionMethodName(method) << " under "
          << ShardStrategyName(strategy);
    }
  }
}

// The executor's per-shard drain (serial and pooled) must be
// byte-identical to the unsharded run, with per-shard accounting.
TEST(ShardedStreamTest, ExecutorShardDrainIsBitIdentical) {
  GeneratedData data = ShardTestPersons(50);
  for (ReductionMethod method : {ReductionMethod::kSnmCertainKeys,
                                 ReductionMethod::kBlockingCertainKeys,
                                 ReductionMethod::kFull}) {
    Result<DuplicateDetector> detector =
        DuplicateDetector::Make(ReductionConfig(method), PersonSchema());
    ASSERT_TRUE(detector.ok());
    Result<DetectionResult> serial = detector->Run(data.relation);
    ASSERT_TRUE(serial.ok());
    ASSERT_GT(serial->decisions.size(), 0u);
    EXPECT_TRUE(serial->stream_stats.per_shard.empty());
    std::string serial_report = DetectionReport(*serial);
    // workers=2 with 7 shards exercises threads < shards (one thread
    // drains several shards); workers=4 with 2 shards exercises
    // multiple workers per shard.
    for (size_t shards : {size_t{2}, size_t{7}}) {
      for (size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
        Result<std::unique_ptr<CandidateStream>> stream = MakeFullStream(
            detector->plan(), data.relation, {shards, ShardStrategy::kAuto});
        ASSERT_TRUE(stream.ok()) << stream.status().ToString();
        StageExecutorOptions options;
        options.workers = workers;
        options.batch_size = 32;
        std::mutex sink_mu;
        std::vector<PairDecisionRecord> sunk;
        options.decision_sink = [&](const PairDecisionRecord& rec) {
          std::lock_guard<std::mutex> lock(sink_mu);
          sunk.push_back(rec);
        };
        StageExecutor executor(detector->shared_plan(), options);
        Result<DetectionResult> result = executor.Execute(**stream);
        ASSERT_TRUE(result.ok()) << shards << " shards";
        ExpectIdentical(*serial, *result);
        // The sink sees exactly the merged records, in per-shard commit
        // order rather than merged order.
        std::vector<PairDecisionRecord> sorted_sunk =
            SortedByPair(std::move(sunk));
        std::vector<PairDecisionRecord> sorted_decisions =
            SortedByPair(result->decisions);
        EXPECT_TRUE(std::equal(sorted_sunk.begin(), sorted_sunk.end(),
                               sorted_decisions.begin(),
                               sorted_decisions.end(), SameRecord))
            << shards << " shards, " << workers << " workers";
        EXPECT_EQ(DetectionReport(*result), serial_report)
            << ReductionMethodName(method) << " at " << shards << " shards";
        ASSERT_EQ(result->stream_stats.per_shard.size(), shards);
        size_t batches = 0;
        for (const StreamRunStats& stats : result->stream_stats.per_shard) {
          batches += stats.batches;
        }
        EXPECT_EQ(result->stream_stats.batches, batches);
      }
    }
  }
}

// Pooled shard workers (one worker set per shard) must agree with the
// serial shard drain.
TEST(ShardedStreamTest, PooledShardWorkersMatchSerial) {
  GeneratedData data = ShardTestPersons(50);
  DetectorConfig config = ReductionConfig(ReductionMethod::kSnmCertainKeys);
  config.batch_size = 16;
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(detector.ok());
  detector->set_shard_options({3, ShardStrategy::kAuto});
  Result<DetectionResult> serial = detector->Run(data.relation);
  ASSERT_TRUE(serial.ok());
  DetectorConfig pooled_config = config;
  pooled_config.workers = 6;
  Result<DuplicateDetector> pooled =
      DuplicateDetector::Make(pooled_config, PersonSchema());
  ASSERT_TRUE(pooled.ok());
  pooled->set_shard_options({3, ShardStrategy::kAuto});
  Result<DetectionResult> result = pooled->Run(data.relation);
  ASSERT_TRUE(result.ok());
  ExpectIdentical(*serial, *result);
}

// One ShardedDecisionCache handle shared across all shard workers: a
// second sharded run decides nothing anew (100% hits) and stays
// byte-identical; the cache also carries across shard counts because
// sharding is decision-irrelevant.
TEST(ShardedStreamTest, SharedCacheServesWarmShardedRuns) {
  GeneratedData data = ShardTestPersons(50);
  DetectorConfig config = ReductionConfig(ReductionMethod::kSnmCertainKeys);
  config.workers = 4;
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(detector.ok());
  detector->set_shard_options({4, ShardStrategy::kAuto});
  auto cache = std::make_shared<ShardedDecisionCache>();
  detector->set_cache(cache);
  Result<DetectionResult> cold = detector->Run(data.relation);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(cold->cache_stats.has_value());
  EXPECT_GT(cold->cache_stats->inserts, 0u);
  Result<DetectionResult> warm = detector->Run(data.relation);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(warm->cache_stats.has_value());
  EXPECT_EQ(warm->cache_stats->hits, warm->cache_stats->lookups);
  EXPECT_EQ(warm->cache_stats->inserts, 0u);
  ExpectIdentical(*cold, *warm);
  EXPECT_EQ(DetectionReport(*warm), DetectionReport(*cold));
  // A differently-sharded (and an unsharded) run reuses the same
  // entries: shard keys are decision-irrelevant.
  detector->set_shard_options({9, ShardStrategy::kIndexRange});
  Result<DetectionResult> resharded = detector->Run(data.relation);
  ASSERT_TRUE(resharded.ok());
  EXPECT_EQ(resharded->cache_stats->hits, resharded->cache_stats->lookups);
  ExpectIdentical(*cold, *resharded);
}

// Sharded union and incremental scenarios merge to their unsharded
// counterparts exactly.
TEST(ShardedStreamTest, UnionAndIncrementalShardExactly) {
  PersonGenOptions options;
  options.num_entities = 25;
  options.seed = 4242;
  GeneratedSources sources = GeneratePersonSources(options);
  Result<DuplicateDetector> detector = DuplicateDetector::Make(
      ReductionConfig(ReductionMethod::kSnmCertainKeys), PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> union_plain =
      detector->RunOnSources(sources.source1, sources.source2);
  ASSERT_TRUE(union_plain.ok());
  Result<DetectionResult> incr_plain =
      detector->RunIncremental(sources.source1, sources.source2);
  ASSERT_TRUE(incr_plain.ok());
  ASSERT_GT(incr_plain->decisions.size(), 0u);
  detector->set_shard_options({5, ShardStrategy::kAuto});
  Result<DetectionResult> union_sharded =
      detector->RunOnSources(sources.source1, sources.source2);
  ASSERT_TRUE(union_sharded.ok());
  ExpectIdentical(*union_plain, *union_sharded);
  Result<DetectionResult> incr_sharded =
      detector->RunIncremental(sources.source1, sources.source2);
  ASSERT_TRUE(incr_sharded.ok());
  ExpectIdentical(*incr_plain, *incr_sharded);
  // Incremental candidates all cross into the additions, per shard too.
  for (const PairDecisionRecord& rec : incr_sharded->decisions) {
    EXPECT_GE(rec.index2, sources.source1.size());
  }
}

// Regression (stats carry-over seam): Reset() mid-drain must zero the
// per-shard drain accounting, so a re-drained stream reports exactly
// one drain's stats — not the sum of every drain since construction.
TEST(ShardedStreamTest, ResetMidDrainZeroesShardAccounting) {
  GeneratedData data = ShardTestPersons(40);
  Result<std::shared_ptr<const DetectionPlan>> plan = DetectionPlan::Compile(
      ReductionConfig(ReductionMethod::kSnmCertainKeys), PersonSchema());
  ASSERT_TRUE(plan.ok());
  Result<std::unique_ptr<CandidateStream>> made =
      MakeFullStream(**plan, data.relation, {4, ShardStrategy::kAuto});
  ASSERT_TRUE(made.ok());
  auto* stream = dynamic_cast<ShardedCandidateStream*>(made->get());
  ASSERT_NE(stream, nullptr);
  // Full reference drain on a fresh stream.
  std::vector<CandidatePair> expected = DrainStream(*stream, 32);
  std::vector<StreamRunStats> reference = stream->shard_stats();
  size_t reference_batches = 0;
  for (const StreamRunStats& stats : reference) {
    reference_batches += stats.batches;
  }
  ASSERT_GT(reference_batches, 0u);
  // Partial drain, then Reset: the next full drain must replay the
  // identical sequence and report identical (not doubled) stats.
  stream->Reset();
  std::vector<CandidatePair> batch;
  ASSERT_GT(stream->NextBatch(7, &batch), 0u);
  stream->Reset();
  for (const StreamRunStats& stats : stream->shard_stats()) {
    EXPECT_EQ(stats.batches, 0u);
    EXPECT_EQ(stats.live_candidate_high_water, 0u);
  }
  EXPECT_EQ(DrainStream(*stream, 32), expected);
  std::vector<StreamRunStats> redrained = stream->shard_stats();
  ASSERT_EQ(redrained.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(redrained[i].batches, reference[i].batches) << i;
    EXPECT_EQ(redrained[i].live_candidate_high_water,
              reference[i].live_candidate_high_water)
        << i;
  }
}

// Regression: a sharded stream partially drained through the merged
// NextBatch interface and then handed to the executor must decide
// every remaining pair — the pairs sitting in the per-shard merge
// lookaheads are the front of each shard's remaining sequence, not
// droppable state. (The unsharded RunStream seam has always supported
// partial pre-drains; the sharded one must too.)
TEST(ShardedStreamTest, ExecutorDrainsMergeLookaheadAfterPartialDrain) {
  GeneratedData data = ShardTestPersons(40);
  Result<DuplicateDetector> detector = DuplicateDetector::Make(
      ReductionConfig(ReductionMethod::kSnmCertainKeys), PersonSchema());
  ASSERT_TRUE(detector.ok());
  for (size_t predrain : {size_t{1}, size_t{5}, size_t{33}}) {
    // Reference: the unsharded stream with the same pre-drain.
    Result<std::unique_ptr<CandidateStream>> plain =
        MakeFullStream(detector->plan(), data.relation);
    ASSERT_TRUE(plain.ok());
    std::vector<CandidatePair> skipped;
    ASSERT_EQ((*plain)->NextBatch(predrain, &skipped), predrain);
    Result<DetectionResult> expected = detector->RunStream(**plain);
    ASSERT_TRUE(expected.ok());
    // Same pre-drain through the sharded merge, then the per-shard
    // executor drain: identical remaining decisions, nothing dropped.
    Result<std::unique_ptr<CandidateStream>> sharded = MakeFullStream(
        detector->plan(), data.relation, {3, ShardStrategy::kAuto});
    ASSERT_TRUE(sharded.ok());
    std::vector<CandidatePair> sharded_skipped;
    ASSERT_EQ((*sharded)->NextBatch(predrain, &sharded_skipped), predrain);
    EXPECT_EQ(sharded_skipped, skipped);
    Result<DetectionResult> rest = detector->RunStream(**sharded);
    ASSERT_TRUE(rest.ok());
    ExpectIdentical(*expected, *rest);
  }
}

// Executor re-run over a Reset sharded stream: stream_stats (including
// per-shard) must equal the first run's, not accumulate.
TEST(ShardedStreamTest, ExecutorRerunAfterResetDoesNotDoubleCount) {
  GeneratedData data = ShardTestPersons(40);
  Result<DuplicateDetector> detector = DuplicateDetector::Make(
      ReductionConfig(ReductionMethod::kBlockingCertainKeys), PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<std::unique_ptr<CandidateStream>> stream = MakeFullStream(
      detector->plan(), data.relation, {3, ShardStrategy::kAuto});
  ASSERT_TRUE(stream.ok());
  Result<DetectionResult> first = detector->RunStream(**stream);
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first->decisions.size(), 0u);
  (*stream)->Reset();
  Result<DetectionResult> second = detector->RunStream(**stream);
  ASSERT_TRUE(second.ok());
  ExpectIdentical(*first, *second);
  EXPECT_EQ(second->stream_stats.batches, first->stream_stats.batches);
  ASSERT_EQ(second->stream_stats.per_shard.size(),
            first->stream_stats.per_shard.size());
  for (size_t i = 0; i < first->stream_stats.per_shard.size(); ++i) {
    EXPECT_EQ(second->stream_stats.per_shard[i].batches,
              first->stream_stats.per_shard[i].batches)
        << i;
  }
}

/// A stream that refuses to hint its candidate count — the shape every
/// hint consumer must tolerate (shard sources over unknown-size ranges
/// cannot know their counts pre-drain).
class HintlessStream : public CandidateStream {
 public:
  HintlessStream(const XRelation* rel, std::vector<CandidatePair> candidates)
      : rel_(rel), candidates_(std::move(candidates)) {}

  const XRelation& relation() const override { return *rel_; }
  size_t NextBatch(size_t max_batch,
                   std::vector<CandidatePair>* out) override {
    out->clear();
    while (out->size() < max_batch && next_ < candidates_.size()) {
      out->push_back(candidates_[next_++]);
    }
    return out->size();
  }
  void Reset() override { next_ = 0; }
  // candidate_count_hint() stays the base-class nullopt.
  size_t total_pairs() const override {
    return TriangularPairCount(rel_->size());
  }
  std::string name() const override { return "hintless"; }

 private:
  const XRelation* rel_;
  std::vector<CandidatePair> candidates_;
  size_t next_ = 0;
};

// A hintless source must execute correctly (and identically to the
// hinted run) on both executor paths: the hint is an optional
// reservation aid, never control flow.
TEST(ShardedStreamTest, HintlessSourceExecutesIdentically) {
  GeneratedData data = ShardTestPersons(30);
  Result<DuplicateDetector> detector = DuplicateDetector::Make(
      ReductionConfig(ReductionMethod::kFull), PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> reference = detector->Run(data.relation);
  ASSERT_TRUE(reference.ok());
  std::vector<CandidatePair> candidates;
  for (size_t i = 0; i < data.relation.size(); ++i) {
    for (size_t j = i + 1; j < data.relation.size(); ++j) {
      candidates.push_back({i, j});
    }
  }
  for (size_t workers : {size_t{0}, size_t{3}}) {
    HintlessStream stream(&data.relation, candidates);
    EXPECT_FALSE(stream.candidate_count_hint().has_value());
    StageExecutorOptions options;
    options.workers = workers;
    options.batch_size = 32;
    StageExecutor executor(detector->shared_plan(), options);
    Result<DetectionResult> result = executor.Execute(stream);
    ASSERT_TRUE(result.ok()) << workers;
    ExpectIdentical(*reference, *result);
  }
  // Native shard sources are exactly such hintless sources.
  Result<std::unique_ptr<CandidateStream>> sharded = MakeFullStream(
      detector->plan(), data.relation, {2, ShardStrategy::kKeyRange});
  ASSERT_TRUE(sharded.ok());
  EXPECT_FALSE((*sharded)->candidate_count_hint().has_value());
  Result<DetectionResult> result = detector->RunStream(**sharded);
  ASSERT_TRUE(result.ok());
  ExpectIdentical(*reference, *result);
}

// Spec keys: shard.count / shard.strategy round-trip, fingerprint the
// plan only when count != 1, and never touch the decision fingerprint.
TEST(ShardedStreamTest, ShardSpecKeysFingerprintOnlyWhenSharded) {
  DetectorConfig base = ReductionConfig(ReductionMethod::kSnmCertainKeys);
  DetectorConfig sharded = base;
  sharded.shard_count = 4;
  sharded.shard_strategy = ShardStrategy::kKeyRange;
  PlanSpec base_spec = base.ToSpec();
  PlanSpec sharded_spec = sharded.ToSpec();
  EXPECT_FALSE(base_spec.params().Has("shard.count"));
  EXPECT_TRUE(sharded_spec.params().Has("shard.count"));
  EXPECT_NE(base_spec.Fingerprint(), sharded_spec.Fingerprint());
  // Round-trip through the declarative form.
  Result<DetectorConfig> parsed = DetectorConfig::FromSpec(sharded_spec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->shard_count, 4u);
  EXPECT_EQ(parsed->shard_strategy, ShardStrategy::kKeyRange);
  // Decision fingerprints agree: sharding can never invalidate cached
  // decisions.
  Result<std::shared_ptr<const DetectionPlan>> base_plan =
      DetectionPlan::Compile(base, PersonSchema());
  Result<std::shared_ptr<const DetectionPlan>> sharded_plan =
      DetectionPlan::Compile(sharded, PersonSchema());
  ASSERT_TRUE(base_plan.ok());
  ASSERT_TRUE(sharded_plan.ok());
  EXPECT_NE((*base_plan)->fingerprint(), (*sharded_plan)->fingerprint());
  EXPECT_EQ((*base_plan)->decision_fingerprint(),
            (*sharded_plan)->decision_fingerprint());
  // A plan-carried shard count actually shards the run.
  GeneratedData data = ShardTestPersons(30);
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(sharded, PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result = detector->Run(data.relation);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stream_stats.per_shard.size(), 4u);
  // Unknown strategy names fail with the registry's suggestion error.
  Result<ShardStrategy> unknown =
      ComponentRegistry::Global().FindShardStrategy("key_rnage");
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().ToString().find("key_range"), std::string::npos);
  // Validate rejects a zero shard count.
  DetectorConfig zero = base;
  zero.shard_count = 0;
  EXPECT_FALSE(zero.Validate().ok());
}

// The partitioners: every tuple owned exactly once, by a shard below
// the count, under every strategy and lopsided shard counts.
TEST(ShardPartitionerTest, AssignmentsCoverEveryTupleExactlyOnce) {
  std::vector<std::string> keys;
  for (size_t i = 0; i < 100; ++i) {
    keys.push_back("k" + std::to_string(i % 13));
  }
  for (uint32_t shards : {1u, 2u, 7u, 16u, 101u}) {
    for (const ShardAssignment& assignment :
         {AssignIndexRanges(keys.size(), shards),
          AssignKeyRanges(keys, shards), AssignBlockSubsets(keys, shards)}) {
      EXPECT_EQ(assignment.shard_count, shards);
      ASSERT_EQ(assignment.owner.size(), keys.size());
      for (size_t tuple = 0; tuple < keys.size(); ++tuple) {
        EXPECT_LT(assignment.owner[tuple], shards);
        uint32_t owners = 0;
        for (uint32_t s = 0; s < shards; ++s) {
          if (assignment.Owns(tuple, s)) ++owners;
        }
        EXPECT_EQ(owners, 1u) << tuple;
      }
    }
    // Block subsets keep equal-keyed tuples together.
    ShardAssignment blocks = AssignBlockSubsets(keys, shards);
    for (size_t a = 0; a < keys.size(); ++a) {
      for (size_t b = a + 1; b < keys.size(); ++b) {
        if (keys[a] == keys[b]) {
          EXPECT_EQ(blocks.owner[a], blocks.owner[b]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace pdd
