// Streaming ≡ materialized equivalence suite: for every registered
// reduction method, the concatenation of PairGenerator::Stream()
// batches must equal Generate() output exactly — order, deduplication
// and count — across batch sizes, and the end-to-end streamed
// DetectionResult must stay bit-identical across serial, pooled and
// cached executions. This is the contract that lets the pipeline
// delete the O(candidates) buffer without perturbing a single report.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/decision_cache.h"
#include "core/detector.h"
#include "datagen/person_generator.h"
#include "keys/key_spec.h"
#include "reduction/snm_certain_keys.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"
#include "pipeline/stage_executor.h"
#include "plan/registry.h"
#include "reduction/full_pairs.h"
#include "reduction/pair_generator.h"
#include "reduction/pruning.h"
#include "util/checked_math.h"

namespace pdd {
namespace {

GeneratedData StreamTestPersons(size_t entities = 40) {
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

std::vector<CandidatePair> Drain(PairBatchSource& source, size_t batch_size) {
  std::vector<CandidatePair> all;
  std::vector<CandidatePair> batch;
  size_t pulled = 0;
  bool saw_short_batch = false;
  while ((pulled = source.NextBatch(batch_size, &batch)) > 0) {
    // Every batch but the last must be full (the contract that keeps
    // batch boundaries independent of the underlying source).
    EXPECT_FALSE(saw_short_batch) << "short batch mid-stream";
    saw_short_batch = pulled < batch_size;
    all.insert(all.end(), batch.begin(), batch.end());
  }
  return all;
}

TEST(StreamingReductionTest, EveryRegisteredReductionStreamsItsGenerateOutput) {
  GeneratedData data = StreamTestPersons();
  const ComponentRegistry& registry = ComponentRegistry::Global();
  for (const std::string& name : registry.ReductionNames()) {
    Result<const ComponentRegistry::ReductionEntry*> entry =
        registry.FindReduction(name);
    ASSERT_TRUE(entry.ok()) << name;
    Result<std::shared_ptr<const DetectionPlan>> plan = DetectionPlan::Compile(
        ReductionConfig((*entry)->method), PersonSchema());
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    std::unique_ptr<PairGenerator> generator = (*plan)->MakePairGenerator();
    Result<std::vector<CandidatePair>> generated =
        generator->Generate(data.relation);
    ASSERT_TRUE(generated.ok()) << name << ": "
                                << generated.status().ToString();
    EXPECT_GT(generated->size(), 0u) << name;
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{4096}}) {
      Result<std::unique_ptr<PairBatchSource>> source =
          generator->Stream(data.relation);
      ASSERT_TRUE(source.ok()) << name << ": " << source.status().ToString();
      std::vector<CandidatePair> streamed = Drain(**source, batch_size);
      EXPECT_EQ(streamed, *generated)
          << name << " diverges at batch size " << batch_size;
    }
  }
}

TEST(StreamingReductionTest, PruningFilterStreamsItsGenerateOutput) {
  GeneratedData data = StreamTestPersons();
  PruningOptions options;
  options.threshold = 0.5;
  PruningFilter pruned(std::make_unique<FullPairs>(), options);
  EXPECT_TRUE(pruned.native_streaming());  // full streams natively
  Result<std::vector<CandidatePair>> generated = pruned.Generate(data.relation);
  ASSERT_TRUE(generated.ok());
  ASSERT_GT(generated->size(), 0u);
  // The filter must actually prune for the test to mean anything.
  EXPECT_LT(generated->size(), TriangularPairCount(data.relation.size()));
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{4096}}) {
    Result<std::unique_ptr<PairBatchSource>> source =
        pruned.Stream(data.relation);
    ASSERT_TRUE(source.ok());
    EXPECT_EQ(Drain(**source, batch_size), *generated) << batch_size;
  }
}

TEST(StreamingReductionTest, StreamRejectsInvalidWindowLikeGenerate) {
  GeneratedData data = StreamTestPersons(5);
  Result<KeySpec> key =
      KeySpec::FromNames({{"name", 3}, {"job", 2}}, PersonSchema());
  ASSERT_TRUE(key.ok());
  SnmCertainKeys snm(*key, SnmCertainKeyOptions{/*window=*/1});
  EXPECT_FALSE(snm.Generate(data.relation).ok());
  EXPECT_FALSE(snm.Stream(data.relation).ok());
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

TEST(StreamingReductionTest, StreamedRunsAreBitIdenticalSerialPoolCached) {
  GeneratedData data = StreamTestPersons(50);
  for (ReductionMethod method : {ReductionMethod::kSnmCertainKeys,
                                 ReductionMethod::kBlockingCertainKeys}) {
    Result<DuplicateDetector> detector =
        DuplicateDetector::Make(ReductionConfig(method), PersonSchema());
    ASSERT_TRUE(detector.ok());
    Result<DetectionResult> serial = detector->Run(data.relation);
    ASSERT_TRUE(serial.ok());
    ASSERT_GT(serial->decisions.size(), 0u);
    for (size_t workers : {size_t{2}, size_t{4}}) {
      for (size_t batch_size : {size_t{1}, size_t{7}, size_t{4096}}) {
        Result<std::unique_ptr<CandidateStream>> stream =
            MakeFullStream(detector->plan(), data.relation);
        ASSERT_TRUE(stream.ok());
        StageExecutorOptions options;
        options.workers = workers;
        options.batch_size = batch_size;
        StageExecutor executor(detector->shared_plan(), options);
        Result<DetectionResult> pooled = executor.Execute(**stream);
        ASSERT_TRUE(pooled.ok());
        ExpectIdentical(*serial, *pooled);
      }
    }
    // Cached runs (cold, then 100%-hit warm) stay bit-identical too.
    auto cache = std::make_shared<ShardedDecisionCache>();
    detector->set_cache(cache);
    Result<DetectionResult> cold = detector->Run(data.relation);
    ASSERT_TRUE(cold.ok());
    ExpectIdentical(*serial, *cold);
    Result<DetectionResult> warm = detector->Run(data.relation);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm->cache_stats.has_value());
    EXPECT_EQ(warm->cache_stats->hits, warm->cache_stats->lookups);
    ExpectIdentical(*serial, *warm);
  }
}

TEST(StreamingReductionTest, NativeStreamingBoundsLiveCandidates) {
  GeneratedData data = StreamTestPersons(300);
  DetectorConfig config = ReductionConfig(ReductionMethod::kSnmCertainKeys);
  config.window = 6;
  config.batch_size = 64;
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result = detector->Run(data.relation);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->candidate_count, 0u);
  // Live candidates on the streamed path: one batch plus one tuple's
  // window partners — nowhere near the materialized candidate vector.
  EXPECT_LE(result->stream_stats.live_candidate_high_water,
            config.batch_size + 2 * config.window);
  EXPECT_LT(result->stream_stats.live_candidate_high_water,
            result->candidate_count / 2);
  EXPECT_GT(result->stream_stats.batches, 1u);
}

// Regression (stats carry-over seam): a partially-drained stream that
// is Reset and re-executed must report exactly one drain's stream
// accounting — batches and the live-candidate high-water must not
// carry over across re-opens (`--stats` would double-count).
TEST(StreamingReductionTest, ResetMidDrainDoesNotCarryDrainAccounting) {
  GeneratedData data = StreamTestPersons(50);
  DetectorConfig config = ReductionConfig(ReductionMethod::kSnmCertainKeys);
  config.batch_size = 16;
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<std::unique_ptr<CandidateStream>> stream =
      MakeFullStream(detector->plan(), data.relation);
  ASSERT_TRUE(stream.ok());
  // Reference: a clean full drain.
  Result<DetectionResult> reference = detector->RunStream(**stream);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->stream_stats.batches, 1u);
  // Partially drain after a Reset, Reset again mid-drain, re-execute:
  // the accounting must equal the clean drain's, not accumulate.
  (*stream)->Reset();
  std::vector<CandidatePair> batch;
  ASSERT_GT((*stream)->NextBatch(8, &batch), 0u);
  ASSERT_GT((*stream)->NextBatch(8, &batch), 0u);
  (*stream)->Reset();
  Result<DetectionResult> second = detector->RunStream(**stream);
  ASSERT_TRUE(second.ok());
  ExpectIdentical(*reference, *second);
  EXPECT_EQ(second->stream_stats.batches, reference->stream_stats.batches);
  EXPECT_EQ(second->stream_stats.live_candidate_high_water,
            reference->stream_stats.live_candidate_high_water);
}

// The candidate-count hint is a reservation aid only: a pull-based
// native stream reports none, and the executor must run it exactly like
// a hinted one (no reserve(0) capacity pinning, no behavioral fork).
TEST(StreamingReductionTest, NativeStreamsAreHintlessAndStillExact) {
  GeneratedData data = StreamTestPersons(40);
  DetectorConfig config = ReductionConfig(ReductionMethod::kSnmCertainKeys);
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<std::unique_ptr<CandidateStream>> stream =
      MakeFullStream(detector->plan(), data.relation);
  ASSERT_TRUE(stream.ok());
  // Native streaming: count unknown before the drain.
  EXPECT_FALSE((*stream)->candidate_count_hint().has_value());
  Result<DetectionResult> hintless = detector->RunStream(**stream);
  ASSERT_TRUE(hintless.ok());
  ASSERT_GT(hintless->decisions.size(), 0u);
  // Same candidates through the (hinted) materialized stream: the
  // decisions and their order must not depend on the hint.
  std::unique_ptr<PairGenerator> generator =
      detector->plan().MakePairGenerator();
  Result<std::vector<CandidatePair>> candidates =
      generator->Generate(data.relation);
  ASSERT_TRUE(candidates.ok());
  MaterializedCandidateStream materialized(
      "full", std::nullopt, &data.relation, std::move(*candidates),
      TriangularPairCount(data.relation.size()));
  ASSERT_TRUE(materialized.candidate_count_hint().has_value());
  Result<DetectionResult> hinted = detector->RunStream(materialized);
  ASSERT_TRUE(hinted.ok());
  ExpectIdentical(*hinted, *hintless);
}

TEST(CheckedMathTest, SaturatesInsteadOfWrapping) {
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  EXPECT_EQ(TriangularPairCount(0), 0u);
  EXPECT_EQ(TriangularPairCount(1), 0u);
  EXPECT_EQ(TriangularPairCount(2), 1u);
  EXPECT_EQ(TriangularPairCount(5), 10u);
  EXPECT_EQ(TriangularPairCount(100000), 4999950000u);
  EXPECT_EQ(TriangularPairCount(kMax), kMax);        // would wrap naively
  EXPECT_EQ(SaturatingMul(kMax, 2), kMax);
  EXPECT_EQ(SaturatingMul(0, kMax), 0u);
  EXPECT_EQ(SaturatingAdd(kMax, 1), kMax);
  EXPECT_EQ(SaturatingAdd(2, 3), 5u);
}

}  // namespace
}  // namespace pdd
