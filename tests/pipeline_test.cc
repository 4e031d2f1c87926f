// Tests for the staged pipeline layer: DetectionPlan compilation,
// CandidateStream scenarios and the serial/parallel StageExecutor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "core/detector.h"
#include "core/paper_examples.h"
#include "datagen/person_generator.h"
#include "obs/run_telemetry.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"
#include "pipeline/detection_result.h"
#include "pipeline/stage_executor.h"
#include "util/checked_math.h"

namespace pdd {
namespace {

DetectorConfig PersonConfig() {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.5, 0.3, 0.2};
  config.final_thresholds = {0.4, 0.7};
  // CMake registers a second ctest pass of this binary with
  // PDD_BATCH_SIZE=2 so every Run() path crosses batch boundaries
  // constantly (streaming refill edges, incremental filter re-pulls),
  // and a third with PDD_WORKERS=4 so every Run() decides on a thread
  // pool (the TSan CI job leans on this one: the pooled drain is the
  // main data-race surface).
  if (const char* batch = std::getenv("PDD_BATCH_SIZE")) {
    long parsed = std::strtol(batch, nullptr, 10);
    if (parsed > 0) config.batch_size = static_cast<size_t>(parsed);
  }
  if (const char* workers = std::getenv("PDD_WORKERS")) {
    long parsed = std::strtol(workers, nullptr, 10);
    if (parsed > 0) config.workers = static_cast<size_t>(parsed);
  }
  return config;
}

GeneratedData SeededPersons(size_t entities = 60) {
  PersonGenOptions options;
  options.num_entities = entities;
  options.duplicate_rate = 0.8;
  options.seed = 20100301;  // fixed: results must be reproducible
  return GeneratePersons(options);
}

void ExpectIdenticalResults(const DetectionResult& a,
                            const DetectionResult& b) {
  EXPECT_EQ(a.candidate_count, b.candidate_count);
  EXPECT_EQ(a.total_pairs, b.total_pairs);
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    const PairDecisionRecord& ra = a.decisions[i];
    const PairDecisionRecord& rb = b.decisions[i];
    EXPECT_EQ(a.id(ra.index1), b.id(rb.index1)) << "record " << i;
    EXPECT_EQ(a.id(ra.index2), b.id(rb.index2)) << "record " << i;
    EXPECT_EQ(ra.index1, rb.index1) << "record " << i;
    EXPECT_EQ(ra.index2, rb.index2) << "record " << i;
    // Bit-identical, not approximately equal: the parallel executor must
    // evaluate exactly the same arithmetic per pair.
    EXPECT_EQ(ra.similarity, rb.similarity) << "record " << i;
    EXPECT_EQ(ra.match_class, rb.match_class) << "record " << i;
  }
}

/// Field-wise record equality (bit-identical similarity).
bool SameRecord(const PairDecisionRecord& a, const PairDecisionRecord& b) {
  return a.index1 == b.index1 && a.index2 == b.index2 &&
         a.similarity == b.similarity && a.match_class == b.match_class;
}

TEST(DetectionPlanTest, StagedDecisionMatchesModel) {
  Result<std::shared_ptr<const DetectionPlan>> plan =
      DetectionPlan::Compile(PersonConfig(), PersonSchema());
  ASSERT_TRUE(plan.ok());
  GeneratedData data = SeededPersons(10);
  for (size_t i = 1; i < data.relation.size(); ++i) {
    const XTuple& t1 = data.relation.xtuple(0);
    const XTuple& t2 = data.relation.xtuple(i);
    XPairDecision staged = (*plan)->DecidePair(t1, t2);
    EXPECT_EQ(staged.similarity, (*plan)->model().Similarity(t1, t2));
    EXPECT_EQ(staged.match_class,
              (*plan)->model().Decide(t1, t2).match_class);
  }
}

TEST(StageExecutorTest, ParallelIsIdenticalToSerial) {
  GeneratedData data = SeededPersons();
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok()) << detector.status().ToString();
  Result<DetectionResult> serial = detector->Run(data.relation);
  ASSERT_TRUE(serial.ok());
  EXPECT_GT(serial->decisions.size(), 0u);
  for (size_t workers : {1u, 2u, 4u}) {
    for (size_t batch_size : {1u, 7u, 256u}) {
      Result<std::unique_ptr<CandidateStream>> stream =
          MakeFullStream(detector->plan(), data.relation);
      ASSERT_TRUE(stream.ok());
      StageExecutorOptions options;
      options.workers = workers;
      options.batch_size = batch_size;
      std::vector<PairDecisionRecord> sunk;
      options.decision_sink = [&sunk](const PairDecisionRecord& rec) {
        sunk.push_back(rec);
      };
      StageExecutor executor(detector->shared_plan(), options);
      Result<DetectionResult> parallel = executor.Execute(**stream);
      ASSERT_TRUE(parallel.ok())
          << "workers=" << workers << " batch=" << batch_size;
      ExpectIdenticalResults(*serial, *parallel);
      // The sink sees exactly the committed records, in result order,
      // for every worker count.
      EXPECT_TRUE(std::equal(sunk.begin(), sunk.end(),
                             parallel->decisions.begin(),
                             parallel->decisions.end(), SameRecord))
          << "workers=" << workers << " batch=" << batch_size;
    }
  }
}

TEST(StageExecutorTest, WorkersConfiguredOnDetectorMatchSerial) {
  GeneratedData data = SeededPersons();
  DetectorConfig serial_config = PersonConfig();
  DetectorConfig parallel_config = PersonConfig();
  parallel_config.workers = 4;
  parallel_config.batch_size = 32;
  Result<DuplicateDetector> serial =
      DuplicateDetector::Make(serial_config, PersonSchema());
  Result<DuplicateDetector> parallel =
      DuplicateDetector::Make(parallel_config, PersonSchema());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  Result<DetectionResult> a = serial->Run(data.relation);
  Result<DetectionResult> b = parallel->Run(data.relation);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectIdenticalResults(*a, *b);
}

TEST(StageExecutorTest, RejectsZeroBatchSize) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  GeneratedData data = SeededPersons(5);
  Result<std::unique_ptr<CandidateStream>> stream =
      MakeFullStream(detector->plan(), data.relation);
  ASSERT_TRUE(stream.ok());
  StageExecutorOptions zero_batch;
  zero_batch.batch_size = 0;
  StageExecutor executor(detector->shared_plan(), zero_batch);
  EXPECT_FALSE(executor.Execute(**stream).ok());
}

TEST(StageExecutorTest, RejectsMoreWorkersThanTheCapBeforeStartingAny) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  GeneratedData data = SeededPersons(5);
  Result<std::unique_ptr<CandidateStream>> stream =
      MakeFullStream(detector->plan(), data.relation);
  ASSERT_TRUE(stream.ok());
  StageExecutorOptions too_many;
  too_many.workers = kMaxWorkers + 1;
  Result<DetectionResult> result =
      StageExecutor(detector->shared_plan(), too_many).Execute(**stream);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Nothing ran: no arena was built and no worker pulled a pair.
  EXPECT_EQ((*stream)->arena(), nullptr);
  std::vector<CandidatePair> batch;
  ASSERT_LT((*stream)->total_pairs(), 4096u);
  EXPECT_EQ((*stream)->NextBatch(4096, &batch), (*stream)->total_pairs());
}

TEST(StageExecutorTest, ConfigRefusesMoreWorkersThanTheCap) {
  DetectorConfig config = PersonConfig();
  config.workers = kMaxWorkers + 1;
  EXPECT_EQ(DuplicateDetector::Make(config, PersonSchema()).status().code(),
            StatusCode::kInvalidArgument);
  // Compiling a plan starts no thread, so the cap itself is cheap to
  // accept here.
  config.workers = kMaxWorkers;
  EXPECT_TRUE(DuplicateDetector::Make(config, PersonSchema()).ok());
}

/// A stream that may grow past the 32-bit tuple index space (a standing
/// source with an oversized admission bound). Counts its pulls.
class OversizedStream : public CandidateStream {
 public:
  explicit OversizedStream(const XRelation* rel) : rel_(rel) {}

  const XRelation& relation() const override { return *rel_; }
  size_t NextBatch(size_t, std::vector<CandidatePair>* out) override {
    ++pulls_;
    out->clear();
    return 0;
  }
  size_t tuple_capacity() const override { return size_t{1} << 32; }
  size_t total_pairs() const override { return 0; }
  std::string name() const override { return "oversized"; }

  size_t pulls() const { return pulls_; }

 private:
  const XRelation* rel_;
  size_t pulls_ = 0;
};

TEST(StageExecutorTest, RejectsStreamsBeyondThe32BitIndexSpace) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  GeneratedData data = SeededPersons(5);
  OversizedStream stream(&data.relation);
  Result<DetectionResult> result =
      StageExecutor(detector->shared_plan()).Execute(stream);
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(stream.pulls(), 0u);
}

/// A stream that refuses to hint its candidate count — the shape every
/// hint consumer must tolerate.
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

// A hintless source must execute identically to the hinted run, serial
// and pooled: the hint is an optional reservation aid, never control
// flow.
TEST(StageExecutorTest, HintlessSourceExecutesIdentically) {
  GeneratedData data = SeededPersons(30);
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
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
    ExpectIdenticalResults(*reference, *result);
  }
}

TEST(CandidateStreamTest, BatchOrderIsIndependentOfBatchSize) {
  GeneratedData data = SeededPersons(20);
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  auto drain = [&](size_t batch_size) {
    Result<std::unique_ptr<CandidateStream>> stream =
        MakeFullStream(detector->plan(), data.relation);
    EXPECT_TRUE(stream.ok());
    std::vector<CandidatePair> all;
    std::vector<CandidatePair> batch;
    while (stream.ok() && (*stream)->NextBatch(batch_size, &batch) > 0) {
      all.insert(all.end(), batch.begin(), batch.end());
    }
    return all;
  };
  std::vector<CandidatePair> all = drain(17);
  EXPECT_GT(all.size(), 0u);
  EXPECT_EQ(all, drain(97));
}

TEST(CandidateStreamTest, IncrementalExaminesExactlyCrossingPairs) {
  GeneratedData existing = SeededPersons(30);
  // Additions with distinct ids (different seed and name prefix via a
  // fresh generation run; ids are remapped below to guarantee
  // uniqueness).
  PersonGenOptions options;
  options.num_entities = 10;
  options.seed = 77;
  GeneratedData additions_data = GeneratePersons(options);
  XRelation additions("additions", additions_data.relation.schema());
  size_t n = 0;
  for (const XTuple& t : additions_data.relation.xtuples()) {
    XTuple renamed("new" + std::to_string(n++), t.alternatives());
    ASSERT_TRUE(additions.Append(std::move(renamed)).ok());
  }
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  const size_t base_count = existing.relation.size();
  const size_t new_count = additions.size();

  Result<std::unique_ptr<CandidateStream>> stream =
      MakeIncrementalStream(detector->plan(), existing.relation, additions);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ((*stream)->total_pairs(),
            base_count * new_count + new_count * (new_count - 1) / 2);

  // Every streamed candidate crosses into the additions...
  std::vector<CandidatePair> streamed;
  std::vector<CandidatePair> batch;
  while ((*stream)->NextBatch(64, &batch) > 0) {
    streamed.insert(streamed.end(), batch.begin(), batch.end());
  }
  for (const CandidatePair& pair : streamed) {
    EXPECT_GE(pair.second, base_count)
        << "intra-existing pair (" << pair.first << "," << pair.second
        << ") leaked into the incremental stream";
  }
  // ...and the stream is exactly the crossing subset of the full-run
  // candidates over the union.
  Result<XRelation> merged =
      XRelation::Union(existing.relation, additions, "merged");
  ASSERT_TRUE(merged.ok());
  Result<std::unique_ptr<CandidateStream>> full =
      MakeFullStream(detector->plan(), *merged);
  ASSERT_TRUE(full.ok());
  std::vector<CandidatePair> expected;
  while ((*full)->NextBatch(64, &batch) > 0) {
    for (const CandidatePair& pair : batch) {
      if (pair.second >= base_count) expected.push_back(pair);
    }
  }
  EXPECT_EQ(streamed, expected);

  // RunIncremental routes through the same stream: decisions agree.
  Result<DetectionResult> result =
      detector->RunIncremental(existing.relation, additions);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->decisions.size(), streamed.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(result->decisions[i].index1, streamed[i].first);
    EXPECT_EQ(result->decisions[i].index2, streamed[i].second);
  }
}

TEST(DetectionResultTest, ClassFiltersShareOneHelper) {
  DetectionResult result;
  result.ids = std::make_shared<std::vector<std::string>>(
      std::vector<std::string>{"a", "b", "c", "d"});
  result.decisions = {
      {0, 1, 0.9, MatchClass::kMatch},
      {0, 2, 0.5, MatchClass::kPossible},
      {1, 2, 0.1, MatchClass::kUnmatch},
      {0, 3, 0.8, MatchClass::kMatch},
  };
  DecisionTally tally;
  tally.Add(result.decisions);
  EXPECT_EQ(tally.matches, 2u);
  EXPECT_EQ(tally.possibles, 1u);
  EXPECT_EQ(tally.unmatches, 1u);
  EXPECT_EQ(result.Matches(),
            (std::vector<IdPair>{MakeIdPair("a", "b"), MakeIdPair("a", "d")}));
  EXPECT_EQ(result.PossibleMatches(),
            (std::vector<IdPair>{MakeIdPair("a", "c")}));
  EXPECT_EQ(result.Unmatches(),
            (std::vector<IdPair>{MakeIdPair("b", "c")}));
  EXPECT_EQ(result.RecordsOfClass(MatchClass::kPossible).size(), 1u);
}

TEST(RunOnSourcesTest, RoutesThroughUnionStream) {
  PersonGenOptions options;
  options.num_entities = 25;
  options.seed = 4242;
  GeneratedSources sources = GeneratePersonSources(options);
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> via_detector =
      detector->RunOnSources(sources.source1, sources.source2);
  ASSERT_TRUE(via_detector.ok());
  Result<std::unique_ptr<CandidateStream>> stream =
      MakeUnionStream(detector->plan(), sources.source1, sources.source2);
  ASSERT_TRUE(stream.ok());
  Result<DetectionResult> via_stream = detector->RunStream(**stream);
  ASSERT_TRUE(via_stream.ok());
  ExpectIdenticalResults(*via_detector, *via_stream);
}

}  // namespace
}  // namespace pdd
