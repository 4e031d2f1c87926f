// Tests for the standing ingest subsystem: the bounded MPSC
// IngestQueue, the push-based IngestStream candidate path, and the
// StandingSession lifecycle (live drain → deterministic finish), plus
// the crash-restart warm-start via decision-cache snapshots.
//
// Like pipeline_test, this binary honors PDD_BATCH_SIZE / PDD_WORKERS
// so the CMake-registered extra passes (and the TSan CI sweep) drive
// the standing drain through every executor shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cache/decision_cache.h"
#include "cache/pair_digest.h"
#include "columnar/relation_arena.h"
#include "core/detector.h"
#include "core/report_writer.h"
#include "datagen/person_generator.h"
#include "ingest/ingest_queue.h"
#include "ingest/ingest_stream.h"
#include "ingest/standing_session.h"
#include "pdb/xrelation.h"
#include "pipeline/detection_plan.h"
#include "prep/standardizer.h"
#include "util/checked_math.h"

namespace pdd {
namespace {

DetectorConfig PersonConfig() {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.5, 0.3, 0.2};
  config.final_thresholds = {0.4, 0.7};
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

std::shared_ptr<const DetectionPlan> PersonPlan() {
  Result<std::shared_ptr<const DetectionPlan>> plan =
      DetectionPlan::Compile(PersonConfig(), PersonSchema());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

GeneratedData SeededPersons(size_t entities = 40) {
  PersonGenOptions options;
  options.num_entities = entities;
  options.duplicate_rate = 0.8;
  options.seed = 20100301;  // fixed: results must be reproducible
  return GeneratePersons(options);
}

XTuple MakePerson(const std::string& id, const std::string& name) {
  return XTuple(id, {AltTuple{{Value::Certain(name), Value::Certain("engineer"),
                               Value::Certain("berlin")},
                              1.0}});
}

StandingSession::Options SessionOptions(
    std::shared_ptr<ShardedDecisionCache> cache = nullptr) {
  DetectorConfig config = PersonConfig();
  StandingSession::Options options;
  options.batch_size = config.batch_size;
  options.workers = config.workers;
  options.cache = std::move(cache);
  return options;
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
    EXPECT_EQ(ra.similarity, rb.similarity) << "record " << i;
    EXPECT_EQ(ra.match_class, rb.match_class) << "record " << i;
  }
  // The stdout surface, not just the in-memory structs.
  EXPECT_EQ(DetectionReport(a, nullptr), DetectionReport(b, nullptr));
}

// --- IngestQueue ----------------------------------------------------

TEST(IngestQueueTest, TryPushShedsLoadAtCapacity) {
  IngestQueue queue(2);
  EXPECT_TRUE(queue.TryPush(MakePerson("a", "alice"), 1));
  EXPECT_TRUE(queue.TryPush(MakePerson("b", "bob"), 2));
  EXPECT_FALSE(queue.TryPush(MakePerson("c", "carol"), 3));
  IngestQueueStats stats = queue.Stats();
  EXPECT_EQ(stats.arrivals, 3u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.high_water, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.arrivals, stats.admitted + stats.dropped);
}

TEST(IngestQueueTest, PopBatchIsFifoAndKeepsStamps) {
  IngestQueue queue(8);
  EXPECT_TRUE(queue.Push(MakePerson("a", "alice"), 11));
  EXPECT_TRUE(queue.Push(MakePerson("b", "bob"), 22));
  EXPECT_TRUE(queue.Push(MakePerson("c", "carol"), 33));
  std::vector<IngestItem> out;
  EXPECT_EQ(queue.PopBatch(2, &out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].tuple.id(), "a");
  EXPECT_EQ(out[0].stamp, 11u);
  EXPECT_EQ(out[1].tuple.id(), "b");
  EXPECT_EQ(out[1].stamp, 22u);
  EXPECT_EQ(queue.PopBatch(2, &out), 1u);
  EXPECT_EQ(out[0].tuple.id(), "c");
  EXPECT_EQ(queue.PopBatch(2, &out), 0u);
}

TEST(IngestQueueTest, PushBlocksUntilConsumerFrees) {
  IngestQueue queue(1);
  EXPECT_TRUE(queue.Push(MakePerson("a", "alice")));
  std::atomic<bool> second_done{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(MakePerson("b", "bob")));  // blocks until pop
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_done.load());
  std::vector<IngestItem> out;
  EXPECT_EQ(queue.PopBatch(1, &out), 1u);
  producer.join();
  EXPECT_TRUE(second_done.load());
  EXPECT_EQ(queue.Stats().dropped, 0u);
}

TEST(IngestQueueTest, CloseWakesEverybodyAndDrainsBacklog) {
  IngestQueue queue(4);
  EXPECT_TRUE(queue.Push(MakePerson("a", "alice")));
  queue.Close();
  // Admission after close is a counted drop, blocking or not.
  EXPECT_FALSE(queue.Push(MakePerson("b", "bob")));
  EXPECT_FALSE(queue.TryPush(MakePerson("c", "carol")));
  // The backlog survives Close: closed means "no more", not "gone".
  EXPECT_TRUE(queue.AwaitNonEmpty());
  std::vector<IngestItem> out;
  EXPECT_EQ(queue.PopBatch(8, &out), 1u);
  EXPECT_FALSE(queue.AwaitNonEmpty());
  EXPECT_EQ(queue.Stats().dropped, 2u);
}

TEST(IngestQueueTest, AwaitNonEmptyBlocksUntilProducerDelivers) {
  IngestQueue queue(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(queue.Push(MakePerson("a", "alice")));
  });
  EXPECT_TRUE(queue.AwaitNonEmpty());  // idle-but-open: must block, not fail
  producer.join();
}

// --- IngestStream ---------------------------------------------------

TEST(IngestStreamTest, EmitsFullCrossingSetInCursorOrder) {
  Result<std::unique_ptr<IngestStream>> stream =
      IngestStream::Make(PersonPlan(), nullptr, {});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  for (int i = 0; i < 4; ++i) {
    std::string id(1, static_cast<char>('a' + i));
    ASSERT_TRUE((*stream)->queue().Push(MakePerson(id, "p" + id)));
  }
  std::vector<CandidatePair> pairs;
  std::vector<CandidatePair> all;
  while ((*stream)->NextBatch(2, &pairs) > 0) {
    all.insert(all.end(), pairs.begin(), pairs.end());
  }
  // 4 tuples -> the full crossing set, second-major in admission order.
  std::vector<CandidatePair> expected = {{0, 1}, {0, 2}, {1, 2},
                                         {0, 3}, {1, 3}, {2, 3}};
  ASSERT_EQ(all.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(all[i].first, expected[i].first) << "pair " << i;
    EXPECT_EQ(all[i].second, expected[i].second) << "pair " << i;
  }
  EXPECT_EQ((*stream)->total_pairs(), TriangularPairCount(4));
  EXPECT_EQ((*stream)->relation().size(), 4u);
}

TEST(IngestStreamTest, SeededStreamEmitsOnlyCrossingPairs) {
  GeneratedData data = SeededPersons(8);
  const size_t base = data.relation.size();
  Result<std::unique_ptr<IngestStream>> stream =
      IngestStream::Make(PersonPlan(), &data.relation, {});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ((*stream)->base(), base);
  ASSERT_TRUE((*stream)->queue().Push(MakePerson("new-1", "nina")));
  ASSERT_TRUE((*stream)->queue().Push(MakePerson("new-2", "nick")));
  std::vector<CandidatePair> pairs;
  std::vector<CandidatePair> all;
  while ((*stream)->NextBatch(64, &pairs) > 0) {
    all.insert(all.end(), pairs.begin(), pairs.end());
  }
  // Each arrival crosses the whole standing prefix; intra-seed pairs
  // are never re-examined (the incremental scenario, push-based).
  EXPECT_EQ(all.size(), base + (base + 1));
  for (const CandidatePair& pair : all) {
    EXPECT_GE(pair.second, base);
    EXPECT_LT(pair.first, pair.second);
  }
  EXPECT_EQ((*stream)->total_pairs(),
            SaturatingAdd(SaturatingMul(base, 2), TriangularPairCount(2)));
}

TEST(IngestStreamTest, AdmissionDedupsValidatesAndBounds) {
  IngestStream::Options options;
  options.max_admitted = 2;
  Result<std::unique_ptr<IngestStream>> stream =
      IngestStream::Make(PersonPlan(), nullptr, options);
  ASSERT_TRUE(stream.ok());
  IngestQueue& queue = (*stream)->queue();
  ASSERT_TRUE(queue.Push(MakePerson("a", "alice")));
  ASSERT_TRUE(queue.Push(MakePerson("a", "alice-again")));  // duplicate id
  // No alternatives: fails relation validation at admission.
  ASSERT_TRUE(queue.Push(XTuple("bad", {})));
  ASSERT_TRUE(queue.Push(MakePerson("b", "bob")));
  ASSERT_TRUE(queue.Push(MakePerson("c", "carol")));  // beyond max_admitted
  (*stream)->Pump();
  IngestStream::AdmissionStats stats = (*stream)->admission_stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.duplicate_ids, 1u);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.rejected_capacity, 1u);
  EXPECT_EQ((*stream)->relation().size(), 2u);
  // The raw snapshot carries exactly the admitted tuples.
  XRelation raw = (*stream)->SnapshotRaw();
  ASSERT_EQ(raw.size(), 2u);
  EXPECT_EQ(raw.xtuple(0).id(), "a");
  EXPECT_EQ(raw.xtuple(1).id(), "b");
}

// --- StandingSession ------------------------------------------------

/// Pushes `relation`'s tuples in `order` from a producer thread while
/// the session drains on the calling thread, then closes and returns
/// the live result.
Result<DetectionResult> DrainWithProducer(StandingSession* session,
                                          const XRelation& relation,
                                          const std::vector<size_t>& order) {
  std::thread producer([&] {
    for (size_t idx : order) {
      session->queue().Push(relation.xtuple(idx));
    }
    session->queue().Close();
  });
  Result<DetectionResult> live = session->Drain();
  producer.join();
  return live;
}

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

TEST(StandingSessionTest, FinishIsByteIdenticalForAnyArrivalOrder) {
  GeneratedData data = SeededPersons();
  const size_t n = data.relation.size();
  // The reference: a one-shot batch run over the same tuples.
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  std::shared_ptr<const DetectionPlan> plan = detector->shared_plan();
  Result<std::unique_ptr<StandingSession>> reference_session =
      StandingSession::Make(plan, nullptr, SessionOptions());
  ASSERT_TRUE(reference_session.ok());
  // Canonical order reference via the session itself, cross-checked
  // against the detector below.
  std::vector<size_t> forward = Iota(n);
  ASSERT_TRUE(
      DrainWithProducer(reference_session->get(), data.relation, forward)
          .ok());
  Result<DetectionResult> reference =
      (*reference_session)->Finish();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  Result<DetectionResult> batch =
      detector->Run((*reference_session)->CanonicalRelation());
  ASSERT_TRUE(batch.ok());
  ExpectIdenticalResults(*reference, *batch);

  std::vector<size_t> reversed(forward.rbegin(), forward.rend());
  std::vector<size_t> interleaved;
  for (size_t i = 0; i < n; i += 2) interleaved.push_back(i);
  for (size_t i = 1; i < n; i += 2) interleaved.push_back(i);
  for (const std::vector<size_t>& order : {reversed, interleaved}) {
    Result<std::unique_ptr<StandingSession>> session =
        StandingSession::Make(plan, nullptr, SessionOptions());
    ASSERT_TRUE(session.ok());
    Result<DetectionResult> live =
        DrainWithProducer(session->get(), data.relation, order);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    // The live drain decided the full crossing set of the arrivals.
    EXPECT_EQ(live->decisions.size(), TriangularPairCount(n));
    Result<DetectionResult> finish = (*session)->Finish();
    ASSERT_TRUE(finish.ok()) << finish.status().ToString();
    ExpectIdenticalResults(*finish, *reference);
  }
}

TEST(StandingSessionTest, DecisionSinkSeesEveryLiveDecisionOnce) {
  GeneratedData data = SeededPersons(15);
  const size_t n = data.relation.size();
  std::atomic<size_t> sink_calls{0};
  StandingSession::Options options = SessionOptions();
  options.decision_sink = [&sink_calls](const PairDecisionRecord&) {
    sink_calls.fetch_add(1);
  };
  Result<std::unique_ptr<StandingSession>> session =
      StandingSession::Make(PersonPlan(), nullptr, options);
  ASSERT_TRUE(session.ok());
  Result<DetectionResult> live =
      DrainWithProducer(session->get(), data.relation, Iota(n));
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(sink_calls.load(), live->decisions.size());
  EXPECT_EQ(live->decisions.size(), TriangularPairCount(n));
}

TEST(StandingSessionTest, PooledLiveDrainDecidesOverGrowingArena) {
  GeneratedData data = SeededPersons(40);
  const size_t n = data.relation.size();
  std::shared_ptr<const DetectionPlan> plan = PersonPlan();
  // Arena growth is a pure function of the admitted sequence (the plan
  // prepares nothing here): replaying it proves these arrivals cross at
  // least three generations while the live drain below reads them.
  std::shared_ptr<RelationArena> replay =
      RelationArena::Build(XRelation("standing", PersonSchema()));
  size_t generations = 1;
  for (const XTuple& tuple : data.relation.xtuples()) {
    std::shared_ptr<RelationArena> next =
        RelationArena::Append(replay, tuple, PersonSchema());
    ASSERT_NE(next, nullptr);
    if (next != replay) ++generations;
    replay = std::move(next);
  }
  ASSERT_GE(generations, 3u);

  StandingSession::Options options = SessionOptions();
  options.workers = 4;
  options.batch_size = 2;
  Result<std::unique_ptr<StandingSession>> session =
      StandingSession::Make(plan, nullptr, options);
  ASSERT_TRUE(session.ok());
  Result<DetectionResult> live =
      DrainWithProducer(session->get(), data.relation, Iota(n));
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_EQ(live->decisions.size(), TriangularPairCount(n));
  const IngestStream& stream = (*session)->stream();
  const XRelation& standing = stream.relation();
  ASSERT_EQ(stream.arena()->tuple_count(), standing.size());
  // Every crossing pair decides bit-identically to the DecidePair
  // oracle in the canonical (smaller digest first) orientation.
  for (const PairDecisionRecord& rec : live->decisions) {
    const XTuple& a = standing.xtuple(rec.index1);
    const XTuple& b = standing.xtuple(rec.index2);
    const bool flip = TupleContentDigest(b) < TupleContentDigest(a);
    const XPairDecision oracle =
        flip ? plan->DecidePair(b, a) : plan->DecidePair(a, b);
    EXPECT_EQ(rec.similarity, oracle.similarity)
        << a.id() << " ~ " << b.id();
    EXPECT_EQ(rec.match_class, oracle.match_class)
        << a.id() << " ~ " << b.id();
  }
}

/// The one-shot batch run of the session's canonical standing set (an
/// empty result, after a reported failure, when it cannot run).
DetectionResult BatchRun(const DetectorConfig& config,
                         StandingSession* session) {
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, PersonSchema());
  EXPECT_TRUE(detector.ok()) << detector.status().ToString();
  if (!detector.ok()) return {};
  Result<DetectionResult> batch = detector->Run(session->CanonicalRelation());
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  return batch.ok() ? std::move(batch).value() : DetectionResult{};
}

TEST(StandingSessionTest, FinishDecidesNothingAfterAFullLiveDrain) {
  GeneratedData data = SeededPersons(20);
  const size_t n = data.relation.size();
  auto cache = std::make_shared<ShardedDecisionCache>();
  Result<std::unique_ptr<StandingSession>> session =
      StandingSession::Make(PersonPlan(), nullptr, SessionOptions(cache));
  ASSERT_TRUE(session.ok());
  Result<DetectionResult> live =
      DrainWithProducer(session->get(), data.relation, Iota(n));
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  Result<DetectionResult> finish = (*session)->Finish();
  ASSERT_TRUE(finish.ok()) << finish.status().ToString();
  // Every finish pair takes its live record: the cache is not touched.
  ASSERT_TRUE(finish->cache_stats.has_value());
  EXPECT_EQ(finish->cache_stats->lookups, 0u);
  EXPECT_EQ(finish->cache_stats->inserts, 0u);
  EXPECT_EQ(finish->candidate_count, live->decisions.size());
  ExpectIdenticalResults(*finish, BatchRun(PersonConfig(), session->get()));

  // Finish() released the live records, so a second call decides every
  // pair again — from the cache the live drain filled — to the same
  // result.
  Result<DetectionResult> again = (*session)->Finish();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_TRUE(again->cache_stats.has_value());
  EXPECT_EQ(again->cache_stats->lookups, TriangularPairCount(n));
  ExpectIdenticalResults(*again, *finish);
}

TEST(StandingSessionTest, FinishMatchesTheBatchRunInEveryShape) {
  GeneratedData data = SeededPersons(30);
  const size_t n = data.relation.size();
  std::vector<size_t> reversed = Iota(n);
  std::reverse(reversed.begin(), reversed.end());
  Standardizer standardizer;
  standardizer.LowerCase().TrimWhitespace().CollapseWhitespace();
  struct Reduction {
    ReductionMethod method;
    size_t window;
  };
  for (const Reduction reduction :
       {Reduction{ReductionMethod::kFull, 3},
        Reduction{ReductionMethod::kSnmCertainKeys, 4},
        Reduction{ReductionMethod::kBlockingAlternatives, 3},
        Reduction{ReductionMethod::kCanopy, 3}}) {
    DetectorConfig config = PersonConfig();
    config.reduction = reduction.method;
    config.window = reduction.window;
    config.preparation = DataPreparation::UniformAll(standardizer);
    Result<std::shared_ptr<const DetectionPlan>> plan =
        DetectionPlan::Compile(config, PersonSchema());
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (const auto& [workers, batch_size] :
         {std::pair<size_t, size_t>{0, 256}, std::pair<size_t, size_t>{4, 2}}) {
      for (const bool cached : {false, true}) {
        SCOPED_TRACE(std::string(ReductionMethodName(reduction.method)) +
                     " workers " + std::to_string(workers) + " batch " +
                     std::to_string(batch_size) +
                     (cached ? " cached" : " uncached"));
        StandingSession::Options options = SessionOptions(
            cached ? std::make_shared<ShardedDecisionCache>() : nullptr);
        options.workers = workers;
        options.batch_size = batch_size;
        Result<std::unique_ptr<StandingSession>> session =
            StandingSession::Make(*plan, nullptr, options);
        ASSERT_TRUE(session.ok());
        ASSERT_TRUE(
            DrainWithProducer(session->get(), data.relation, reversed).ok());
        Result<DetectionResult> finish = (*session)->Finish();
        ASSERT_TRUE(finish.ok()) << finish.status().ToString();
        if (cached) {
          ASSERT_TRUE(finish->cache_stats.has_value());
          EXPECT_EQ(finish->cache_stats->lookups, 0u);
        }
        ExpectIdenticalResults(*finish, BatchRun(config, session->get()));
      }
    }
  }
}

TEST(StandingSessionTest, SeededFinishDecidesOnlyTheSeedPairs) {
  GeneratedData data = SeededPersons(20);
  const size_t seed_size = data.relation.size() / 3;
  XRelation seed("seed", data.relation.schema());
  for (size_t i = 0; i < seed_size; ++i) {
    seed.AppendUnchecked(data.relation.xtuple(i));
  }
  std::vector<size_t> arrivals;
  for (size_t i = data.relation.size(); i-- > seed_size;) {
    arrivals.push_back(i);
  }
  auto cache = std::make_shared<ShardedDecisionCache>();
  Result<std::unique_ptr<StandingSession>> session =
      StandingSession::Make(PersonPlan(), &seed, SessionOptions(cache));
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(
      DrainWithProducer(session->get(), data.relation, arrivals).ok());
  Result<DetectionResult> finish = (*session)->Finish();
  ASSERT_TRUE(finish.ok()) << finish.status().ToString();
  // The drain decided every arrival's crossing pairs; the seed's own
  // pairs were never live.
  ASSERT_TRUE(finish->cache_stats.has_value());
  EXPECT_EQ(finish->cache_stats->lookups, TriangularPairCount(seed_size));
  ExpectIdenticalResults(*finish, BatchRun(PersonConfig(), session->get()));
}

TEST(StandingSessionTest, FinishWithoutDrainDecidesThePumpedSet) {
  GeneratedData data = SeededPersons(20);
  const size_t n = data.relation.size();
  auto cache = std::make_shared<ShardedDecisionCache>();
  StandingSession::Options options = SessionOptions(cache);
  options.stream.queue_capacity = n;
  Result<std::unique_ptr<StandingSession>> session =
      StandingSession::Make(PersonPlan(), nullptr, options);
  ASSERT_TRUE(session.ok());
  for (const XTuple& tuple : data.relation.xtuples()) {
    ASSERT_TRUE((*session)->queue().Push(tuple));
  }
  (*session)->queue().Close();
  Result<DetectionResult> finish = (*session)->Finish();
  ASSERT_TRUE(finish.ok()) << finish.status().ToString();
  ASSERT_TRUE(finish->cache_stats.has_value());
  EXPECT_EQ(finish->cache_stats->lookups, TriangularPairCount(n));
  ExpectIdenticalResults(*finish, BatchRun(PersonConfig(), session->get()));
}

TEST(StandingSessionTest, RunIncrementalRejectsDuplicateIds) {
  GeneratedData data = SeededPersons(10);
  XRelation additions("additions", data.relation.schema());
  additions.AppendUnchecked(data.relation.xtuple(0));  // already existing
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> result =
      detector->RunIncremental(data.relation, additions);
  EXPECT_FALSE(result.ok());
}

// --- crash-restart warm start ---------------------------------------

/// A snapshot path private to this process: ctest runs the executor-
/// shape passes of this binary concurrently in one directory.
class SnapshotFile {
 public:
  explicit SnapshotFile(const char* name)
      : path_(std::string(name) + "." + std::to_string(getpid())) {
    std::remove(path_.c_str());
  }
  ~SnapshotFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(StandingSessionTest, CrashRestartWarmStartsFromSnapshot) {
  SnapshotFile file("ingest_test_warmstart.pddcache");
  GeneratedData data = SeededPersons(25);
  const size_t n = data.relation.size();
  const size_t crash_after = n / 2;
  std::shared_ptr<const DetectionPlan> plan = PersonPlan();

  // First life: serve the first half of the feed, snapshot, "crash"
  // (drop the session and the in-memory cache on the floor).
  {
    auto cache = std::make_shared<ShardedDecisionCache>();
    Result<std::unique_ptr<StandingSession>> session =
        StandingSession::Make(plan, nullptr, SessionOptions(cache));
    ASSERT_TRUE(session.ok());
    std::vector<size_t> first_half = Iota(crash_after);
    ASSERT_TRUE(
        DrainWithProducer(session->get(), data.relation, first_half).ok());
    ASSERT_TRUE(cache->SaveSnapshot(file.path()).ok());
  }

  // Second life: fresh process state, warm cache from disk, replay the
  // WHOLE feed (the standing service replays its input after restart).
  auto cache = std::make_shared<ShardedDecisionCache>();
  ASSERT_TRUE(cache->LoadSnapshot(file.path()).ok());
  Result<std::unique_ptr<StandingSession>> session =
      StandingSession::Make(plan, nullptr, SessionOptions(cache));
  ASSERT_TRUE(session.ok());
  Result<DetectionResult> live =
      DrainWithProducer(session->get(), data.relation, Iota(n));
  ASSERT_TRUE(live.ok());
  // Every replayed pair the first life decided comes straight from the
  // snapshot: at least the first half's crossing set hits.
  ASSERT_TRUE(live->cache_stats.has_value());
  EXPECT_GE(live->cache_stats->hits, TriangularPairCount(crash_after));
  // And the final report is byte-identical to a never-crashed batch run.
  Result<DetectionResult> finish = (*session)->Finish();
  ASSERT_TRUE(finish.ok());
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(PersonConfig(), PersonSchema());
  ASSERT_TRUE(detector.ok());
  Result<DetectionResult> batch =
      detector->Run((*session)->CanonicalRelation());
  ASSERT_TRUE(batch.ok());
  ExpectIdenticalResults(*finish, *batch);
}

}  // namespace
}  // namespace pdd
