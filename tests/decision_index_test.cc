// Tests for the decision-index serving layer (src/index/): the
// pdd.index.v1 format round trip, byte-identical answers against the
// fresh pipeline across every run shape (serial / pooled / cached),
// structural staleness and corruption rejection, and the
// zero-allocation query guarantee (global operator-new counting
// hooks — the reason these tests live in their own binary).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/decision_cache.h"
#include "core/detector.h"
#include "core/entity_clusters.h"
#include "datagen/person_generator.h"
#include "index/decision_index.h"
#include "index/format.h"
#include "index/index_builder.h"
#include "obs/metrics_registry.h"

// --- allocation counting hooks --------------------------------------
//
// Every allocation in the binary routes through the replaced operator
// new in alloc_hooks.cc, which bumps these. The ZeroAllocation tests
// snapshot the call counter around query sweeps, the record-footprint
// test the byte counter around a run; the rest of the suite simply
// ignores them.

extern std::atomic<uint64_t> g_alloc_count;
extern std::atomic<uint64_t> g_alloc_bytes;

namespace pdd {
namespace {

GeneratedData SeededPersons(size_t entities = 60, uint64_t seed = 20100301) {
  PersonGenOptions options;
  options.num_entities = entities;
  options.duplicate_rate = 0.8;
  options.uncertainty.value_uncertainty_prob = 0.3;
  options.uncertainty.xtuple_alternative_prob = 0.3;
  options.seed = seed;
  return GeneratePersons(options);
}

DetectorConfig PersonConfig(const Schema& schema) {
  DetectorConfig config;
  config.key.clear();
  config.key.emplace_back(schema.attribute(0).name, 3);
  if (schema.arity() > 1) {
    config.key.emplace_back(schema.attribute(1).name, 2);
  }
  config.weights.assign(schema.arity(),
                        1.0 / static_cast<double>(schema.arity()));
  return config;
}

Result<DetectionResult> RunShape(const XRelation& rel,
                                 const std::string& shape) {
  DetectorConfig config = PersonConfig(rel.schema());
  if (shape == "pooled") {
    config.workers = 4;
    config.batch_size = 16;
  }
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, rel.schema());
  if (!detector.ok()) return detector.status();
  if (shape == "cached") {
    detector->set_cache(std::make_shared<ShardedDecisionCache>());
    // Warm run, then the run under test is served from the cache.
    Result<DetectionResult> warm = detector->Run(rel);
    if (!warm.ok()) return warm.status();
  }
  return detector->Run(rel);
}

std::string MustBuild(const XRelation& rel, const DetectionResult& result,
                      IndexBuildStats* stats = nullptr) {
  Result<std::string> image = BuildDecisionIndexImage(rel, result, stats);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.ok() ? *image : std::string();
}

DecisionIndex MustOpenImage(std::string image) {
  Result<DecisionIndex> index = DecisionIndex::FromImage(std::move(image));
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return index.ok() ? *std::move(index) : DecisionIndex();
}

class IndexFile {
 public:
  explicit IndexFile(const char* name) : path_(name) {
    std::remove(path_.c_str());
  }
  ~IndexFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// --- answers vs the fresh pipeline ----------------------------------

TEST(DecisionIndexTest, AnswersMatchTheFreshPipelineExactly) {
  GeneratedData data = SeededPersons();
  Result<DetectionResult> result = RunShape(data.relation, "serial");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->decisions.size(), 0u);
  DecisionIndex index = MustOpenImage(MustBuild(data.relation, *result));

  for (const PairDecisionRecord& rec : result->decisions) {
    const std::string& id1 = result->id(rec.index1);
    const std::string& id2 = result->id(rec.index2);
    SCOPED_TRACE(id1 + "/" + id2);
    std::optional<IndexedDecision> by_index =
        index.Lookup(static_cast<uint32_t>(rec.index1),
                     static_cast<uint32_t>(rec.index2));
    ASSERT_TRUE(by_index.has_value());
    EXPECT_EQ(by_index->match_class, rec.match_class);
    // Bit-identical similarity: the index serves the report's bits,
    // never a re-derived approximation.
    EXPECT_EQ(by_index->similarity, rec.similarity);
    // Unordered-pair symmetry and the id-keyed form agree.
    std::optional<IndexedDecision> reversed =
        index.Lookup(static_cast<uint32_t>(rec.index2),
                     static_cast<uint32_t>(rec.index1));
    ASSERT_TRUE(reversed.has_value());
    EXPECT_EQ(reversed->similarity, by_index->similarity);
    std::optional<IndexedDecision> by_id = index.Lookup(id1, id2);
    ASSERT_TRUE(by_id.has_value());
    EXPECT_EQ(by_id->similarity, by_index->similarity);
    EXPECT_EQ(by_id->match_class, by_index->match_class);
  }
}

TEST(DecisionIndexTest, ClustersMatchClusterEntities) {
  GeneratedData data = SeededPersons();
  Result<DetectionResult> result = RunShape(data.relation, "serial");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  DecisionIndex index = MustOpenImage(MustBuild(data.relation, *result));

  std::vector<std::vector<size_t>> clusters =
      ClusterEntities(data.relation.size(), *result);
  ASSERT_EQ(index.cluster_count(), clusters.size());
  for (size_t c = 0; c < clusters.size(); ++c) {
    RecordSpan members = index.Members(static_cast<uint32_t>(c));
    ASSERT_EQ(members.size, clusters[c].size()) << "cluster " << c;
    for (size_t k = 0; k < members.size; ++k) {
      EXPECT_EQ(members[k], clusters[c][k]) << "cluster " << c;
    }
    for (uint32_t member : members) {
      EXPECT_EQ(index.ClusterOf(member), static_cast<uint32_t>(c));
    }
  }
}

TEST(DecisionIndexTest, MissesAndBadInputsAreAnswersNotErrors) {
  GeneratedData data = SeededPersons();
  Result<DetectionResult> result = RunShape(data.relation, "serial");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  DecisionIndex index = MustOpenImage(MustBuild(data.relation, *result));

  const uint32_t n = static_cast<uint32_t>(index.record_count());
  // A pair the run never examined: reduction prunes most of the n^2
  // space, so some pair below n is undecided unless the run was full.
  if (result->decisions.size() <
      static_cast<size_t>(n) * (n - 1) / 2) {
    bool found_miss = false;
    for (uint32_t a = 0; a < n && !found_miss; ++a) {
      for (uint32_t b = a + 1; b < n && !found_miss; ++b) {
        if (!index.Lookup(a, b).has_value()) found_miss = true;
      }
    }
    EXPECT_TRUE(found_miss);
  }
  EXPECT_FALSE(index.Lookup(0u, 0u).has_value());      // self pair
  EXPECT_FALSE(index.Lookup(0u, n).has_value());       // out of range
  EXPECT_FALSE(index.Lookup(n, n + 1).has_value());
  EXPECT_FALSE(index.FindRecord("no-such-id").has_value());
  EXPECT_FALSE(index.Lookup("no-such-id", "also-missing").has_value());
  EXPECT_FALSE(index.ClusterOf(n).has_value());
  EXPECT_TRUE(index.Members(static_cast<uint32_t>(index.cluster_count()))
                  .empty());
  // Every known id resolves to its tuple index.
  for (uint32_t r = 0; r < n; ++r) {
    EXPECT_EQ(index.FindRecord(index.RecordId(r)), r);
  }
}

// --- determinism across run shapes ----------------------------------

TEST(DecisionIndexTest, RunShapesCompileToByteIdenticalImages) {
  GeneratedData data = SeededPersons();
  Result<DetectionResult> serial = RunShape(data.relation, "serial");
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const std::string reference = MustBuild(data.relation, *serial);
  ASSERT_FALSE(reference.empty());
  for (const char* shape : {"pooled", "cached"}) {
    SCOPED_TRACE(shape);
    Result<DetectionResult> result = RunShape(data.relation, shape);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Same report content digest -> same image, byte for byte.
    EXPECT_EQ(result->ContentDigest(), serial->ContentDigest());
    EXPECT_EQ(MustBuild(data.relation, *result), reference);
  }
}

// --- file round trip ------------------------------------------------

TEST(DecisionIndexTest, FileRoundTripServesTheSameAnswers) {
  GeneratedData data = SeededPersons(30, 7);
  Result<DetectionResult> result = RunShape(data.relation, "serial");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  IndexBuildStats stats;
  std::string image = MustBuild(data.relation, *result, &stats);
  EXPECT_EQ(stats.bytes, image.size());
  EXPECT_EQ(stats.record_count, data.relation.size());
  EXPECT_EQ(stats.pair_count, result->decisions.size());
  EXPECT_GT(stats.BytesPerPair(), 0.0);

  IndexFile file("decision_index_test_roundtrip.pddindex");
  ASSERT_TRUE(WriteDecisionIndexFile(file.path(), image).ok());
  Result<DecisionIndex> opened = DecisionIndex::Open(file.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DecisionIndex from_image = MustOpenImage(image);
  EXPECT_FALSE(from_image.is_mmap());
  EXPECT_EQ(opened->record_count(), from_image.record_count());
  EXPECT_EQ(opened->pair_count(), from_image.pair_count());
  EXPECT_EQ(opened->cluster_count(), from_image.cluster_count());
  EXPECT_EQ(opened->plan_fingerprint(), result->plan_fingerprint);
  EXPECT_EQ(opened->source_digest(), result->ContentDigest());
  for (const PairDecisionRecord& rec : result->decisions) {
    std::optional<IndexedDecision> a =
        opened->Lookup(static_cast<uint32_t>(rec.index1),
                       static_cast<uint32_t>(rec.index2));
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->similarity, rec.similarity);
    EXPECT_EQ(a->match_class, rec.match_class);
  }
}

// --- staleness ------------------------------------------------------

TEST(DecisionIndexTest, StalePlanFingerprintIsRejected) {
  GeneratedData data = SeededPersons(30, 7);
  Result<DetectionResult> result = RunShape(data.relation, "serial");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  DecisionIndex index = MustOpenImage(MustBuild(data.relation, *result));

  EXPECT_TRUE(index.VerifyPlanFingerprint(result->plan_fingerprint).ok());
  EXPECT_TRUE(index.VerifySourceDigest(result->ContentDigest()).ok());

  // A plan with different decision parameters has another fingerprint;
  // the index built under the old plan must refuse to serve for it.
  DetectorConfig changed = PersonConfig(data.relation.schema());
  changed.final_thresholds = {0.2, 0.9};
  Result<DuplicateDetector> other =
      DuplicateDetector::Make(changed, data.relation.schema());
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  ASSERT_NE(other->plan().fingerprint(), result->plan_fingerprint);
  Status stale = index.VerifyPlanFingerprint(other->plan().fingerprint());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.message().find("stale index"), std::string::npos);
  Status stale_source = index.VerifySourceDigest(result->ContentDigest() ^ 1);
  EXPECT_EQ(stale_source.code(), StatusCode::kFailedPrecondition);
}

// --- corruption -----------------------------------------------------

TEST(DecisionIndexTest, CorruptedAndTruncatedImagesAreRejected) {
  GeneratedData data = SeededPersons(30, 7);
  Result<DetectionResult> result = RunShape(data.relation, "serial");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string image = MustBuild(data.relation, *result);

  std::string bad_magic = image;
  bad_magic[0] ^= 0x5a;
  EXPECT_EQ(DecisionIndex::FromImage(bad_magic).status().code(),
            StatusCode::kParseError);

  std::string flipped = image;
  flipped[kIndexHeaderBytes + flipped.size() / 2] ^= 0x01;
  Status corrupt = DecisionIndex::FromImage(flipped).status();
  EXPECT_EQ(corrupt.code(), StatusCode::kParseError);
  EXPECT_NE(corrupt.message().find("digest"), std::string::npos);

  std::string truncated = image.substr(0, image.size() - 16);
  EXPECT_EQ(DecisionIndex::FromImage(truncated).status().code(),
            StatusCode::kParseError);

  EXPECT_EQ(DecisionIndex::FromImage(std::string("tiny")).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(DecisionIndex::Open("decision_index_test_missing.pddindex")
                .status()
                .code(),
            StatusCode::kNotFound);

  // The digest check is what caught the flip: skipping it (the
  // documented fast-reopen path) accepts the same payload bytes.
  DecisionIndex::OpenOptions trusting;
  trusting.verify_digest = false;
  EXPECT_TRUE(DecisionIndex::FromImage(flipped, trusting).ok());
}

// --- degenerate shapes ----------------------------------------------

TEST(DecisionIndexTest, EmptyUniverseAndSingletonClusters) {
  DetectionResult empty;
  IndexBuildStats stats;
  Result<std::string> none =
      BuildDecisionIndexImage(std::vector<std::string>{}, empty, &stats);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  DecisionIndex index = MustOpenImage(*none);
  EXPECT_EQ(index.record_count(), 0u);
  EXPECT_EQ(index.pair_count(), 0u);
  EXPECT_EQ(index.cluster_count(), 0u);
  EXPECT_EQ(stats.BytesPerPair(), 0.0);
  EXPECT_FALSE(index.Lookup(0u, 1u).has_value());
  EXPECT_FALSE(index.FindRecord("r0").has_value());

  // Records without any decision still serve as singleton clusters.
  DecisionIndex singletons = MustOpenImage(*BuildDecisionIndexImage(
      std::vector<std::string>{"a", "b", "c"}, empty));
  EXPECT_EQ(singletons.record_count(), 3u);
  EXPECT_EQ(singletons.cluster_count(), 3u);
  for (uint32_t r = 0; r < 3; ++r) {
    std::optional<uint32_t> cluster = singletons.ClusterOf(r);
    ASSERT_TRUE(cluster.has_value());
    RecordSpan members = singletons.Members(*cluster);
    ASSERT_EQ(members.size, 1u);
    EXPECT_EQ(members[0], r);
  }
  EXPECT_EQ(singletons.FindRecord("b"), 1u);
  EXPECT_FALSE(singletons.Lookup(0u, 1u).has_value());
}

TEST(DecisionIndexTest, BuilderRejectsInconsistentDecisions) {
  const std::vector<std::string> ids = {"a", "b"};
  DetectionResult result;
  result.ids = std::make_shared<std::vector<std::string>>(ids);
  PairDecisionRecord rec;
  rec.index1 = 0;
  rec.index2 = 1;
  rec.similarity = 0.5;
  rec.match_class = MatchClass::kMatch;
  result.decisions = {rec, rec};  // duplicate pair
  EXPECT_FALSE(BuildDecisionIndexImage(ids, result).ok());
  result.decisions = {rec};
  result.decisions[0].index2 = 7;  // out of range
  EXPECT_FALSE(BuildDecisionIndexImage(ids, result).ok());
  result.decisions[0].index2 = 0;  // self pair
  EXPECT_FALSE(BuildDecisionIndexImage(ids, result).ok());
  result.decisions[0].index2 = 1;
  EXPECT_TRUE(BuildDecisionIndexImage(ids, result).ok());
  result.ids = std::make_shared<std::vector<std::string>>(
      std::vector<std::string>{"a", "mismatch"});  // table disagrees
  EXPECT_FALSE(BuildDecisionIndexImage(ids, result).ok());
  result.ids = nullptr;  // decisions without an id table
  EXPECT_FALSE(BuildDecisionIndexImage(ids, result).ok());
}

// --- metrics --------------------------------------------------------

TEST(DecisionIndexTest, BuildMetricsLandInTheExecNamespace) {
  GeneratedData data = SeededPersons(30, 7);
  Result<DetectionResult> result = RunShape(data.relation, "serial");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  IndexBuildStats stats;
  MustBuild(data.relation, *result, &stats);
  MetricsRegistry metrics;
  AddIndexBuildMetrics(stats, &metrics);
  EXPECT_EQ(metrics.counters().at("exec.index.records"),
            stats.record_count);
  EXPECT_EQ(metrics.counters().at("exec.index.pairs"), stats.pair_count);
  EXPECT_EQ(metrics.counters().at("exec.index.clusters"),
            stats.cluster_count);
  EXPECT_EQ(metrics.counters().at("exec.index.bytes"), stats.bytes);
  EXPECT_EQ(metrics.gauges().at("exec.index.bytes_per_pair"),
            stats.BytesPerPair());
}

// --- decision record footprint --------------------------------------

TEST(DecisionIndexTest, PooledRunAllocatesAtMost64BytesPerDecision) {
  // About 650 tuples: the full reduction decides over 200K pairs.
  GeneratedData data = SeededPersons(360, 7);
  DetectorConfig config = PersonConfig(data.relation.schema());
  config.workers = 2;
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, data.relation.schema());
  ASSERT_TRUE(detector.ok()) << detector.status().ToString();

  const uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  Result<DetectionResult> result = detector->Run(data.relation);
  const uint64_t after = g_alloc_bytes.load(std::memory_order_relaxed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const size_t decisions = result->decisions.size();
  ASSERT_GE(decisions, 200000u);
  // Workers commit their records straight into the result, 24 bytes
  // each; everything else a run allocates is per tuple or per batch.
  const double per_decision =
      static_cast<double>(after - before) / static_cast<double>(decisions);
  EXPECT_LE(per_decision, 64.0) << (after - before) << " bytes for "
                                << decisions << " decisions";
}

// --- zero allocation ------------------------------------------------

TEST(DecisionIndexTest, QueriesAllocateNothing) {
  GeneratedData data = SeededPersons();
  Result<DetectionResult> result = RunShape(data.relation, "serial");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  DecisionIndex index = MustOpenImage(MustBuild(data.relation, *result));
  ASSERT_GT(index.pair_count(), 0u);

  // Everything a query needs is prepared outside the counted region.
  const uint32_t n = static_cast<uint32_t>(index.record_count());
  const std::string known_id(index.RecordId(0));
  const std::string other_id(index.RecordId(n - 1));
  const std::string unknown_id = "decision-index-test-unknown";
  uint64_t checksum = 0;

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (uint32_t a = 0; a < n; ++a) {
    const size_t degree = index.RunLength(a);
    for (size_t k = 0; k < degree; ++k) {
      uint32_t neighbor = 0;
      IndexedDecision entry;
      index.RunEntry(a, k, &neighbor, &entry);
      std::optional<IndexedDecision> hit = index.Lookup(a, neighbor);
      checksum += hit.has_value()
                      ? static_cast<uint64_t>(hit->match_class) + neighbor
                      : 0;
    }
    checksum += *index.ClusterOf(a);
    RecordSpan members = index.Members(*index.ClusterOf(a));
    checksum += members.size + members[0];
    checksum += index.Lookup(a, a + 1).has_value() ? 1 : 0;  // likely miss
  }
  checksum += index.FindRecord(known_id).value_or(0);
  checksum += index.FindRecord(unknown_id).has_value() ? 1 : 0;
  checksum += index.Lookup(known_id, other_id).has_value() ? 1 : 0;
  checksum += index.RecordId(0).size();
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after, before) << "queries allocated " << (after - before)
                           << " times (checksum " << checksum << ")";
}

// A rewrite replaces the file instead of truncating it in place: a
// hard link taken before it still reads the old image, and an index
// opened (mmap'ed) before it keeps serving the old one.
TEST(DecisionIndexTest, RewriteReplacesTheFileAMappedReaderHolds) {
  GeneratedData first = SeededPersons(30, 7);
  GeneratedData second = SeededPersons(20, 8);
  Result<DetectionResult> first_result = RunShape(first.relation, "serial");
  Result<DetectionResult> second_result = RunShape(second.relation, "serial");
  ASSERT_TRUE(first_result.ok() && second_result.ok());
  const std::string old_image = MustBuild(first.relation, *first_result);
  const std::string new_image = MustBuild(second.relation, *second_result);
  ASSERT_NE(old_image, new_image);

  IndexFile file("decision_index_test_replace.pddindex");
  IndexFile link("decision_index_test_replace_link.pddindex");
  ASSERT_TRUE(WriteDecisionIndexFile(file.path(), old_image).ok());
  std::filesystem::create_hard_link(file.path(), link.path());
  Result<DecisionIndex> held = DecisionIndex::Open(file.path());
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  ASSERT_TRUE(WriteDecisionIndexFile(file.path(), new_image).ok());
  EXPECT_EQ(ReadBytes(link.path()), old_image);
  EXPECT_EQ(ReadBytes(file.path()), new_image);
  EXPECT_EQ(held->record_count(), first.relation.size());
  Result<DecisionIndex> reopened = DecisionIndex::Open(file.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->record_count(), second.relation.size());
}

TEST(DecisionIndexTest, MmapQueriesAllocateNothing) {
  GeneratedData data = SeededPersons(30, 7);
  Result<DetectionResult> result = RunShape(data.relation, "serial");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  IndexFile file("decision_index_test_zeroalloc.pddindex");
  ASSERT_TRUE(
      WriteDecisionIndexFile(file.path(), MustBuild(data.relation, *result))
          .ok());
  Result<DecisionIndex> opened = DecisionIndex::Open(file.path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const uint32_t n = static_cast<uint32_t>(opened->record_count());
  ASSERT_GT(n, 0u);

  uint64_t checksum = 0;
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (uint32_t a = 0; a < n; ++a) {
    std::optional<IndexedDecision> hit = opened->Lookup(a, a + 1);
    checksum += hit.has_value() ? 1u : 0u;
    checksum += *opened->ClusterOf(a);
  }
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "checksum " << checksum;
}

}  // namespace
}  // namespace pdd
