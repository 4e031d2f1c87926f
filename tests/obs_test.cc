// Tests for the run-telemetry subsystem (src/obs/): log-histogram
// bucket math and merge associativity, registry determinism across
// worker/batch/cache run shapes, JSON and Prometheus export goldens,
// the atomic sidecar writer, span nesting, the registry's agreement
// with the result's stat fields and of the workers' tallies with a
// recount of the records, the batch clocks every run keeps, and the
// live-into-finish timing fold.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cache/decision_cache.h"
#include "core/detector.h"
#include "datagen/person_generator.h"
#include "obs/export.h"
#include "obs/log_histogram.h"
#include "obs/metrics_registry.h"
#include "ingest/standing_session.h"
#include "obs/run_telemetry.h"
#include "pipeline/detection_plan.h"
#include "pipeline/detection_result.h"

namespace pdd {
namespace {

// --- log histogram ------------------------------------------------------

TEST(LogHistogramTest, BucketIndexIsBitWidth) {
  EXPECT_EQ(LogHistogram::BucketIndex(0), 0u);
  EXPECT_EQ(LogHistogram::BucketIndex(1), 1u);
  EXPECT_EQ(LogHistogram::BucketIndex(2), 2u);
  EXPECT_EQ(LogHistogram::BucketIndex(3), 2u);
  EXPECT_EQ(LogHistogram::BucketIndex(4), 3u);
  EXPECT_EQ(LogHistogram::BucketIndex(7), 3u);
  EXPECT_EQ(LogHistogram::BucketIndex(8), 4u);
  EXPECT_EQ(LogHistogram::BucketIndex(1023), 10u);
  EXPECT_EQ(LogHistogram::BucketIndex(1024), 11u);
  EXPECT_EQ(LogHistogram::BucketIndex(UINT64_MAX), 64u);
  // Both sides of every power of two: 2^k - 1 has width k, 2^k has
  // width k + 1.
  for (size_t k = 1; k <= 63; ++k) {
    const uint64_t power = uint64_t{1} << k;
    EXPECT_EQ(LogHistogram::BucketIndex(power - 1), k) << "2^" << k << " - 1";
    EXPECT_EQ(LogHistogram::BucketIndex(power), k + 1) << "2^" << k;
  }
}

TEST(LogHistogramTest, BucketUpperBoundsInvertBucketIndex) {
  EXPECT_EQ(LogHistogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(LogHistogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(LogHistogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(LogHistogram::BucketUpperBound(3), 7u);
  EXPECT_EQ(LogHistogram::BucketUpperBound(64), UINT64_MAX);
  // Every bucket's upper bound maps back to that bucket, so a
  // sidecar's [upper_bound, count] pairs name their buckets.
  for (size_t i = 0; i < LogHistogram::kBucketCount; ++i) {
    EXPECT_EQ(LogHistogram::BucketIndex(LogHistogram::BucketUpperBound(i)), i);
  }
}

TEST(LogHistogramTest, ExactCountSumMinMax) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
  h.Record(0);
  h.Record(5);
  h.RecordN(100, 3);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 305u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.MeanFloor(), 61u);
}

TEST(LogHistogramTest, QuantilesAreBucketUpperBounds) {
  LogHistogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  // rank ceil(0.5 * 100) = 50 -> value 50 -> bucket [32, 63].
  EXPECT_EQ(h.Quantile(0.5), 63u);
  // rank 95 -> value 95 -> bucket [64, 127].
  EXPECT_EQ(h.Quantile(0.95), 127u);
  EXPECT_EQ(h.Quantile(1.0), 127u);
  // rank clamps to 1 at q=0 -> value 1 -> bucket [1, 1].
  EXPECT_EQ(h.Quantile(0.0), 1u);
}

TEST(LogHistogramTest, MergeEqualsSequentialRecording) {
  LogHistogram a;
  LogHistogram b;
  LogHistogram all;
  for (uint64_t v : {0ull, 3ull, 17ull, 100000ull}) {
    a.Record(v);
    all.Record(v);
  }
  for (uint64_t v : {1ull, 17ull, 254ull}) {
    b.Record(v);
    all.Record(v);
  }
  LogHistogram merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged, all);
  // Merge order must not matter.
  LogHistogram reversed = b;
  reversed.Merge(a);
  EXPECT_EQ(reversed, all);
}

// --- registry -----------------------------------------------------------

TEST(MetricsRegistryTest, NamespaceClassification) {
  EXPECT_TRUE(IsIdentityMetricName("pairs.candidates"));
  EXPECT_TRUE(IsIdentityMetricName("decisions.similarity_micros"));
  EXPECT_FALSE(IsIdentityMetricName("exec.stream.batches"));
  EXPECT_FALSE(IsIdentityMetricName("time.batch_decide_micros"));
}

TEST(MetricsRegistryTest, AbsentReadsHaveDefaultsAndNoSideEffects) {
  MetricsRegistry m;
  EXPECT_EQ(m.counter("nope"), 0u);
  EXPECT_EQ(m.gauge("nope"), 0.0);
  EXPECT_EQ(m.info("nope"), "");
  EXPECT_EQ(m.histogram("nope"), nullptr);
  EXPECT_TRUE(m.counters().empty());
  EXPECT_TRUE(m.gauges().empty());
  EXPECT_TRUE(m.infos().empty());
  EXPECT_TRUE(m.histograms().empty());
}

// --- JSON export goldens ------------------------------------------------

RunTelemetry GoldenTelemetry() {
  RunTelemetry t;
  t.metrics.SetCounter("pairs.candidates", 3);
  t.metrics.SetGauge("time.index.build_seconds", 0.5);
  t.metrics.SetInfo("plan.fingerprint", "0xdeadbeef");
  LogHistogram* h = t.metrics.MutableHistogram("decisions.similarity_micros");
  h->Record(0);
  h->Record(5);
  h->Record(1000000);
  TelemetrySpan* drain = t.root.AddChild("drain");
  drain->counts["batches"] = 2;
  return t;
}

constexpr char kGoldenJson[] = R"({
  "schema": "pdd.telemetry.v1",
  "counters": {
    "pairs.candidates": 3
  },
  "gauges": {
    "time.index.build_seconds": 0.5
  },
  "histograms": {
    "decisions.similarity_micros": {
      "count": 3,
      "max": 1000000,
      "min": 0,
      "p50": 7,
      "p95": 1048575,
      "p99": 1048575,
      "sum": 1000005,
      "buckets": [[0, 1], [7, 1], [1048575, 1]]
    }
  },
  "info": {
    "plan.fingerprint": "0xdeadbeef"
  },
  "spans": [
    {
      "name": "run",
      "seconds": 0,
      "counts": {},
      "children": [
        {
          "name": "drain",
          "seconds": 0,
          "counts": {
            "batches": 2
          },
          "children": []
        }
      ]
    }
  ]
}
)";

constexpr char kGoldenIdentityJson[] = R"({
  "schema": "pdd.telemetry.v1",
  "counters": {
    "pairs.candidates": 3
  },
  "gauges": {},
  "histograms": {
    "decisions.similarity_micros": {
      "count": 3,
      "max": 1000000,
      "min": 0,
      "p50": 7,
      "p95": 1048575,
      "p99": 1048575,
      "sum": 1000005,
      "buckets": [[0, 1], [7, 1], [1048575, 1]]
    }
  },
  "info": {
    "plan.fingerprint": "0xdeadbeef"
  }
}
)";

TEST(TelemetryExportTest, JsonGolden) {
  EXPECT_EQ(TelemetryToJson(GoldenTelemetry()), kGoldenJson);
}

TEST(TelemetryExportTest, IdentityJsonDropsNondeterministicNamespaces) {
  EXPECT_EQ(IdentityMetricsJson(GoldenTelemetry()), kGoldenIdentityJson);
}

TEST(TelemetryExportTest, PrometheusExposition) {
  std::string prom = TelemetryToPrometheus(GoldenTelemetry());
  EXPECT_NE(prom.find("# TYPE pdd_pairs_candidates counter\n"
                      "pdd_pairs_candidates 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE pdd_time_index_build_seconds gauge\n"
                      "pdd_time_index_build_seconds 0.5\n"),
            std::string::npos);
  // Histogram buckets are cumulative and close with +Inf == _count.
  EXPECT_NE(prom.find("pdd_decisions_similarity_micros_bucket"
                      "{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("pdd_decisions_similarity_micros_bucket"
                      "{le=\"1048575\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("pdd_decisions_similarity_micros_bucket"
                      "{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(prom.find("pdd_decisions_similarity_micros_count 3\n"),
            std::string::npos);
  EXPECT_NE(
      prom.find("pdd_info{name=\"plan.fingerprint\",value=\"0xdeadbeef\"} 1\n"),
      std::string::npos);
}

// --- sidecar writer -----------------------------------------------------

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A fresh directory, removed with everything in it.
class ScratchDir {
 public:
  explicit ScratchDir(const char* name) : path_(name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directory(path_);
  }
  ~ScratchDir() {
    std::error_code error;
    std::filesystem::remove_all(path_, error);
  }
  std::string File(const char* name) const { return path_ + "/" + name; }
  size_t EntryCount() const {
    return static_cast<size_t>(
        std::distance(std::filesystem::directory_iterator(path_),
                      std::filesystem::directory_iterator()));
  }

 private:
  std::string path_;
};

TEST(TelemetrySidecarTest, WritesExactlyTheExportersBytes) {
  ScratchDir dir("obs_test_sidecar_bytes");
  const RunTelemetry telemetry = GoldenTelemetry();
  ASSERT_TRUE(
      WriteTelemetrySidecar(telemetry, dir.File("run.json"), "json").ok());
  EXPECT_EQ(ReadBytes(dir.File("run.json")), TelemetryToJson(telemetry));
  ASSERT_TRUE(
      WriteTelemetrySidecar(telemetry, dir.File("run.prom"), "prom").ok());
  EXPECT_EQ(ReadBytes(dir.File("run.prom")),
            TelemetryToPrometheus(telemetry));
  EXPECT_EQ(dir.EntryCount(), 2u);
}

// A second write replaces the file instead of rewriting it: a hard
// link taken before it keeps the old bytes.
TEST(TelemetrySidecarTest, ReplacesTheFileRatherThanRewritingIt) {
  ScratchDir dir("obs_test_sidecar_replace");
  RunTelemetry telemetry = GoldenTelemetry();
  ASSERT_TRUE(
      WriteTelemetrySidecar(telemetry, dir.File("run.json"), "json").ok());
  const std::string before = ReadBytes(dir.File("run.json"));
  std::filesystem::create_hard_link(dir.File("run.json"),
                                    dir.File("link.json"));
  telemetry.metrics.SetCounter("pairs.candidates", 4);
  ASSERT_TRUE(
      WriteTelemetrySidecar(telemetry, dir.File("run.json"), "json").ok());
  EXPECT_EQ(ReadBytes(dir.File("link.json")), before);
  EXPECT_EQ(ReadBytes(dir.File("run.json")), TelemetryToJson(telemetry));
  EXPECT_EQ(dir.EntryCount(), 2u);
}

// What is no regular file is refused before anything is created.
TEST(TelemetrySidecarTest, RefusesWhatIsNotARegularFile) {
  ScratchDir dir("obs_test_sidecar_refuse");
  const std::string sub = dir.File("sub");
  std::filesystem::create_directory(sub);
  for (const std::string& path : {sub, std::string("/dev/null")}) {
    EXPECT_EQ(WriteTelemetrySidecar(GoldenTelemetry(), path, "json").code(),
              StatusCode::kInvalidArgument)
        << path;
  }
  EXPECT_TRUE(std::filesystem::is_empty(sub));
  EXPECT_EQ(dir.EntryCount(), 1u);
}

// --- spans --------------------------------------------------------------

TEST(TelemetrySpanTest, PathLookup) {
  RunTelemetry t;
  TelemetrySpan* drain = t.root.AddChild("drain");
  drain->AddChild("worker.0")->counts["batches"] = 4;
  drain->AddChild("worker.1");
  ASSERT_NE(t.root.Find("drain/worker.0"), nullptr);
  EXPECT_EQ(t.root.Find("drain/worker.0")->counts.at("batches"), 4u);
  EXPECT_EQ(t.root.Find("drain/worker.2"), nullptr);
  EXPECT_EQ(t.root.Find("nope"), nullptr);
}

// --- executor integration -----------------------------------------------

GeneratedData UncertainPersons(size_t entities = 40) {
  PersonGenOptions gen;
  gen.num_entities = entities;
  gen.duplicate_rate = 0.6;
  gen.uncertainty.value_uncertainty_prob = 0.4;
  gen.uncertainty.xtuple_alternative_prob = 0.3;
  gen.seed = 80808;
  return GeneratePersons(gen);
}

DetectorConfig PersonConfig() {
  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.5, 0.3, 0.2};
  return config;
}

struct RunShape {
  const char* label;
  size_t workers = 0;
  size_t batch_size = 256;
  bool cached = false;
};

TEST(RunTelemetryTest, IdentityMetricsBitIdenticalAcrossRunShapes) {
  GeneratedData data = UncertainPersons();
  const RunShape shapes[] = {
      {"serial"},
      {"pooled", /*workers=*/4},
      {"tiny-batch", /*workers=*/0, /*batch_size=*/2},
      {"cached", /*workers=*/0, /*batch_size=*/256, /*cached=*/true},
  };
  std::string baseline;
  for (const RunShape& shape : shapes) {
    DetectorConfig config = PersonConfig();
    config.workers = shape.workers;
    config.batch_size = shape.batch_size;
    auto detector = DuplicateDetector::Make(config, PersonSchema());
    ASSERT_TRUE(detector.ok()) << shape.label;
    if (shape.cached) {
      detector->set_cache(std::make_shared<ShardedDecisionCache>());
    }
    auto result = detector->Run(data.relation);
    ASSERT_TRUE(result.ok()) << shape.label;
    ASSERT_NE(result->telemetry, nullptr) << shape.label;
    // Drain accounting of this shape: one worker.N span per drain
    // thread, their counts summing to the stream totals.
    const TelemetrySpan* drain = result->telemetry->root.Find("drain");
    ASSERT_NE(drain, nullptr) << shape.label;
    size_t worker_spans = 0;
    uint64_t batches = 0;
    uint64_t candidates = 0;
    for (const TelemetrySpan& child : drain->children) {
      if (child.name.rfind("worker.", 0) != 0) continue;
      ++worker_spans;
      batches += child.counts.at("batches");
      candidates += child.counts.at("candidates");
    }
    EXPECT_EQ(worker_spans, std::max<size_t>(shape.workers, 1))
        << shape.label;
    EXPECT_EQ(batches, result->stream_stats.batches) << shape.label;
    EXPECT_EQ(candidates, result->candidate_count) << shape.label;
    std::string identity = IdentityMetricsJson(*result->telemetry);
    if (baseline.empty()) {
      baseline = identity;
      EXPECT_NE(baseline.find("\"pairs.candidates\""), std::string::npos);
      EXPECT_NE(baseline.find("\"decisions.similarity_micros\""),
                std::string::npos);
    } else {
      EXPECT_EQ(identity, baseline) << shape.label;
    }
  }
}

TEST(RunTelemetryTest, RegistryIsBuiltOnceFromTheResultFields) {
  GeneratedData data = UncertainPersons(25);
  DetectorConfig config = PersonConfig();
  auto detector = DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(detector.ok());
  detector->set_cache(std::make_shared<ShardedDecisionCache>());
  auto result = detector->Run(data.relation);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->telemetry, nullptr);
  const RunTelemetry& t = *result->telemetry;

  // The registry holds the stat fields the executor summed.
  ASSERT_TRUE(result->cache_stats.has_value());
  EXPECT_EQ(t.metrics.counter(kMetricCacheAttached), 1u);
  EXPECT_EQ(t.metrics.counter(kMetricCacheLookups),
            result->cache_stats->lookups);
  EXPECT_EQ(t.metrics.counter(kMetricCacheInserts),
            result->cache_stats->inserts);
  EXPECT_EQ(t.metrics.counter(kMetricStreamBatches),
            result->stream_stats.batches);
  EXPECT_EQ(t.metrics.counter(kMetricStreamHighWater),
            result->stream_stats.live_candidate_high_water);

  // And the registry agrees with the result's own counts.
  EXPECT_EQ(t.metrics.counter(kMetricCandidatePairs),
            result->candidate_count);
  EXPECT_EQ(t.metrics.counter(kMetricDecisions), result->decisions.size());
  const LogHistogram* sim =
      t.metrics.histogram(kMetricSimilarityMicros);
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->count(), result->decisions.size());
  // Span tree: generate, drain with its worker children, commit.
  ASSERT_EQ(t.root.children.size(), 3u);
  EXPECT_EQ(t.root.children[0].name, "generate");
  EXPECT_EQ(t.root.children[1].name, "drain");
  EXPECT_EQ(t.root.children[2].name, "commit");
  EXPECT_NE(t.root.Find("drain/worker.0"), nullptr);
  // The benchmark's StageTimings shim carries the decide seconds.
  EXPECT_EQ(result->stage_timings.match_seconds,
            t.root.Find("drain")->seconds);
}

/// Holds one executor result to the batch clocks every run keeps: the
/// generate, drain, commit and worker.N spans read time, one decide
/// latency sample per batch, and the stats report renders the table.
void ExpectBatchClocks(const DetectionResult& result,
                       const std::string& label) {
  ASSERT_NE(result.telemetry, nullptr) << label;
  const RunTelemetry& t = *result.telemetry;
  for (const char* span : {"generate", "drain", "commit"}) {
    ASSERT_NE(t.root.Find(span), nullptr) << label << " " << span;
    EXPECT_GT(t.root.Find(span)->seconds, 0.0) << label << " " << span;
  }
  double worker_seconds = 0.0;
  for (const TelemetrySpan& worker : t.root.Find("drain")->children) {
    worker_seconds += worker.seconds;
    // A pooled worker may find the stream drained before its first
    // pull; every worker that decided a batch clocked it.
    if (worker.counts.at("batches") > 0) {
      EXPECT_GT(worker.seconds, 0.0) << label << " " << worker.name;
    }
  }
  EXPECT_DOUBLE_EQ(worker_seconds, t.root.Find("drain")->seconds) << label;
  const LogHistogram* decide = t.metrics.histogram(kMetricBatchDecideMicros);
  ASSERT_NE(decide, nullptr) << label;
  EXPECT_GT(decide->count(), 0u) << label;
  EXPECT_EQ(decide->count(), t.metrics.counter(kMetricStreamBatches))
      << label;
  const std::string report = RenderExecutionStats(t);
  EXPECT_NE(report.find("| decide |"), std::string::npos) << label;
  EXPECT_EQ(report.find("(no executor timings)"), std::string::npos)
      << label;
}

// No run asks for timing: the default plan's every run shape clocks its
// batches anyway.
TEST(RunTelemetryTest, EveryRunClocksItsBatches) {
  GeneratedData data = UncertainPersons(25);
  auto cache = std::make_shared<ShardedDecisionCache>();
  const RunShape shapes[] = {
      {"serial"},
      {"4 workers x batch 2", /*workers=*/4, /*batch_size=*/2},
      {"cold cached", /*workers=*/0, /*batch_size=*/256, /*cached=*/true},
      {"warm cached", /*workers=*/0, /*batch_size=*/256, /*cached=*/true},
  };
  for (const RunShape& shape : shapes) {
    DetectorConfig config = PersonConfig();
    config.workers = shape.workers;
    config.batch_size = shape.batch_size;
    auto detector = DuplicateDetector::Make(config, PersonSchema());
    ASSERT_TRUE(detector.ok()) << shape.label;
    if (shape.cached) detector->set_cache(cache);
    auto result = detector->Run(data.relation);
    ASSERT_TRUE(result.ok()) << shape.label;
    ExpectBatchClocks(*result, shape.label);
  }

  auto plan = DetectionPlan::Compile(PersonConfig(), PersonSchema());
  ASSERT_TRUE(plan.ok());
  const size_t seed_size = data.relation.size() / 3;
  XRelation seed(data.relation.name(), data.relation.schema());
  for (size_t i = 0; i < seed_size; ++i) {
    seed.AppendUnchecked(data.relation.xtuple(i));
  }
  auto session = StandingSession::Make(*plan, &seed, {});
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (size_t i = seed_size; i < data.relation.size(); ++i) {
    ASSERT_TRUE((*session)->queue().Push(data.relation.xtuple(i)));
  }
  (*session)->queue().Close();
  auto live = (*session)->Drain();
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ExpectBatchClocks(*live, "standing Drain()");
  auto finish = (*session)->Finish();
  ASSERT_TRUE(finish.ok()) << finish.status().ToString();
  ExpectBatchClocks(*finish, "standing Finish()");
}

/// Holds the identity metrics the executor tallied in its workers to a
/// recount of the same records through a hand-assembled result.
void ExpectTallyEqualsRecount(const DetectionResult& result,
                              const std::string& label) {
  ASSERT_NE(result.telemetry, nullptr) << label;
  ASSERT_FALSE(result.decisions.empty()) << label;
  DetectionResult recount;
  recount.decisions = result.decisions;
  recount.candidate_count = result.candidate_count;
  recount.total_pairs = result.total_pairs;
  recount.plan_fingerprint = result.plan_fingerprint;
  EXPECT_EQ(IdentityMetricsJson(*result.telemetry),
            IdentityMetricsJson(TelemetryFromResult(recount)))
      << label;
  const MetricsRegistry& m = result.telemetry->metrics;
  EXPECT_EQ(m.counter(kMetricMatches) + m.counter(kMetricPossibles) +
                m.counter(kMetricUnmatches),
            result.decisions.size())
      << label;
  const LogHistogram* similarity = m.histogram(kMetricSimilarityMicros);
  ASSERT_NE(similarity, nullptr) << label;
  EXPECT_EQ(similarity->count(), result.decisions.size()) << label;
}

TEST(RunTelemetryTest, TalliedIdentityMetricsEqualARecount) {
  GeneratedData data = UncertainPersons();
  auto cache = std::make_shared<ShardedDecisionCache>();
  const RunShape shapes[] = {
      {"serial"},
      {"4 workers x batch 2", /*workers=*/4, /*batch_size=*/2},
      {"cold cached", /*workers=*/2, /*batch_size=*/7, /*cached=*/true},
      {"warm cached", /*workers=*/2, /*batch_size=*/7, /*cached=*/true},
  };
  for (const RunShape& shape : shapes) {
    DetectorConfig config = PersonConfig();
    config.workers = shape.workers;
    config.batch_size = shape.batch_size;
    auto detector = DuplicateDetector::Make(config, PersonSchema());
    ASSERT_TRUE(detector.ok()) << shape.label;
    if (shape.cached) detector->set_cache(cache);
    auto result = detector->Run(data.relation);
    ASSERT_TRUE(result.ok()) << shape.label;
    ExpectTallyEqualsRecount(*result, shape.label);
    EXPECT_GT(result->telemetry->metrics.counter(kMetricMatches), 0u)
        << shape.label;
    if (std::string(shape.label) == "warm cached") {
      ASSERT_TRUE(result->cache_stats.has_value());
      EXPECT_EQ(result->cache_stats->hits, result->candidate_count);
    }
  }

  // Standing: a seed relation, then live arrivals. The live drain
  // decides seed x arrival and arrival x arrival pairs; Finish() takes
  // those from the live records and decides the seed x seed pairs.
  auto plan = DetectionPlan::Compile(PersonConfig(), PersonSchema());
  ASSERT_TRUE(plan.ok());
  const size_t seed_size = data.relation.size() / 3;
  XRelation seed(data.relation.name(), data.relation.schema());
  for (size_t i = 0; i < seed_size; ++i) {
    seed.AppendUnchecked(data.relation.xtuple(i));
  }
  StandingSession::Options options;
  options.workers = 2;
  options.batch_size = 5;
  auto session = StandingSession::Make(*plan, &seed, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (size_t i = seed_size; i < data.relation.size(); ++i) {
    ASSERT_TRUE((*session)->queue().Push(data.relation.xtuple(i)));
  }
  (*session)->queue().Close();
  auto live = (*session)->Drain();
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ExpectTallyEqualsRecount(*live, "standing Drain()");
  auto finish = (*session)->Finish();
  ASSERT_TRUE(finish.ok()) << finish.status().ToString();
  EXPECT_GT(finish->decisions.size(), live->decisions.size());
  ExpectTallyEqualsRecount(*finish, "Finish() with prior decisions");
}

TEST(RunTelemetryTest, HandAssembledResultsBridgeThroughTelemetryFromResult) {
  DetectionResult result;
  result.candidate_count = 2;
  result.total_pairs = 10;
  result.decisions.push_back({0, 1, 0.9, MatchClass::kMatch});
  result.decisions.push_back({2, 3, 0.2, MatchClass::kUnmatch});
  RunTelemetry t = TelemetryFromResult(result);
  EXPECT_EQ(t.metrics.counter(kMetricCandidatePairs), 2u);
  EXPECT_EQ(t.metrics.counter(kMetricMatches), 1u);
  EXPECT_EQ(t.metrics.counter(kMetricUnmatches), 1u);
  // No cache attached -> no cache counters.
  EXPECT_EQ(t.metrics.counters().count(kMetricCacheAttached), 0u);
  EXPECT_EQ(t.metrics.counters().count(kMetricCacheLookups), 0u);
  // No executor drained it, so there are no batch clocks to render.
  EXPECT_TRUE(t.root.children.empty());
  const std::string report = RenderExecutionStats(TelemetryFromResult(result));
  EXPECT_NE(report.find("## Batch timings\n\n(no executor timings)\n\n"),
            std::string::npos);
  EXPECT_EQ(report.find("| decide |"), std::string::npos);
}

// pddserve adds its live drain's timings to Finish()'s: span seconds
// and counts add by path, and the batch-decide histograms merge.
TEST(RunTelemetryTest, AddRunTimingsFoldsTheLiveDrainIntoFinish) {
  auto timed = [](double generate, double worker0, double commit,
                  std::vector<uint64_t> decide_micros) {
    RunTelemetry t;
    t.root.seconds = generate + worker0 + commit;
    t.root.AddChild("generate")->seconds = generate;
    TelemetrySpan* drain = t.root.AddChild("drain");
    drain->seconds = worker0;
    TelemetrySpan* worker = drain->AddChild("worker.0");
    worker->seconds = worker0;
    worker->counts["batches"] = decide_micros.size();
    t.root.AddChild("commit")->seconds = commit;
    LogHistogram* h = t.metrics.MutableHistogram(kMetricBatchDecideMicros);
    for (uint64_t micros : decide_micros) h->Record(micros);
    return t;
  };
  const RunTelemetry live = timed(0.25, 1.5, 0.125, {3, 900, 70});
  RunTelemetry finish = timed(0.5, 0.5, 0.25, {12});
  AddRunTimings(live, &finish);
  EXPECT_EQ(finish.root.seconds, 3.125);
  EXPECT_EQ(finish.root.Find("generate")->seconds, 0.75);
  EXPECT_EQ(finish.root.Find("drain")->seconds, 2.0);
  EXPECT_EQ(finish.root.Find("drain/worker.0")->seconds, 2.0);
  EXPECT_EQ(finish.root.Find("drain/worker.0")->counts.at("batches"), 4u);
  EXPECT_EQ(finish.root.Find("commit")->seconds, 0.375);
  ASSERT_EQ(finish.root.children.size(), 3u);
  LogHistogram merged;
  for (uint64_t micros : {3, 900, 70, 12}) merged.Record(micros);
  EXPECT_EQ(*finish.metrics.histogram(kMetricBatchDecideMicros), merged);

  // A span only the live drain has (its fourth worker) is appended.
  RunTelemetry pooled_live = timed(0.0, 0.0, 0.0, {});
  pooled_live.root.FindChild("drain")->children[0].name = "worker.3";
  AddRunTimings(pooled_live, &finish);
  EXPECT_NE(finish.root.Find("drain/worker.3"), nullptr);
  EXPECT_NE(finish.root.Find("drain/worker.0"), nullptr);
  EXPECT_NE(RenderExecutionStats(finish).find("| decide | 2 | 64% |"),
            std::string::npos);
}

// --- stats report rendering ---------------------------------------------

TEST(RenderExecutionStatsTest, StreamDiagnosticsRenderFromRegistry) {
  RunTelemetry t;
  t.metrics.SetCounter(kMetricCandidatePairs, 732);
  t.metrics.SetCounter(kMetricStreamBatches, 3);
  t.metrics.SetCounter(kMetricStreamHighWater, 260);
  // Without the reduction infos (pddserve) the line counts only.
  EXPECT_NE(RenderExecutionStats(t).find(
                "\n## Candidate stream\n\n- stream: 732 candidates in 3 "
                "batches, live high-water 260 candidates\n"),
            std::string::npos);
  t.metrics.SetInfo("exec.reduction", "snm_certain_keys");
  EXPECT_NE(RenderExecutionStats(t).find(
                "\n- stream: reduction snm_certain_keys, 732 candidates in 3 "
                "batches, live high-water 260 candidates\n"),
            std::string::npos);
  // No cache was attached, so there is no cache section.
  EXPECT_EQ(RenderExecutionStats(t).find("## Decision cache"),
            std::string::npos);
}

}  // namespace
}  // namespace pdd
