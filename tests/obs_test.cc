// Tests for the run-telemetry subsystem (src/obs/): log-histogram
// bucket math and merge associativity, registry determinism across
// worker/batch/cache run shapes, JSON and Prometheus export goldens,
// the atomic sidecar writer, span nesting, the registry's agreement
// with the result's stat fields, and the "(disabled)" stage-timing
// rendering.

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
#include "core/report_writer.h"
#include "datagen/person_generator.h"
#include "obs/export.h"
#include "obs/log_histogram.h"
#include "obs/metrics_registry.h"
#include "obs/run_telemetry.h"
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
  EXPECT_FALSE(IsIdentityMetricName("time.stage.match_seconds"));
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
  t.metrics.SetGauge("time.stage.match_seconds", 0.5);
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
    "time.stage.match_seconds": 0.5
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
  EXPECT_NE(prom.find("# TYPE pdd_time_stage_match_seconds gauge\n"
                      "pdd_time_stage_match_seconds 0.5\n"),
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
  detector->set_collect_stage_timings(true);
  auto result = detector->Run(data.relation);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->telemetry, nullptr);
  const RunTelemetry& t = *result->telemetry;

  // The registry holds the stat fields the executor summed.
  EXPECT_EQ(t.metrics.gauge(kGaugeMatchSeconds),
            result->stage_timings.match_seconds);
  EXPECT_EQ(t.metrics.gauge(kGaugeCacheLookupSeconds),
            result->stage_timings.cache_lookup_seconds);
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
  // The matcher fuses the combination into match: no combine stage.
  EXPECT_EQ(t.metrics.gauges().count("time.stage.combine_seconds"), 0u);
  EXPECT_EQ(t.root.Find("drain/stage.combine"), nullptr);
  EXPECT_NE(t.root.Find("drain/stage.match"), nullptr);

  // And the registry agrees with the result's own counts.
  EXPECT_EQ(t.metrics.counter(kMetricCandidatePairs),
            result->candidate_count);
  EXPECT_EQ(t.metrics.counter(kMetricDecisions), result->decisions.size());
  const LogHistogram* sim =
      t.metrics.histogram(kMetricSimilarityMicros);
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->count(), result->decisions.size());
  // Span tree: generate before drain, worker children present.
  ASSERT_GE(t.root.children.size(), 2u);
  EXPECT_EQ(t.root.children[0].name, "generate");
  EXPECT_EQ(t.root.children[1].name, "drain");
  EXPECT_NE(t.root.Find("drain/worker.0"), nullptr);
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
  EXPECT_EQ(t.metrics.info(kInfoTimings), "disabled");
  // No cache attached -> no cache counters.
  EXPECT_EQ(t.metrics.counters().count(kMetricCacheAttached), 0u);
  EXPECT_EQ(t.metrics.counters().count(kMetricCacheLookups), 0u);
}

// --- stats report rendering ---------------------------------------------

TEST(ExecutionStatsReportTest, DisabledTimingsRenderDisabledNotZeroRows) {
  GeneratedData data = UncertainPersons(20);
  DetectorConfig config = PersonConfig();
  auto detector = DuplicateDetector::Make(config, PersonSchema());
  ASSERT_TRUE(detector.ok());
  auto untimed = detector->Run(data.relation);
  ASSERT_TRUE(untimed.ok());
  std::string report = ExecutionStatsReport(*untimed);
  // The regression this guards: an untimed run must say so instead of
  // rendering a table of misleading 0-second stage rows.
  EXPECT_NE(report.find("## Stage timings\n\n(disabled)\n"),
            std::string::npos);
  EXPECT_EQ(report.find("| total |"), std::string::npos);

  detector->set_collect_stage_timings(true);
  auto timed = detector->Run(data.relation);
  ASSERT_TRUE(timed.ok());
  const std::string timed_report = ExecutionStatsReport(*timed);
  EXPECT_EQ(timed_report.find("(disabled)"), std::string::npos);
  // The matcher fuses the combination into match: no combine row.
  EXPECT_EQ(timed_report.find("| combine |"), std::string::npos);
}

TEST(ExecutionStatsReportTest, StreamDiagnosticsRenderFromRegistry) {
  RunTelemetry t;
  t.metrics.SetCounter(kMetricCandidatePairs, 732);
  t.metrics.SetCounter(kMetricStreamBatches, 3);
  t.metrics.SetCounter(kMetricStreamHighWater, 260);
  t.metrics.SetInfo("exec.reduction", "snm_certain_keys");
  t.metrics.SetInfo("exec.streaming", "native");
  EXPECT_EQ(RenderStreamDiagnostics(t),
            "candidate stream: reduction snm_certain_keys "
            "(native streaming), 732 candidates in 3 batches, "
            "live high-water 260 candidates\n");
}

}  // namespace
}  // namespace pdd
