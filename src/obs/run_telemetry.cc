#include "obs/run_telemetry.h"

#include <cmath>

#include "cache/decision_cache.h"
#include "pipeline/detection_result.h"
#include "plan/plan_spec.h"

namespace pdd {

TelemetrySpan* TelemetrySpan::AddChild(std::string child_name) {
  children.emplace_back(std::move(child_name));
  return &children.back();
}

const TelemetrySpan* TelemetrySpan::FindChild(
    std::string_view child_name) const {
  for (const TelemetrySpan& child : children) {
    if (child.name == child_name) return &child;
  }
  return nullptr;
}

TelemetrySpan* TelemetrySpan::FindChild(std::string_view child_name) {
  for (TelemetrySpan& child : children) {
    if (child.name == child_name) return &child;
  }
  return nullptr;
}

const TelemetrySpan* TelemetrySpan::Find(std::string_view path) const {
  const TelemetrySpan* at = this;
  while (!path.empty() && at != nullptr) {
    size_t sep = path.find('/');
    std::string_view head =
        sep == std::string_view::npos ? path : path.substr(0, sep);
    path = sep == std::string_view::npos ? std::string_view()
                                         : path.substr(sep + 1);
    at = at->FindChild(head);
  }
  return at;
}

namespace {

/// Similarity in deterministic integer micro-units. Similarities are
/// bit-identical across run shapes, so the rounded micro value is too.
uint64_t SimilarityMicros(double similarity) {
  if (!(similarity > 0.0)) return 0;
  return static_cast<uint64_t>(std::llround(similarity * 1e6));
}

}  // namespace

RunTelemetry TelemetryFromResult(const DetectionResult& result) {
  RunTelemetry telemetry;
  MetricsRegistry& m = telemetry.metrics;

  // Identity metrics: pure functions of the (deterministic) decisions.
  m.SetCounter(kMetricCandidatePairs, result.candidate_count);
  m.SetCounter(kMetricTotalPairs, result.total_pairs);
  m.SetCounter(kMetricDecisions, result.decisions.size());
  const DetectionResult::ClassCounts counts = result.CountClasses();
  m.SetCounter(kMetricMatches, counts.matches);
  m.SetCounter(kMetricPossibles, counts.possibles);
  m.SetCounter(kMetricUnmatches, counts.unmatches);
  LogHistogram* similarity = m.MutableHistogram(kMetricSimilarityMicros);
  for (const PairDecisionRecord& rec : result.decisions) {
    similarity->Record(SimilarityMicros(rec.similarity));
  }
  if (result.plan_fingerprint != 0) {
    m.SetInfo(kInfoPlanFingerprint, FingerprintHex(result.plan_fingerprint));
  }

  // Execution-shape metrics.
  m.SetCounter(kMetricStreamBatches, result.stream_stats.batches);
  m.SetCounter(kMetricStreamHighWater,
               result.stream_stats.live_candidate_high_water);
  if (result.cache_stats.has_value()) {
    m.SetCounter(kMetricCacheAttached, 1);
    m.SetCounter(kMetricCacheLookups, result.cache_stats->lookups);
    m.SetCounter(kMetricCacheHits, result.cache_stats->hits);
    m.SetCounter(kMetricCacheMisses, result.cache_stats->misses);
    m.SetCounter(kMetricCacheInserts, result.cache_stats->inserts);
  }
  m.SetInfo(kInfoTimings,
            result.stage_timings_collected ? "collected" : "disabled");

  // Timing metrics + stage spans, only for runs that collected them.
  TelemetrySpan* drain = telemetry.root.AddChild("drain");
  if (result.stage_timings_collected) {
    const StageTimings& t = result.stage_timings;
    m.SetGauge(kGaugeMatchSeconds, t.match_seconds);
    m.SetGauge(kGaugeDeriveSeconds, t.derive_seconds);
    m.SetGauge(kGaugeClassifySeconds, t.classify_seconds);
    m.SetGauge(kGaugeCacheLookupSeconds, t.cache_lookup_seconds);
    m.SetGauge(kGaugeCacheInsertSeconds, t.cache_insert_seconds);
    drain->AddChild("stage.match")->seconds = t.match_seconds;
    drain->AddChild("stage.derive")->seconds = t.derive_seconds;
    drain->AddChild("stage.classify")->seconds = t.classify_seconds;
    drain->AddChild("stage.cache_lookup")->seconds = t.cache_lookup_seconds;
    drain->AddChild("stage.cache_insert")->seconds = t.cache_insert_seconds;
  }
  return telemetry;
}

void AddCacheLifetimeStats(const DecisionCacheStats& stats,
                           MetricsRegistry* metrics) {
  metrics->SetCounter("exec.cache.lifetime.hits", stats.hits);
  metrics->SetCounter("exec.cache.lifetime.misses", stats.misses);
  metrics->SetCounter("exec.cache.lifetime.inserts", stats.inserts);
  metrics->SetCounter("exec.cache.lifetime.evictions", stats.evictions);
  metrics->SetCounter("exec.cache.lifetime.size", stats.size);
}

}  // namespace pdd
