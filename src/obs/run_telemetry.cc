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

/// Adds `from`'s seconds and counts into `into`, child by child name.
void AddSpan(const TelemetrySpan& from, TelemetrySpan* into) {
  into->seconds += from.seconds;
  for (const auto& [name, count] : from.counts) into->counts[name] += count;
  for (const TelemetrySpan& child : from.children) {
    TelemetrySpan* same = into->FindChild(child.name);
    if (same == nullptr) same = into->AddChild(child.name);
    AddSpan(child, same);
  }
}

}  // namespace

void DecisionTally::Add(const std::vector<PairDecisionRecord>& records) {
  for (const PairDecisionRecord& rec : records) {
    switch (rec.match_class) {
      case MatchClass::kMatch:
        ++matches;
        break;
      case MatchClass::kPossible:
        ++possibles;
        break;
      case MatchClass::kUnmatch:
        ++unmatches;
        break;
    }
    similarity_micros.Record(SimilarityMicros(rec.similarity));
  }
}

void DecisionTally::Merge(const DecisionTally& other) {
  matches += other.matches;
  possibles += other.possibles;
  unmatches += other.unmatches;
  similarity_micros.Merge(other.similarity_micros);
}

RunTelemetry TelemetryFromResult(const DetectionResult& result) {
  DecisionTally tally;
  tally.Add(result.decisions);
  return TelemetryFromResult(result, tally);
}

RunTelemetry TelemetryFromResult(const DetectionResult& result,
                                 const DecisionTally& tally) {
  RunTelemetry telemetry;
  MetricsRegistry& m = telemetry.metrics;

  // Identity metrics: pure functions of the (deterministic) decisions.
  m.SetCounter(kMetricCandidatePairs, result.candidate_count);
  m.SetCounter(kMetricTotalPairs, result.total_pairs);
  m.SetCounter(kMetricDecisions, result.decisions.size());
  m.SetCounter(kMetricMatches, tally.matches);
  m.SetCounter(kMetricPossibles, tally.possibles);
  m.SetCounter(kMetricUnmatches, tally.unmatches);
  *m.MutableHistogram(kMetricSimilarityMicros) = tally.similarity_micros;
  if (result.plan_fingerprint != 0) {
    m.SetInfo(kInfoPlanFingerprint, FingerprintHex(result.plan_fingerprint));
  }

  // Execution-shape metrics.
  m.SetCounter(kMetricStreamBatches, result.stream_stats.batches);
  m.SetCounter(kMetricStreamHighWater,
               result.stream_stats.live_candidate_high_water);
  if (result.cache_stats.has_value()) {
    SetCacheRunStats(*result.cache_stats, &m);
  }
  return telemetry;
}

void AddRunTimings(const RunTelemetry& from, RunTelemetry* into) {
  AddSpan(from.root, &into->root);
  if (const LogHistogram* decide =
          from.metrics.histogram(kMetricBatchDecideMicros);
      decide != nullptr) {
    into->metrics.MutableHistogram(kMetricBatchDecideMicros)->Merge(*decide);
  }
}

void SetCacheRunStats(const CacheRunStats& stats, MetricsRegistry* metrics) {
  metrics->SetCounter(kMetricCacheAttached, 1);
  metrics->SetCounter(kMetricCacheLookups, stats.lookups);
  metrics->SetCounter(kMetricCacheHits, stats.hits);
  metrics->SetCounter(kMetricCacheMisses, stats.misses);
  metrics->SetCounter(kMetricCacheInserts, stats.inserts);
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
