// RunTelemetry: the unified telemetry of one detection run — a
// MetricsRegistry (the queryable metric surface) plus a tree of stage/
// span records (generate → drain → match/derive/classify/cache, with
// per-worker child spans). Telemetry flows one way: the StageExecutor
// sums each stat into DetectionResult's fields (StageTimings,
// CacheRunStats, StreamRunStats) once, TelemetryFromResult builds the
// registry from those fields once, and the executor attaches the
// result to DetectionResult::telemetry. Every consumer —
// ExecutionStatsReport, `pddcli --metrics`, the stderr diagnostics,
// the bench sidecars — renders from the registry and never writes
// back into the fields.
//
// Span seconds and every `time.*` metric are wall-clock-derived and
// therefore nondeterministic; span COUNT fields on worker spans vary
// with thread timing too. Identity gating (obs_test, the CI metrics
// smoke) covers only the registry's identity namespace — see
// metrics_registry.h for the namespace table and export.h for the
// exporters.

#ifndef PDD_OBS_RUN_TELEMETRY_H_
#define PDD_OBS_RUN_TELEMETRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics_registry.h"

namespace pdd {

struct DetectionResult;
struct DecisionCacheStats;

// Registry metric names (the stable schema surface; see README
// "Observability" for the full table).
//
// Identity namespace — bit-identical across serial/pooled/cached runs
// of one plan + input:
inline constexpr char kMetricCandidatePairs[] = "pairs.candidates";
inline constexpr char kMetricTotalPairs[] = "pairs.total";
inline constexpr char kMetricDecisions[] = "decisions.total";
inline constexpr char kMetricMatches[] = "decisions.match";
inline constexpr char kMetricPossibles[] = "decisions.possible";
inline constexpr char kMetricUnmatches[] = "decisions.unmatch";
/// Histogram of derived similarities in integer micro-units
/// (round(sim * 1e6)): a deterministic distribution of a
/// deterministic value.
inline constexpr char kMetricSimilarityMicros[] =
    "decisions.similarity_micros";
inline constexpr char kInfoPlanFingerprint[] = "plan.fingerprint";
// Execution-shape namespace — excluded from identity gating:
inline constexpr char kMetricStreamBatches[] = "exec.stream.batches";
inline constexpr char kMetricStreamHighWater[] =
    "exec.stream.live_high_water";
inline constexpr char kMetricCacheAttached[] = "exec.cache.attached";
inline constexpr char kMetricCacheLookups[] = "exec.cache.lookups";
inline constexpr char kMetricCacheHits[] = "exec.cache.hits";
inline constexpr char kMetricCacheMisses[] = "exec.cache.misses";
inline constexpr char kMetricCacheInserts[] = "exec.cache.inserts";
/// "collected" or "disabled" — whether the run accumulated wall times.
inline constexpr char kInfoTimings[] = "exec.timings";
// Standing-ingest family (recorded by StandingSession / pddserve; see
// README "Standing ingest"). Queue shape and drop accounting are
// execution-shape metrics; the namespace contract keeps the invariant
//   arrivals == admitted + duplicate_ids + invalid + rejected_capacity
//               + dropped + queue_depth
// machine-checkable (tools/telemetry_check.py):
inline constexpr char kMetricIngestArrivals[] = "exec.ingest.arrivals";
/// Tuples admitted into the standing relation (past dedup/validation).
inline constexpr char kMetricIngestAdmitted[] = "exec.ingest.admitted";
/// Rejected at the full (or closed) queue — the backpressure drops.
inline constexpr char kMetricIngestDropped[] = "exec.ingest.dropped";
inline constexpr char kMetricIngestDuplicateIds[] =
    "exec.ingest.duplicate_ids";
inline constexpr char kMetricIngestInvalid[] = "exec.ingest.invalid";
inline constexpr char kMetricIngestRejectedCapacity[] =
    "exec.ingest.rejected_capacity";
inline constexpr char kMetricIngestQueueCapacity[] =
    "exec.ingest.queue_capacity";
inline constexpr char kGaugeIngestQueueDepth[] = "exec.ingest.queue_depth";
inline constexpr char kGaugeIngestQueueHighWater[] =
    "exec.ingest.queue_high_water";
/// Maintenance cadence counters (pddserve).
inline constexpr char kMetricIngestCacheSnapshots[] =
    "exec.ingest.cache_snapshots";
inline constexpr char kMetricIngestIndexBuilds[] =
    "exec.ingest.index_builds";
// Timing namespace — nondeterministic by nature:
/// ColumnarMatcher fuses the combination into the match stage, so
/// there is no combine gauge or span.
inline constexpr char kGaugeMatchSeconds[] = "time.stage.match_seconds";
inline constexpr char kGaugeDeriveSeconds[] = "time.stage.derive_seconds";
inline constexpr char kGaugeClassifySeconds[] =
    "time.stage.classify_seconds";
inline constexpr char kGaugeCacheLookupSeconds[] =
    "time.stage.cache_lookup_seconds";
inline constexpr char kGaugeCacheInsertSeconds[] =
    "time.stage.cache_insert_seconds";
/// Per-batch decide latency histogram (microseconds), recorded only
/// when stage timings are on.
inline constexpr char kMetricBatchDecideMicros[] =
    "time.batch_decide_micros";
/// Admission-to-decision latency histogram (microseconds): for each
/// admitted tuple, producer push → last crossing pair committed
/// (recorded by pddserve's decision sink).
inline constexpr char kMetricIngestAdmitToDecideMicros[] =
    "time.ingest.admit_to_decide_micros";

/// One node of the span tree. `seconds` is 0 when the run had timing
/// collection off; `counts` carries span-local counters (batches,
/// candidates, live_high_water).
struct TelemetrySpan {
  std::string name;
  double seconds = 0.0;
  std::map<std::string, uint64_t> counts;
  std::vector<TelemetrySpan> children;

  TelemetrySpan() = default;
  explicit TelemetrySpan(std::string span_name) : name(std::move(span_name)) {}

  /// Appends a child and returns it (valid until the next append).
  TelemetrySpan* AddChild(std::string child_name);

  /// First child with `child_name`, nullptr when absent.
  const TelemetrySpan* FindChild(std::string_view child_name) const;
  TelemetrySpan* FindChild(std::string_view child_name);

  /// Descendant lookup by '/'-separated path ("drain/worker.0").
  const TelemetrySpan* Find(std::string_view path) const;
};

struct RunTelemetry {
  /// Version tag of the exported schema (JSON sidecars, bench
  /// sidecars). Bump when a metric name or the export layout changes
  /// incompatibly.
  static constexpr std::string_view kSchemaVersion = "pdd.telemetry.v1";

  MetricsRegistry metrics;
  TelemetrySpan root{"run"};
};

/// Builds the registry + drain span from a DetectionResult's stat
/// fields. The executor calls it once per run and adds the generate
/// and worker spans; ExecutionStatsReport calls it for hand-assembled
/// results, which carry no telemetry.
RunTelemetry TelemetryFromResult(const DetectionResult& result);

/// Folds a cache's lifetime counters (DecisionCache::Stats()) into the
/// registry under exec.cache.lifetime.*.
void AddCacheLifetimeStats(const DecisionCacheStats& stats,
                           MetricsRegistry* metrics);

}  // namespace pdd

#endif  // PDD_OBS_RUN_TELEMETRY_H_
