// RunTelemetry: the unified telemetry of one detection run — a
// MetricsRegistry (the queryable metric surface) plus a tree of span
// records. Every executor run clocks each batch, never a pair: the
// pull (NextBatch), the decide (DecideBatch and the tally) and the
// commit (the decision sink and the in-order merge), into the spans
// generate, drain (with one worker.N child per drain thread) and
// commit, and the decide latency into time.batch_decide_micros.
// Telemetry flows one way: the StageExecutor sums each stat into
// DetectionResult's fields (CacheRunStats, StreamRunStats) once and
// its workers tally the identity metrics of the records they decide
// (DecisionTally); TelemetryFromResult builds the registry from those
// once, and the executor adds the spans and attaches the result to
// DetectionResult::telemetry. Every
// consumer — `--stats` (RenderExecutionStats), `--metrics`, the bench
// sidecars — renders from the registry and never writes back into the
// fields.
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

struct CacheRunStats;
struct DetectionResult;
struct DecisionCacheStats;
struct PairDecisionRecord;

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
/// Per-batch decide latency histogram (microseconds): one sample per
/// batch of every executor run, so its count is exec.stream.batches.
inline constexpr char kMetricBatchDecideMicros[] =
    "time.batch_decide_micros";
/// Admission-to-decision latency histogram (microseconds): for each
/// admitted tuple, producer push → last crossing pair committed
/// (recorded by pddserve's decision sink).
inline constexpr char kMetricIngestAdmitToDecideMicros[] =
    "time.ingest.admit_to_decide_micros";

/// One node of the span tree. `seconds` sums the per-batch clocks of
/// every drain thread, so with a pool it is CPU-time-like; `counts`
/// carries span-local counters (batches, candidates).
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

/// The identity metrics a run's records determine: decisions per class
/// and the similarity_micros histogram. Executor workers tally each
/// batch they decide; counts add and histogram buckets merge
/// order-insensitively, so the merged tally of any run shape equals one
/// pass over the records.
struct DecisionTally {
  uint64_t matches = 0;
  uint64_t possibles = 0;
  uint64_t unmatches = 0;
  /// round(similarity · 1e6) of every record.
  LogHistogram similarity_micros;

  void Add(const std::vector<PairDecisionRecord>& records);
  void Merge(const DecisionTally& other);
};

/// Builds the registry from a DetectionResult's stat fields and
/// `tally`, the tally of its records. The executor calls it once per
/// run with its workers' merged tally and adds the spans and the
/// batch-decide histogram.
RunTelemetry TelemetryFromResult(const DetectionResult& result,
                                 const DecisionTally& tally);

/// The same for a hand-assembled result, which carries no telemetry:
/// tallies result.decisions first (the recount the executor's tally is
/// tested against).
RunTelemetry TelemetryFromResult(const DetectionResult& result);

/// Sets the exec.cache.* run counters (and exec.cache.attached) from
/// `stats`.
void SetCacheRunStats(const CacheRunStats& stats, MetricsRegistry* metrics);

/// Folds the timings of `from` into `into`: span seconds and counts add
/// by path (a span only `from` has is appended) and the
/// time.batch_decide_micros histograms merge. pddserve adds its live
/// drain's timings to Finish()'s this way.
void AddRunTimings(const RunTelemetry& from, RunTelemetry* into);

/// Folds a cache's lifetime counters (ShardedDecisionCache::Stats()) into the
/// registry under exec.cache.lifetime.*.
void AddCacheLifetimeStats(const DecisionCacheStats& stats,
                           MetricsRegistry* metrics);

}  // namespace pdd

#endif  // PDD_OBS_RUN_TELEMETRY_H_
