// The output of one detection run: one decision record per examined
// candidate pair, plus the counts verification metrics need. Produced by
// the StageExecutor and consumed by core reports, verification and
// result fusion.

#ifndef PDD_PIPELINE_DETECTION_RESULT_H_
#define PDD_PIPELINE_DETECTION_RESULT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "decision/classifier.h"
#include "verify/gold_standard.h"

namespace pdd {

struct RunTelemetry;

/// A shim the repository benchmark (perfbench/) reads, deleted by its
/// next change: every executor run writes its summed per-batch decide
/// seconds (the `drain` span) into match_seconds; the other fields
/// read 0.
struct StageTimings {
  double match_seconds = 0.0;
  double combine_seconds = 0.0;
  double derive_seconds = 0.0;
  double classify_seconds = 0.0;
  double cache_lookup_seconds = 0.0;

  StageTimings& operator+=(const StageTimings& other) {
    match_seconds += other.match_seconds;
    combine_seconds += other.combine_seconds;
    derive_seconds += other.derive_seconds;
    classify_seconds += other.classify_seconds;
    cache_lookup_seconds += other.cache_lookup_seconds;
    return *this;
  }
};

/// Decision-cache activity of one run (run-local, unlike the cache's
/// own lifetime DecisionCacheStats).
struct CacheRunStats {
  size_t lookups = 0;
  size_t hits = 0;
  size_t misses = 0;
  size_t inserts = 0;

  double HitRate() const {
    return lookups == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups);
  }
  CacheRunStats& operator+=(const CacheRunStats& other) {
    lookups += other.lookups;
    hits += other.hits;
    misses += other.misses;
    inserts += other.inserts;
    return *this;
  }
};

/// Candidate-stream accounting of one run (drain-loop
/// instrumentation). Rendered by ExecutionStatsReport and `pddcli
/// --stream-candidates`, never by the detection report itself, because
/// the pooled high-water depends on worker timing while reports must
/// stay byte-identical across worker counts.
struct StreamRunStats {
  /// Batches the executor pulled from the stream.
  size_t batches = 0;
  /// Peak candidate pairs simultaneously live: the stream's internal
  /// buffers plus all in-flight batches. A materialized stream peaks at
  /// its full candidate count — the O(candidates) buffer the streaming
  /// path deletes; native-streaming reductions peak at
  /// O(window/block + workers · batch).
  size_t live_candidate_high_water = 0;
};

/// Decision record for one examined candidate pair: the tuple indices
/// of the pair in the run's relation (ids resolve through
/// DetectionResult::id), the similarity and the class. Index-only and
/// trivially copyable, so drains move 24-byte PODs and renderers look
/// ids up only where they print or compare them.
struct PairDecisionRecord {
  uint32_t index1 = 0;
  uint32_t index2 = 0;
  /// The derived similarity sim(t1, t2).
  double similarity = 0.0;
  /// Final classification η(t1, t2).
  MatchClass match_class = MatchClass::kUnmatch;
};
static_assert(sizeof(PairDecisionRecord) <= 24,
              "decision records stay index-only");

/// Result of one detection run.
struct DetectionResult {
  /// One record per candidate pair, in candidate order.
  std::vector<PairDecisionRecord> decisions;
  /// Tuple ids of the run's relation in tuple-index order: record index
  /// i names (*ids)[i]. The result owns the table (copies share it)
  /// because the relation may be gone before the result is rendered —
  /// StandingSession::Finish decides over a relation it destroys on
  /// return. Every executor result carries one; a hand-assembled
  /// result may leave it null only when it has no decisions.
  std::shared_ptr<const std::vector<std::string>> ids;
  /// Candidate pairs examined (after reduction).
  size_t candidate_count = 0;
  /// All pairs of the scenario (n(n-1)/2 for a full run; only the
  /// addition-crossing pairs for an incremental run).
  size_t total_pairs = 0;
  /// Fingerprint of the plan that produced this result
  /// (DetectionPlan::fingerprint()). 0 means unknown — a result that
  /// was hand-assembled rather than produced by the executor; every
  /// executor entry path (Run/RunOnSources/RunIncremental/RunStream)
  /// stamps a real, non-zero fingerprint. Identifies which declarative
  /// plan the decisions belong to — the merge key for repeated and
  /// incremental runs.
  uint64_t plan_fingerprint = 0;
  /// The benchmark's shim (see StageTimings): the run's decide seconds.
  StageTimings stage_timings;
  /// Decision-cache activity of this run; nullopt when the run had no
  /// cache attached.
  std::optional<CacheRunStats> cache_stats;
  /// Candidate-stream drain accounting (always collected; the counters
  /// are two integers per batch).
  StreamRunStats stream_stats;
  /// Unified telemetry of the run: the metrics registry plus the span
  /// tree (see obs/run_telemetry.h). Every executor result carries one,
  /// built once from the stat fields above; null for hand-assembled
  /// results, which ExecutionStatsReport bridges through
  /// TelemetryFromResult.
  std::shared_ptr<RunTelemetry> telemetry;

  /// Id of tuple `index` of the run's relation (requires `ids`).
  const std::string& id(uint32_t index) const { return (*ids)[index]; }

  /// 64-bit digest of this result's decision content: the plan
  /// fingerprint, the pair counts, the id table once and then every
  /// record's fixed-width fields (indices, similarity bit pattern,
  /// class) in candidate order. Two runs with byte-identical reports
  /// share it; any divergence — different plan, different input,
  /// different decisions — changes it. The decision-index builder
  /// stamps it into the index header so staleness against a later run
  /// is detected structurally (see index/format.h); excludes telemetry
  /// and the stage/cache/stream stats, which legitimately vary across
  /// execution shapes.
  uint64_t ContentDigest() const;

  /// Pointers into `decisions` for the records classified `match_class`,
  /// in candidate order. Invalidated when `decisions` mutates.
  std::vector<const PairDecisionRecord*> RecordsOfClass(
      MatchClass match_class) const;

  /// Id pairs of the records classified `match_class`, in candidate
  /// order (ids resolved through the id table).
  std::vector<IdPair> IdPairsOfClass(MatchClass match_class) const;

  /// Id pairs classified m / p / u.
  std::vector<IdPair> Matches() const;
  std::vector<IdPair> PossibleMatches() const;
  std::vector<IdPair> Unmatches() const;
};

}  // namespace pdd

#endif  // PDD_PIPELINE_DETECTION_RESULT_H_
