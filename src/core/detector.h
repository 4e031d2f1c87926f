// DuplicateDetector: the end-to-end public API. Make() compiles the
// configuration into a DetectionPlan (search space reduction Section V,
// attribute value matching Section IV-A, the combination function, the
// x-tuple derivation Section IV-B and the final classification Fig. 2);
// the Run* entry points are thin adapters that build the scenario's
// CandidateStream and hand it to the shared StageExecutor. Verification
// against a gold standard (Section III-E) rides on the result.

#ifndef PDD_CORE_DETECTOR_H_
#define PDD_CORE_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "cache/decision_cache.h"
#include "core/config.h"
#include "pdb/xrelation.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"
#include "pipeline/detection_result.h"
#include "pipeline/stage_executor.h"
#include "verify/gold_standard.h"
#include "verify/metrics.h"

namespace pdd {

/// Effectiveness of a detection result against a gold standard. Pairs
/// pruned by reduction count as declared non-matches; possible matches
/// count as non-matches unless `count_possible_as_match`.
EffectivenessMetrics Evaluate(const DetectionResult& result,
                              const GoldStandard& gold,
                              bool count_possible_as_match = false);

/// Reduction quality of a detection run (reduction ratio, pairs
/// completeness, pairs quality) against a gold standard.
ReductionMetrics EvaluateReduction(const DetectionResult& result,
                                   const GoldStandard& gold);

/// The configurable end-to-end detector. Construct once per schema with
/// Make(), then run on any x-relation with that schema. Copies share
/// the compiled plan; all Run* methods are const and thread-safe.
class DuplicateDetector {
 public:
  /// Compiles the configuration against the schema into a shared
  /// DetectionPlan (resolved comparators, key spec, combination and
  /// derivation functions).
  static Result<DuplicateDetector> Make(DetectorConfig config, Schema schema);

  /// Declarative form: compiles a PlanSpec (names resolved through the
  /// ComponentRegistry) against the schema.
  static Result<DuplicateDetector> Make(const PlanSpec& spec, Schema schema);

  /// Runs the pipeline on one x-relation.
  Result<DetectionResult> Run(const XRelation& rel) const;

  /// Integration form: unions two sources (Section I's scenario), then
  /// runs on the union. Tuple ids must be unique across sources.
  Result<DetectionResult> RunOnSources(const XRelation& a,
                                       const XRelation& b) const;

  /// Incremental form: `existing` was already deduplicated; only pairs
  /// involving a tuple of `additions` are examined (intra-existing pairs
  /// are skipped). total_pairs counts only the incremental pairs, so
  /// verification metrics refer to the increment.
  Result<DetectionResult> RunIncremental(const XRelation& existing,
                                         const XRelation& additions) const;

  /// Runs the shared executor on an externally built stream (the seam
  /// custom scenarios — replay, filtered re-runs — plug into).
  Result<DetectionResult> RunStream(CandidateStream& stream) const;

  /// Derived similarity of a single x-tuple pair under this
  /// configuration (bypasses reduction).
  double PairSimilarity(const XTuple& t1, const XTuple& t2) const;

  const DetectorConfig& config() const { return plan_->config(); }
  const Schema& schema() const { return plan_->schema(); }

  /// The compiled plan (shared, immutable).
  const DetectionPlan& plan() const { return *plan_; }
  std::shared_ptr<const DetectionPlan> shared_plan() const { return plan_; }

  /// Attaches a shared decision cache: every subsequent Run* consults
  /// it before the stage graph and inserts on miss. The cache may be
  /// shared across detectors (sweeps reuse decisions wherever the
  /// decide-stage components agree — see
  /// DetectionPlan::decision_fingerprint()), across threads, and —
  /// via ShardedDecisionCache snapshots — across processes. Pass
  /// nullptr to detach. Copies of the detector share the handle made
  /// at copy time.
  void set_cache(std::shared_ptr<ShardedDecisionCache> cache) {
    cache_ = std::move(cache);
  }
  const std::shared_ptr<ShardedDecisionCache>& cache() const { return cache_; }

  /// A no-op, deleted by the next benchmark change (the repository
  /// benchmark still calls it): every run clocks its batches.
  void set_collect_stage_timings(bool /*collect*/) {}

  /// Resolved pipeline components (for explanations and diagnostics).
  const TupleMatcher& matcher() const { return plan_->matcher(); }
  const CombinationFunction& combination() const {
    return plan_->combination();
  }
  const DerivationFunction& derivation_function() const {
    return plan_->derivation();
  }

 private:
  explicit DuplicateDetector(std::shared_ptr<const DetectionPlan> plan)
      : plan_(std::move(plan)) {}

  /// The executor configured by this detector's config.
  StageExecutor MakeExecutor() const;

  std::shared_ptr<const DetectionPlan> plan_;
  std::shared_ptr<ShardedDecisionCache> cache_;
};

}  // namespace pdd

#endif  // PDD_CORE_DETECTOR_H_
