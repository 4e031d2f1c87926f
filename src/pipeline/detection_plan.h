// DetectionPlan: the compiled, immutable form of one DetectorConfig
// against one schema. Compilation resolves comparators, the key spec,
// the combination function φ, the derivation function ϑ and the final
// classifier once; every run then shares the plan. All methods are
// const and safe to call from multiple threads concurrently, which is
// what lets the StageExecutor fan candidate batches out to a pool.
//
// The plan also names the stage graph the executor walks per candidate
// (Fig. 6): attribute value matching (Section IV-A) → combination φ →
// derivation ϑ (Section IV-B) → final classification (Fig. 2). Each
// stage is independently executable through the Run*Stage entry points
// (explanations and diagnostics use them piecemeal).

#ifndef PDD_PIPELINE_DETECTION_PLAN_H_
#define PDD_PIPELINE_DETECTION_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "derive/xtuple_decision_model.h"
#include "keys/key_spec.h"
#include "match/tuple_matcher.h"
#include "pdb/xrelation.h"
#include "plan/plan_spec.h"
#include "reduction/pair_generator.h"
#include "sim/columnar_kernels.h"
#include "util/status.h"

namespace pdd {

/// The per-candidate pipeline stages, in execution order.
enum class PipelineStage {
  kMatch = 0,     // comparison matrix of the alternative pairs (§IV-A)
  kCombine = 1,   // φ on every comparison vector + conditioned probs
  kDerive = 2,    // derivation function ϑ (§IV-B)
  kClassify = 3,  // final threshold classification (Fig. 2)
};

/// Stable stage name for reports ("match", "combine", ...).
const char* PipelineStageName(PipelineStage stage);

/// True for spec keys that cannot change what DecidePair returns for a
/// given pair content (key/reduction/prepare/prune choose WHICH pairs
/// are examined; executor tuning is pure throughput).
/// These keys are excluded from decision_fingerprint(), so the
/// decision cache carries across them. Exposed for diagnostics
/// (`pddcli lint-plan`) and the spec-closure lint.
bool IsDecisionIrrelevantSpecKey(const std::string& key);

class DetectionPlan {
 public:
  /// Primary path: compiles a declarative plan spec against the schema.
  /// Component names resolve through the ComponentRegistry; the
  /// resulting plan's fingerprint identifies the spec.
  static Result<std::shared_ptr<const DetectionPlan>> Compile(
      const PlanSpec& spec, Schema schema);

  /// Compiles the C++-native configuration form. Equivalent to the spec
  /// path (components resolve through the same registry); the plan's
  /// spec()/fingerprint() are derived via DetectorConfig::ToSpec.
  static Result<std::shared_ptr<const DetectionPlan>> Compile(
      DetectorConfig config, Schema schema);

  const DetectorConfig& config() const { return config_; }

  /// The canonical declarative form of this plan (what --print-plan
  /// emits) and its stable 64-bit identity. Two plans with the same
  /// fingerprint decide pairs identically (modulo custom comparator /
  /// preparation instances, which fingerprint as opaque "custom"
  /// markers).
  const PlanSpec& spec() const { return spec_; }
  uint64_t fingerprint() const { return fingerprint_; }

  /// Fingerprint of only the decide-stage components (φ, ϑ,
  /// comparators, classification thresholds) — the plan half of the
  /// decision-cache key. Plans that differ solely in reduction, key,
  /// preparation, pruning or executor tuning share it: those knobs
  /// never change what DecidePair returns for a given pair content
  /// (preparation changes the content itself, which the pair digest
  /// captures), so sweep points can reuse each other's cached
  /// decisions. 0 when the plan is cache-ineligible (custom comparator
  /// instances have no stable identity to fingerprint).
  uint64_t decision_fingerprint() const { return decision_fingerprint_; }
  const Schema& schema() const { return schema_; }
  const KeySpec& key_spec() const { return key_spec_; }
  const TupleMatcher& matcher() const { return *matcher_; }
  const CombinationFunction& combination() const { return *combination_; }
  const DerivationFunction& derivation() const { return *derivation_; }
  const XTupleDecisionModel& model() const { return *model_; }

  /// The stage graph in execution order.
  const std::vector<PipelineStage>& stages() const { return stages_; }

  /// The resolved comparator of every schema attribute (registry
  /// comparators or custom instances), in attribute order.
  const std::vector<const Comparator*>& comparators() const {
    return matcher_->comparators();
  }

  /// One entry per schema attribute: the columnar kernel of the
  /// attribute's comparator, or nullptr where it has none (monge_elkan,
  /// soundex, custom instances). ColumnarMatcher runs the comparator
  /// itself for those attributes.
  const std::vector<ColumnarKernelFn>& columnar_kernels() const {
    return columnar_kernels_;
  }

  /// Builds the configured pair generator (stateless w.r.t. relations),
  /// wrapped in the pruning filter when configured.
  std::unique_ptr<PairGenerator> MakePairGenerator() const;

  // --- independently executable stage entry points ------------------

  /// Stage kMatch: the k×l comparison matrix of an x-tuple pair.
  ComparisonMatrix RunMatchStage(const XTuple& t1, const XTuple& t2) const;

  /// Stage kCombine: φ over a comparison matrix plus the conditioned
  /// alternative probabilities of the pair.
  AlternativePairScores RunCombineStage(const XTuple& t1, const XTuple& t2,
                                        const ComparisonMatrix& matrix) const;

  /// Stage kDerive: sim(t1, t2) from the alternative pair scores.
  double RunDeriveStage(const AlternativePairScores& scores) const;

  /// Stage kClassify: η(t1, t2) from the derived similarity.
  MatchClass RunClassifyStage(double similarity) const;

  /// All four stages on one candidate pair, over the x-tuple object
  /// graph. The executor decides through ColumnarMatcher instead; this
  /// is the reference that tests and bench_fig03 compare it against.
  XPairDecision DecidePair(const XTuple& t1, const XTuple& t2) const;

 private:
  DetectionPlan() = default;

  /// The bare reduction method without the pruning wrapper.
  std::unique_ptr<PairGenerator> MakeReductionGenerator() const;

  DetectorConfig config_;
  PlanSpec spec_;
  uint64_t fingerprint_ = 0;
  uint64_t decision_fingerprint_ = 0;
  Schema schema_;
  KeySpec key_spec_;
  std::vector<PipelineStage> stages_;
  std::vector<ColumnarKernelFn> columnar_kernels_;
  std::unique_ptr<TupleMatcher> matcher_;
  std::unique_ptr<CombinationFunction> combination_;
  std::unique_ptr<DerivationFunction> derivation_;
  std::unique_ptr<XTupleDecisionModel> model_;
};

}  // namespace pdd

#endif  // PDD_PIPELINE_DETECTION_PLAN_H_
