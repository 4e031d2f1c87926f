#include "pipeline/detection_plan.h"

#include "plan/registry.h"
#include "reduction/full_pairs.h"
#include "reduction/pruning.h"
#include "sim/registry.h"

namespace pdd {

/// Reduction/key/prune only choose WHICH pairs are examined,
/// preparation rewrites the content itself (captured by the pair
/// digest), and executor tuning is a pure throughput knob. Keys added
/// by future components default to decision-relevant, which is the
/// safe direction (fewer cross-plan cache hits, never stale ones).
bool IsDecisionIrrelevantSpecKey(const std::string& key) {
  static const char* kPrefixes[] = {"key", "reduction", "prepare", "prune",
                                    "executor"};
  for (const char* prefix : kPrefixes) {
    size_t len = std::char_traits<char>::length(prefix);
    if (key.compare(0, len, prefix) == 0 &&
        (key.size() == len || key[len] == '.')) {
      return true;
    }
  }
  return false;
}

uint64_t DecisionFingerprint(const PlanSpec& spec) {
  PlanSpec subset;
  for (const auto& [key, value] : spec.params().entries()) {
    if (!IsDecisionIrrelevantSpecKey(key)) subset.params().Set(key, value);
  }
  return subset.Fingerprint();
}

Result<std::shared_ptr<const DetectionPlan>> DetectionPlan::Compile(
    const PlanSpec& spec, Schema schema) {
  PDD_ASSIGN_OR_RETURN(DetectorConfig config, DetectorConfig::FromSpec(spec));
  return Compile(std::move(config), std::move(schema));
}

Result<std::shared_ptr<const DetectionPlan>> DetectionPlan::Compile(
    DetectorConfig config, Schema schema) {
  PDD_RETURN_IF_ERROR(config.Validate());
  const ComponentRegistry& registry = ComponentRegistry::Global();
  std::shared_ptr<DetectionPlan> plan(new DetectionPlan());
  // Key spec.
  PDD_ASSIGN_OR_RETURN(plan->key_spec_,
                       KeySpec::FromNames(config.key, schema));
  // Comparators: explicit names or per-type defaults (empty and
  // "default" entries select by attribute type).
  std::vector<const Comparator*> comparators(schema.arity(), nullptr);
  if (!config.comparators.empty() &&
      config.comparators.size() != schema.arity()) {
    return Status::InvalidArgument(
        "comparator list must match schema arity or be empty");
  }
  if (!config.custom_comparators.empty() &&
      config.custom_comparators.size() != schema.arity()) {
    return Status::InvalidArgument(
        "custom comparator list must match schema arity or be empty");
  }
  // Kernel resolution rides along with comparator resolution; custom
  // instances and kernel-less registry comparators keep a null entry.
  std::vector<ColumnarKernelFn> kernels(schema.arity(), nullptr);
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (!config.custom_comparators.empty() &&
        config.custom_comparators[i] != nullptr) {
      comparators[i] = config.custom_comparators[i];
      continue;
    }
    std::string name;
    if (!config.comparators.empty()) {
      name = config.comparators[i];
    }
    if (name.empty() || name == "default") {
      name = schema.attribute(i).type == ValueType::kNumeric ? "numeric_rel"
                                                             : "hamming";
    }
    // Validate() already rejected named unsound comparators; with the
    // schema in hand we can also catch per-type defaults (numeric_rel
    // for numeric attributes) that would make the prune bound unsound.
    if (config.prune && !IsMaxLengthNormalizedComparator(name)) {
      return Status::InvalidArgument(
          "prune requires max-length-normalized comparators; attribute '" +
          schema.attribute(i).name + "' resolves to '" + name + "'");
    }
    PDD_ASSIGN_OR_RETURN(comparators[i], GetComparator(name));
    kernels[i] = FindColumnarKernel(name);
  }
  plan->columnar_kernels_ = std::move(kernels);
  PDD_ASSIGN_OR_RETURN(TupleMatcher matcher,
                       TupleMatcher::Make(schema, std::move(comparators)));
  plan->matcher_ = std::make_unique<TupleMatcher>(std::move(matcher));
  // Combination function φ, resolved by registry name.
  PDD_ASSIGN_OR_RETURN(
      const ComponentRegistry::CombinationEntry* combination,
      registry.FindCombination(CombinationKindName(config.combination)));
  PDD_ASSIGN_OR_RETURN(plan->combination_,
                       combination->make(config, schema));
  // Derivation function ϑ, resolved by registry name.
  PDD_ASSIGN_OR_RETURN(
      const ComponentRegistry::DerivationEntry* derivation,
      registry.FindDerivation(DerivationKindName(config.derivation)));
  plan->derivation_ = derivation->make(config);
  // Reduction is resolved here too so a bad enum value fails at
  // compile time rather than at the first run.
  PDD_RETURN_IF_ERROR(
      registry.FindReduction(ReductionMethodName(config.reduction)).status());
  plan->spec_ = config.ToSpec();
  plan->fingerprint_ = plan->spec_.Fingerprint();
  // Custom comparator instances decide pairs through code the spec
  // cannot name; 0 marks the plan cache-ineligible so the executor
  // never memoizes (or serves) decisions it cannot key soundly.
  bool has_custom_comparator = false;
  for (const Comparator* comparator : config.custom_comparators) {
    has_custom_comparator = has_custom_comparator || comparator != nullptr;
  }
  plan->decision_fingerprint_ =
      has_custom_comparator ? 0 : DecisionFingerprint(plan->spec_);
  plan->schema_ = std::move(schema);
  plan->config_ = std::move(config);
  return std::shared_ptr<const DetectionPlan>(std::move(plan));
}

std::unique_ptr<PairGenerator> DetectionPlan::MakePairGenerator() const {
  std::unique_ptr<PairGenerator> inner = MakeReductionGenerator();
  if (!config_.prune) return inner;
  PruningOptions options;
  options.threshold = config_.prune_threshold;
  options.weights = config_.weights;
  return std::make_unique<PruningFilter>(std::move(inner), options);
}

std::unique_ptr<PairGenerator> DetectionPlan::MakeReductionGenerator() const {
  auto entry = ComponentRegistry::Global().FindReduction(
      ReductionMethodName(config_.reduction));
  if (!entry.ok()) return std::make_unique<FullPairs>();
  return (*entry)->make(config_, key_spec_);
}

ComparisonMatrix DetectionPlan::RunMatchStage(const XTuple& t1,
                                              const XTuple& t2) const {
  return matcher_->CompareXTuples(t1, t2);
}

AlternativePairScores DetectionPlan::RunCombineStage(
    const XTuple& t1, const XTuple& t2, const ComparisonMatrix& matrix) const {
  return CombineComparisonMatrix(t1, t2, matrix, *combination_);
}

double DetectionPlan::RunDeriveStage(const AlternativePairScores& scores) const {
  return derivation_->Derive(scores);
}

MatchClass DetectionPlan::RunClassifyStage(double similarity) const {
  return Classify(similarity, config_.final_thresholds);
}

XPairDecision DetectionPlan::DecidePair(const XTuple& t1,
                                        const XTuple& t2) const {
  XPairDecision decision;
  decision.similarity =
      RunDeriveStage(RunCombineStage(t1, t2, RunMatchStage(t1, t2)));
  decision.match_class = RunClassifyStage(decision.similarity);
  return decision;
}

}  // namespace pdd
