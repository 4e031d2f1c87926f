#include "core/detector.h"

namespace pdd {

EffectivenessMetrics Evaluate(const DetectionResult& result,
                              const GoldStandard& gold,
                              bool count_possible_as_match) {
  const ResolvedGold resolved(gold, result.ids.get());
  ConfusionCounts counts;
  size_t gold_declared = 0;
  for (const PairDecisionRecord& rec : result.decisions) {
    bool predicted = rec.match_class == MatchClass::kMatch ||
                     (count_possible_as_match &&
                      rec.match_class == MatchClass::kPossible);
    bool actual = resolved.IsMatch(rec.index1, rec.index2);
    if (predicted) {
      if (actual) {
        ++counts.true_positives;
        ++gold_declared;
      } else {
        ++counts.false_positives;
      }
    } else if (actual) {
      ++counts.false_negatives;
      ++gold_declared;
    }
  }
  // Gold pairs pruned by the reduction step were never examined: they are
  // implicit false negatives.
  counts.false_negatives += gold.size() - gold_declared;
  // Everything else (examined non-matches and pruned non-gold pairs).
  counts.true_negatives = result.total_pairs - counts.true_positives -
                          counts.false_positives - counts.false_negatives;
  return ComputeEffectiveness(counts);
}

ReductionMetrics EvaluateReduction(const DetectionResult& result,
                                   const GoldStandard& gold) {
  const ResolvedGold resolved(gold, result.ids.get());
  size_t covered = 0;
  for (const PairDecisionRecord& rec : result.decisions) {
    if (resolved.IsMatch(rec.index1, rec.index2)) ++covered;
  }
  return ComputeReduction(result.candidate_count, result.total_pairs, covered,
                          gold.size());
}

Result<DuplicateDetector> DuplicateDetector::Make(DetectorConfig config,
                                                  Schema schema) {
  PDD_ASSIGN_OR_RETURN(
      std::shared_ptr<const DetectionPlan> plan,
      DetectionPlan::Compile(std::move(config), std::move(schema)));
  return DuplicateDetector(std::move(plan));
}

Result<DuplicateDetector> DuplicateDetector::Make(const PlanSpec& spec,
                                                  Schema schema) {
  PDD_ASSIGN_OR_RETURN(std::shared_ptr<const DetectionPlan> plan,
                       DetectionPlan::Compile(spec, std::move(schema)));
  return DuplicateDetector(std::move(plan));
}

StageExecutor DuplicateDetector::MakeExecutor() const {
  StageExecutorOptions options;
  options.batch_size = plan_->config().batch_size;
  options.workers = plan_->config().workers;
  options.cache = cache_;
  return StageExecutor(plan_, options);
}

Result<DetectionResult> DuplicateDetector::Run(const XRelation& input) const {
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<CandidateStream> stream,
                       MakeFullStream(*plan_, input));
  return MakeExecutor().Execute(*stream);
}

Result<DetectionResult> DuplicateDetector::RunOnSources(
    const XRelation& a, const XRelation& b) const {
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<CandidateStream> stream,
                       MakeUnionStream(*plan_, a, b));
  return MakeExecutor().Execute(*stream);
}

Result<DetectionResult> DuplicateDetector::RunIncremental(
    const XRelation& existing, const XRelation& additions) const {
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<CandidateStream> stream,
                       MakeIncrementalStream(*plan_, existing, additions));
  return MakeExecutor().Execute(*stream);
}

Result<DetectionResult> DuplicateDetector::RunStream(
    CandidateStream& stream) const {
  return MakeExecutor().Execute(stream);
}

double DuplicateDetector::PairSimilarity(const XTuple& t1,
                                         const XTuple& t2) const {
  return plan_->model().Similarity(t1, t2);
}

}  // namespace pdd
