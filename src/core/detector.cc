#include "core/detector.h"

#include <algorithm>

#include "ingest/standing_session.h"

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
  options.stage_timings = collect_stage_timings_;
  return StageExecutor(plan_, options);
}

Result<DetectionResult> DuplicateDetector::Run(const XRelation& input) const {
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<CandidateStream> stream,
                       MakeFullStream(*plan_, input, shard_options()));
  return MakeExecutor().Execute(*stream);
}

Result<DetectionResult> DuplicateDetector::RunOnSources(
    const XRelation& a, const XRelation& b) const {
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<CandidateStream> stream,
                       MakeUnionStream(*plan_, a, b, shard_options()));
  return MakeExecutor().Execute(*stream);
}

Result<DetectionResult> DuplicateDetector::RunIncremental(
    const XRelation& existing, const XRelation& additions) const {
  // Thin adapter over the standing ingest path: a one-shot session
  // sized to hold every addition (push-then-close, so the unconsumed
  // queue must fit them all), finished as the classic incremental
  // scenario. Admission preserves arrival order and the finish rebuilds
  // the same incremental stream this method used to build directly, so
  // the report is byte-identical to the pre-standing implementation —
  // including the duplicate-id failure the Union step used to raise,
  // now surfaced by the lossless-admission check.
  StandingSession::Options options;
  options.stream.queue_capacity = std::max<size_t>(additions.size(), 1);
  options.stream.max_admitted = std::max<size_t>(additions.size(), 1);
  options.batch_size = plan_->config().batch_size;
  options.workers = plan_->config().workers;
  options.stage_timings = collect_stage_timings_;
  options.cache = cache_;
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<StandingSession> session,
                       StandingSession::Make(plan_, &existing, options));
  for (const XTuple& tuple : additions.xtuples()) {
    session->queue().Push(tuple);
  }
  session->queue().Close();
  return session->FinishIncremental(existing, shard_options());
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
