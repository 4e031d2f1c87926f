#include "match/columnar_matcher.h"

#include <algorithm>
#include <chrono>

#include "decision/combination.h"
#include "match/comparison_vector.h"

namespace pdd {

namespace {

using Clock = std::chrono::steady_clock;

inline double Elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

ColumnarMatcher::ColumnarMatcher(const DetectionPlan& plan,
                                 const RelationArena& arena)
    : plan_(plan), arena_(arena) {
  if (const auto* wsum =
          dynamic_cast<const WeightedSumCombination*>(&plan.combination())) {
    weights_ = &wsum->weights();
  }
  c_.resize(plan.schema().arity());
}

double ColumnarMatcher::MatchValue(size_t attr, size_t v1, size_t v2) {
  const RelationArena& a = arena_;
  const uint32_t a_begin = a.value_alt_begin(v1);
  const uint32_t a_end = a.value_alt_end(v1);
  const uint32_t b_begin = a.value_alt_begin(v2);
  const uint32_t b_end = a.value_alt_end(v2);
  // ExpectedSimilarity's accumulation, term for term: cross product of
  // explicit alternatives in storage order, then the (⊥,⊥) cell. The
  // kernel-or-comparator choice is made once per value pair.
  double total = 0.0;
  if (const ColumnarKernelFn kernel = plan_.columnar_kernels()[attr];
      kernel != nullptr) {
    for (uint32_t ka = a_begin; ka < a_end; ++ka) {
      const std::string_view text_a = a.alt_text(ka);
      const double prob_a = a.alt_prob(ka);
      const uint64_t sig_a = a.alt_sig(ka);
      for (uint32_t kb = b_begin; kb < b_end; ++kb) {
        total += prob_a * a.alt_prob(kb) *
                 kernel(text_a, a.alt_text(kb), sig_a, a.alt_sig(kb),
                        scratch_);
      }
    }
  } else {
    const Comparator& cmp = *plan_.comparators()[attr];
    for (uint32_t ka = a_begin; ka < a_end; ++ka) {
      const std::string_view text_a = a.alt_text(ka);
      const double prob_a = a.alt_prob(ka);
      for (uint32_t kb = b_begin; kb < b_end; ++kb) {
        total += prob_a * a.alt_prob(kb) * cmp.Compare(text_a, a.alt_text(kb));
      }
    }
  }
  total += a.value_null_prob(v1) * a.value_null_prob(v2);
  return total;
}

void ColumnarMatcher::FillScores(size_t t1, size_t t2) {
  const RelationArena& a = arena_;
  const size_t arity = a.arity();
  const uint32_t r1_begin = a.tuple_row_begin(t1);
  const uint32_t r1_end = a.tuple_row_end(t1);
  const uint32_t r2_begin = a.tuple_row_begin(t2);
  const uint32_t r2_end = a.tuple_row_end(t2);
  scores_.rows = r1_end - r1_begin;
  scores_.cols = r2_end - r2_begin;
  const double* cond = a.row_cond_prob_data();
  scores_.p1.assign(cond + r1_begin, cond + r1_end);
  scores_.p2.assign(cond + r2_begin, cond + r2_end);
  scores_.sims.resize(scores_.rows * scores_.cols);
  size_t cell = 0;
  for (uint32_t r1 = r1_begin; r1 < r1_end; ++r1) {
    for (uint32_t r2 = r2_begin; r2 < r2_end; ++r2) {
      double sim;
      if (weights_ != nullptr) {
        // WeightedSumCombination::Combine's loop with the comparison
        // value computed in place of the c[i] load: φ components
        // beyond min(|w|, arity) never contribute, so their attribute
        // similarities are skipped entirely.
        const size_t n = std::min(weights_->size(), arity);
        double combined = 0.0;
        for (size_t attr = 0; attr < n; ++attr) {
          combined += (*weights_)[attr] *
                      MatchValue(attr, size_t{r1} * arity + attr,
                                 size_t{r2} * arity + attr);
        }
        sim = combined;
      } else {
        for (size_t attr = 0; attr < arity; ++attr) {
          c_[attr] = MatchValue(attr, size_t{r1} * arity + attr,
                                size_t{r2} * arity + attr);
        }
        sim = plan_.combination().Combine(ComparisonVector(c_));
      }
      scores_.sims[cell++] = sim;
    }
  }
}

XPairDecision ColumnarMatcher::Decide(size_t t1, size_t t2) {
  XPairDecision decision;
  for (PipelineStage stage : plan_.stages()) {
    switch (stage) {
      case PipelineStage::kMatch:
        FillScores(t1, t2);
        break;
      case PipelineStage::kCombine:
        break;  // fused into kMatch (see header)
      case PipelineStage::kDerive:
        decision.similarity = plan_.RunDeriveStage(scores_);
        break;
      case PipelineStage::kClassify:
        decision.match_class = plan_.RunClassifyStage(decision.similarity);
        break;
    }
  }
  return decision;
}

XPairDecision ColumnarMatcher::DecideTimed(size_t t1, size_t t2,
                                           StageTimings* timings) {
  XPairDecision decision;
  for (PipelineStage stage : plan_.stages()) {
    Clock::time_point start = Clock::now();
    switch (stage) {
      case PipelineStage::kMatch:
        FillScores(t1, t2);
        timings->match_seconds += Elapsed(start);
        break;
      case PipelineStage::kCombine:
        // Fused into kMatch: the clock read would only measure itself.
        break;
      case PipelineStage::kDerive:
        decision.similarity = plan_.RunDeriveStage(scores_);
        timings->derive_seconds += Elapsed(start);
        break;
      case PipelineStage::kClassify:
        decision.match_class = plan_.RunClassifyStage(decision.similarity);
        timings->classify_seconds += Elapsed(start);
        break;
    }
  }
  return decision;
}

}  // namespace pdd
