#include "match/columnar_matcher.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "decision/combination.h"
#include "derive/similarity_based.h"
#include "match/comparison_vector.h"

namespace pdd {

ColumnarMatcher::MemoSlot* ColumnarMatcher::MapMemo() {
  void* pages = ::mmap(nullptr, kMemoBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return static_cast<MemoSlot*>(pages);
}

void ColumnarMatcher::Unmap::operator()(MemoSlot* slots) const {
  ::munmap(slots, kMemoBytes);
}

ColumnarMatcher::ColumnarMatcher(const DetectionPlan& plan,
                                 const RelationArena& arena)
    : plan_(plan), arena_(arena), memo_(MapMemo()) {
  if (const auto* wsum =
          dynamic_cast<const WeightedSumCombination*>(&plan.combination())) {
    weights_ = &wsum->weights();
    expected_phi_ = dynamic_cast<const ExpectedSimilarityDerivation*>(
                        &plan.derivation()) != nullptr;
  }
  c_.resize(plan.schema().arity());
}

double ColumnarMatcher::MatchValue(size_t attr, size_t v1, size_t v2) {
  const uint64_t key =
      ~(uint64_t{arena_.value_class(v1)} << 32 | arena_.value_class(v2));
  // Fibonacci hashing: the top bits of key · 2^64/φ.
  MemoSlot& slot =
      memo_[(key * 0x9E3779B97F4A7C15ull) >> (64 - kMemoBits)];
  if (slot.key != key) slot = {key, ComputeValue(attr, v1, v2)};
  return slot.similarity;
}

double ColumnarMatcher::ComputeValue(size_t attr, size_t v1, size_t v2) {
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

double ColumnarMatcher::Phi(size_t r1, size_t r2) {
  const size_t arity = arena_.arity();
  if (weights_ != nullptr) {
    // WeightedSumCombination::Combine's loop with the comparison value
    // computed in place of the c[i] load: φ components beyond
    // min(|w|, arity) never contribute, so their attribute
    // similarities are skipped entirely.
    const size_t n = std::min(weights_->size(), arity);
    double combined = 0.0;
    for (size_t attr = 0; attr < n; ++attr) {
      combined += (*weights_)[attr] *
                  MatchValue(attr, r1 * arity + attr, r2 * arity + attr);
    }
    return combined;
  }
  for (size_t attr = 0; attr < arity; ++attr) {
    c_[attr] = MatchValue(attr, r1 * arity + attr, r2 * arity + attr);
  }
  return plan_.combination().Combine(ComparisonVector(c_));
}

void ColumnarMatcher::FillScores(size_t t1, size_t t2) {
  const RelationArena& a = arena_;
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
      scores_.sims[cell++] = Phi(r1, r2);
    }
  }
}

double ColumnarMatcher::ExpectedPhi(size_t t1, size_t t2) {
  const RelationArena& a = arena_;
  const double* cond = a.row_cond_prob_data();
  double total = 0.0;
  for (uint32_t r1 = a.tuple_row_begin(t1); r1 < a.tuple_row_end(t1); ++r1) {
    for (uint32_t r2 = a.tuple_row_begin(t2); r2 < a.tuple_row_end(t2);
         ++r2) {
      // scores.weight(i, j) * scores.sim(i, j), the weight first.
      total += (cond[r1] * cond[r2]) * Phi(r1, r2);
    }
  }
  return total;
}

XPairDecision ColumnarMatcher::Decide(size_t t1, size_t t2) {
  XPairDecision decision;
  if (expected_phi_) {
    decision.similarity = ExpectedPhi(t1, t2);
    decision.match_class = plan_.RunClassifyStage(decision.similarity);
    return decision;
  }
  FillScores(t1, t2);  // match and combine, fused (see header)
  decision.similarity = plan_.RunDeriveStage(scores_);
  decision.match_class = plan_.RunClassifyStage(decision.similarity);
  return decision;
}

}  // namespace pdd
