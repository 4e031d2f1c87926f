// ColumnarMatcher: decides candidate pairs over a RelationArena — the
// executor's one decide path for every plan. Each attribute runs its
// comparator's columnar kernel, or, where the comparator has none
// (monge_elkan, soundex, custom Comparator instances), the comparator
// itself over the arena's already pattern-expanded texts.
//
// One matcher instance is per-worker mutable scratch (its SimScratch,
// value memo, score grid and comparison-vector buffers are reused
// across pairs and never reallocate after warmup); the plan and arena
// it reads are shared and immutable. The executor constructs one
// matcher per worker thread.
//
// Value memo: a value's expected similarity to another depends only on
// the two contents, and the arena interns contents into value classes.
// So each matcher keeps a direct-mapped memo of 2^14 slots (256 KiB)
// keyed by the ORDERED class pair (v1's class, v2's class) — a sum over
// several alternatives is not bit-symmetric in its operands — and
// computes a value pair only when its slot holds another key. That
// holds for kernel and comparator attributes alike (comparators are
// pure functions of the two texts). The slots are anonymous pages
// mapped per matcher: a page becomes resident when a slot on it is
// first written and goes back to the system with the matcher, so a
// finished run's memos do not linger in the workers' heaps.
//
// Bit-identity contract: Decide(i, j) returns exactly what
// plan.DecidePair(rel.xtuple(i), rel.xtuple(j)) returns, bit for bit.
// That holds because
//   * the arena stores the expanded alternatives in the order
//     Value::Expanded produces (the same expansion MatchAttribute does
//     per pair),
//   * the per-value loop replicates ExpectedSimilarity's accumulation
//     order (outer a-alternatives, inner b-alternatives, then the
//     ⊥·⊥ term), and a memo hit returns the bits that loop produced
//     for values of the same two classes, in the same order,
//   * each kernel is bit-identical to its registry comparator (and a
//     kernel-less attribute calls the comparator itself),
//   * the weighted-sum fast path replicates
//     WeightedSumCombination::Combine's flat loop (same order, same
//     arithmetic); other φ implementations go through the same
//     Combine virtual call DecidePair uses, and
//   * under a weighted-sum φ with the expected-similarity ϑ (the
//     default plan), Decide adds (p1·p2)·φ of each alternative pair in
//     row-major order as it goes — ExpectedSimilarityDerivation's sum,
//     term for term — and classifies it, without the score grid.
//     Every other ϑ fills the score grid, with φ computed inside the
//     match stage (fusing match + combine), then derives from the grid
//     and classifies.
//
// Decide is the only decide path and reads no clock: the executor
// times whole batches around it.

#ifndef PDD_MATCH_COLUMNAR_MATCHER_H_
#define PDD_MATCH_COLUMNAR_MATCHER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "columnar/relation_arena.h"
#include "derive/xtuple_decision_model.h"
#include "pipeline/detection_plan.h"
#include "sim/columnar_kernels.h"
#include "sim/sim_scratch.h"

namespace pdd {

class ColumnarMatcher {
 public:
  /// `arena` must describe the relation whose tuples are decided; both
  /// referents must outlive the matcher.
  ColumnarMatcher(const DetectionPlan& plan, const RelationArena& arena);

  /// Decides the pair of arena tuples (t1, t2); bit-identical to
  /// plan.DecidePair on the corresponding x-tuples.
  XPairDecision Decide(size_t t1, size_t t2);

  /// The arena this matcher decides over (precomputed tuple digests
  /// for the executor's cache path live here).
  const RelationArena& arena() const { return arena_; }

 private:
  /// One memo entry: an ordered class pair and its value similarity.
  /// The key is the complement of (class1 << 32 | class2), so zeroed
  /// pages read as free slots: class ids stay below UINT32_MAX, and no
  /// pair complements to 0.
  struct MemoSlot {
    uint64_t key;
    double similarity;
  };
  static constexpr unsigned kMemoBits = 14;
  static constexpr size_t kMemoBytes = sizeof(MemoSlot) << kMemoBits;
  /// Zeroed anonymous pages for the memo; throws std::bad_alloc when
  /// the mapping fails, as an allocation would.
  static MemoSlot* MapMemo();
  /// Unmaps the memo's pages.
  struct Unmap {
    void operator()(MemoSlot* slots) const;
  };

  /// φ of the alternative-tuple pair (rows r1, r2).
  double Phi(size_t r1, size_t r2);

  /// Fused match+combine: fills scores_ for the pair.
  void FillScores(size_t t1, size_t t2);

  /// Σ (p1·p2)·φ over the pair's rows in row-major order: what
  /// ExpectedSimilarityDerivation derives from FillScores' grid.
  double ExpectedPhi(size_t t1, size_t t2);

  /// ExpectedSimilarity of two arena values of attribute `attr`: the
  /// memo's entry for their classes, else ComputeValue's.
  double MatchValue(size_t attr, size_t v1, size_t v2);

  /// ExpectedSimilarity of two arena values of attribute `attr` under
  /// its kernel or comparator (Eq. 5), replicated term for term.
  double ComputeValue(size_t attr, size_t v1, size_t v2);

  const DetectionPlan& plan_;
  const RelationArena& arena_;
  /// Non-null iff φ is a weighted sum (the fast fused-combine path).
  const std::vector<double>* weights_ = nullptr;
  /// φ is a weighted sum and ϑ the expected similarity: Decide sums
  /// ExpectedPhi instead of deriving from a grid.
  bool expected_phi_ = false;
  std::unique_ptr<MemoSlot[], Unmap> memo_;
  SimScratch scratch_;
  AlternativePairScores scores_;
  std::vector<double> c_;  // comparison-vector buffer, arity entries
};

}  // namespace pdd

#endif  // PDD_MATCH_COLUMNAR_MATCHER_H_
