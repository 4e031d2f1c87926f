// Pruning — the third reduction heuristic Section III-B names besides
// the sorted neighborhood method and blocking: candidate pairs whose
// *cheap upper bound* on similarity cannot reach the match threshold are
// discarded before the expensive Eq. 5 / derivation work runs
// (filter-verification).
//
// The bound used here is the length filter, valid for every
// normalized-by-max-length comparator (Hamming, Levenshtein, Damerau,
// LCS): sim(a, b) <= 1 - |len(a)-len(b)| / max(len(a), len(b)).
// For probabilistic values the bound is the maximum over the
// alternatives' length bounds (an upper bound over every world), and a
// pair's bound is the weighted-sum bound over key attributes.

#ifndef PDD_REDUCTION_PRUNING_H_
#define PDD_REDUCTION_PRUNING_H_

#include <memory>

#include "pdb/xrelation.h"
#include "reduction/pair_generator.h"

namespace pdd {

/// True iff LengthBound is a sound upper bound for the named registry
/// comparator (hamming, levenshtein, damerau, lcs, exact,
/// exact_nocase, prefix).
bool IsMaxLengthNormalizedComparator(std::string_view name);

/// Length-filter upper bound on the similarity of two certain texts
/// under max-length-normalized comparators.
double LengthBound(std::string_view a, std::string_view b);

/// Upper bound over all alternative pairs of two probabilistic values
/// (1 when either value may be ⊥ together with the other — the
/// sim(⊥,⊥)=1 case keeps the bound sound).
double ValueLengthBound(const Value& a, const Value& b);

/// Options of the pruning filter.
struct PruningOptions {
  /// Pairs with upper-bound combined similarity strictly below this are
  /// pruned. Set to the pipeline's Tλ to keep every pair that could
  /// still reach the possible band.
  double threshold = 0.4;
  /// Per-attribute weights of the combination bound (empty = uniform).
  std::vector<double> weights;
};

/// Wraps another PairGenerator and prunes its candidates by the bound.
/// Sound for max-length-normalized comparators: a pruned pair could not
/// have been classified above `threshold`.
class PruningFilter : public PairGenerator {
 public:
  /// Takes ownership of `inner`.
  PruningFilter(std::unique_ptr<PairGenerator> inner, PruningOptions options)
      : inner_(std::move(inner)), options_(std::move(options)) {}

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// Streams the inner source through the bound filter pair-by-pair, so
  /// pruning keeps whatever memory bound the inner generator has.
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override {
    return "pruned(" + inner_->name() + ")";
  }

  /// Upper bound of one x-tuple pair under the options.
  double PairBound(const XTuple& a, const XTuple& b) const;

 private:
  std::unique_ptr<PairGenerator> inner_;
  PruningOptions options_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_PRUNING_H_
