// The unreduced search space: every tuple pair (the baseline every
// reduction method is measured against).

#ifndef PDD_REDUCTION_FULL_PAIRS_H_
#define PDD_REDUCTION_FULL_PAIRS_H_

#include "reduction/pair_generator.h"

namespace pdd {

/// Generates all n(n-1)/2 pairs. Streams natively by index arithmetic
/// alone — no buffer at all, which is what makes full runs on large
/// relations feasible through the streaming executor path.
class FullPairs : public PairGenerator {
 public:
  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "full"; }
};

}  // namespace pdd

#endif  // PDD_REDUCTION_FULL_PAIRS_H_
