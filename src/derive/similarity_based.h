// Similarity-based derivation (Fig. 6 left): sim(t1,t2) is derived
// directly from the alternative pair similarities.

#ifndef PDD_DERIVE_SIMILARITY_BASED_H_
#define PDD_DERIVE_SIMILARITY_BASED_H_

#include "derive/derivation.h"

namespace pdd {

/// Eq. 6: the conditional expectation E(sim(t1^i, t2^j) | B) =
/// Σ_i Σ_j p(t1^i)/p(t1) · p(t2^j)/p(t2) · sim(t1^i, t2^j).
///
/// Equals the expected similarity over all possible worlds containing
/// both tuples (the paper's Fig. 7 example yields 7/15 for (t32, t42)).
/// The paper notes this derivation suits knowledge-based (normalized φ)
/// techniques; with unnormalized φ the expectation can become
/// unrepresentative. Final: ColumnarMatcher recognizes it by type and
/// sums it inside its match loop.
class ExpectedSimilarityDerivation final : public DerivationFunction {
 public:
  double Derive(const AlternativePairScores& scores) const override;
  std::string name() const override { return "expected_similarity"; }
};

/// Optimistic variant: the maximal alternative pair similarity.
class MaxSimilarityDerivation : public DerivationFunction {
 public:
  double Derive(const AlternativePairScores& scores) const override;
  std::string name() const override { return "max_similarity"; }
};

/// Conservative variant: the minimal alternative pair similarity.
class MinSimilarityDerivation : public DerivationFunction {
 public:
  double Derive(const AlternativePairScores& scores) const override;
  std::string name() const override { return "min_similarity"; }
};

/// The similarity of the most probable alternative pair (the pair
/// maximizing the conditioned probability p1_i·p2_j; ties break toward
/// lower indices). Equivalent to evaluating only the most probable world.
class ModeSimilarityDerivation : public DerivationFunction {
 public:
  double Derive(const AlternativePairScores& scores) const override;
  std::string name() const override { return "mode_similarity"; }
};

}  // namespace pdd

#endif  // PDD_DERIVE_SIMILARITY_BASED_H_
