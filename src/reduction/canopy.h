// Canopy clustering as a search space reduction method (McCallum et
// al.'s canopies, adapted to probabilistic data): a cheap comparator
// over probabilistic key distributions forms overlapping canopies; only
// pairs sharing a canopy are compared. Unlike blocking, canopies
// overlap, so borderline tuples are not lost to a single partition —
// another instance of Section V-B's "handle the uncertain key values
// instead of collapsing them".

#ifndef PDD_REDUCTION_CANOPY_H_
#define PDD_REDUCTION_CANOPY_H_

#include "cluster/key_distribution_distance.h"
#include "keys/key_builder.h"
#include "reduction/pair_generator.h"
#include "sim/comparator.h"

namespace pdd {

/// Options of canopy reduction.
struct CanopyOptions {
  /// Tuples within this distance of a canopy center join the canopy
  /// (loose threshold; distances in [0, 1]).
  double loose = 0.7;
  /// Tuples within this distance are additionally removed from the
  /// center pool (tight threshold <= loose).
  double tight = 0.4;
  /// Cheap distance: expected key distance under `comparator` when set,
  /// else distribution-overlap distance.
  const Comparator* comparator = nullptr;
  /// Condition key distributions by p(t) first.
  bool conditioned = false;
};

/// Canopy-based candidate generation over probabilistic key values.
class CanopyReduction : public PairGenerator {
 public:
  CanopyReduction(KeySpec spec, CanopyOptions options)
      : spec_(std::move(spec)), options_(options) {}

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// The canopies are the blocks of a BlockPairSource: live candidates
  /// are bounded by the canopies of one tuple.
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "canopy"; }

  /// The overlapping canopies (tuple indices; first member is the
  /// center). A tuple may appear in several canopies. The relation's key
  /// distributions are normalized once (KeyDistributionTable); under the
  /// overlap distance with loose < 1 a center scores only the tuples
  /// sharing one of its keys, else every tuple.
  std::vector<std::vector<size_t>> Canopies(const XRelation& rel) const;

 private:
  KeySpec spec_;
  CanopyOptions options_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_CANOPY_H_
