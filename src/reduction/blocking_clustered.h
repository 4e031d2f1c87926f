// Blocking over uncertain key values via clustering (Section V-B; the
// paper points to clustering techniques for uncertain data [38]-[40]):
// each tuple keeps its probabilistic key distribution; tuples with
// similar distributions land in the same block.

#ifndef PDD_REDUCTION_BLOCKING_CLUSTERED_H_
#define PDD_REDUCTION_BLOCKING_CLUSTERED_H_

#include "cluster/k_medoids.h"
#include "cluster/key_distribution_distance.h"
#include "keys/key_builder.h"
#include "reduction/pair_generator.h"
#include "sim/comparator.h"

namespace pdd {

/// Options of clustered uncertain-key blocking.
struct ClusteredBlockingOptions {
  /// Which clustering algorithm forms the blocks.
  enum class Algorithm { kLeader = 0, kKMedoids = 1 };
  Algorithm algorithm = Algorithm::kLeader;
  /// Distance on key distributions: plain overlap, or expected key
  /// similarity under `comparator` when non-null.
  const Comparator* comparator = nullptr;
  /// Leader clustering distance threshold.
  double leader_threshold = 0.5;
  /// K-medoids parameters.
  KMedoidsOptions kmedoids;
  /// Condition key distributions by p(t) first.
  bool conditioned = false;
};

/// Uncertain-key blocking through clustering of key distributions.
class BlockingClustered : public PairGenerator {
 public:
  BlockingClustered(KeySpec spec, ClusteredBlockingOptions options)
      : spec_(std::move(spec)), options_(options) {}

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// Native streaming: the clusters are the block partition; live
  /// candidates are bounded by one tuple's cluster.
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "blocking_clustered"; }

  /// The clusters as tuple-index blocks.
  std::vector<std::vector<size_t>> Clusters(const XRelation& rel) const;

 private:
  KeySpec spec_;
  ClusteredBlockingOptions options_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_BLOCKING_CLUSTERED_H_
