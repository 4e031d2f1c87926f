#include "reduction/blocking_clustered.h"

#include "reduction/blocking.h"

namespace pdd {

std::vector<std::vector<size_t>> BlockingClustered::Clusters(
    const XRelation& rel) const {
  const KeyDistributionTable table =
      KeyDistributionTable::ForRelation(rel, spec_, options_.conditioned);
  DistanceFn distance = [&](size_t a, size_t b) {
    return table.Distance(a, b, options_.comparator);
  };
  switch (options_.algorithm) {
    case ClusteredBlockingOptions::Algorithm::kLeader:
      return LeaderClustering(rel.size(), distance,
                              options_.leader_threshold);
    case ClusteredBlockingOptions::Algorithm::kKMedoids:
      return KMedoids(rel.size(), distance, options_.kmedoids);
  }
  return {};
}

Result<std::vector<CandidatePair>> BlockingClustered::Generate(
    const XRelation& rel) const {
  std::vector<CandidatePair> pairs;
  for (const std::vector<size_t>& cluster : Clusters(rel)) {
    for (size_t i = 0; i < cluster.size(); ++i) {
      for (size_t j = i + 1; j < cluster.size(); ++j) {
        pairs.push_back(MakePair(cluster[i], cluster[j]));
      }
    }
  }
  SortAndDedupPairs(&pairs);
  return pairs;
}

Result<std::unique_ptr<PairBatchSource>> BlockingClustered::Stream(
    const XRelation& rel) const {
  return std::unique_ptr<PairBatchSource>(std::make_unique<BlockPairSource>(
      Clusters(rel), rel.size(), /*min_shared=*/1));
}

}  // namespace pdd
