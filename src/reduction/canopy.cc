#include "reduction/canopy.h"

#include <algorithm>
#include <numeric>

#include "reduction/blocking.h"

namespace pdd {

std::vector<std::vector<size_t>> CanopyReduction::Canopies(
    const XRelation& rel) const {
  const KeyDistributionTable table =
      KeyDistributionTable::ForRelation(rel, spec_, options_.conditioned);
  const Comparator* cmp = options_.comparator;
  // Under the overlap distance a tuple sharing no key with the center
  // is at distance exactly 1, so with loose < 1 it can neither join nor
  // be consumed: scoring the center's posting lists (ascending, like the
  // full scan) forms the same canopies. Comparator distances and
  // loose >= 1 scan every tuple.
  const bool use_postings = cmp == nullptr && options_.loose < 1.0;
  std::vector<size_t> everyone;
  if (!use_postings) {
    everyone.resize(rel.size());
    std::iota(everyone.begin(), everyone.end(), size_t{0});
  }
  std::vector<size_t> shared;
  double tight = std::min(options_.tight, options_.loose);
  std::vector<bool> removed(rel.size(), false);
  std::vector<std::vector<size_t>> canopies;
  for (size_t center = 0; center < rel.size(); ++center) {
    if (removed[center]) continue;
    removed[center] = true;
    std::vector<size_t> canopy = {center};
    if (use_postings) table.TuplesSharingKey(center, &shared);
    for (size_t i : use_postings ? shared : everyone) {
      // Tuples tightly bound to an earlier center are consumed; tuples
      // in the loose band stay in the pool and may join several
      // canopies (the overlap that plain blocking lacks).
      if (removed[i]) continue;
      double d = table.Distance(center, i, cmp);
      if (d <= options_.loose) {
        canopy.push_back(i);
        if (d <= tight) removed[i] = true;
      }
    }
    canopies.push_back(std::move(canopy));
  }
  return canopies;
}

Result<std::vector<CandidatePair>> CanopyReduction::Generate(
    const XRelation& rel) const {
  if (options_.tight > options_.loose) {
    return Status::InvalidArgument("canopy tight threshold exceeds loose");
  }
  std::vector<CandidatePair> pairs;
  for (const std::vector<size_t>& canopy : Canopies(rel)) {
    for (size_t i = 0; i < canopy.size(); ++i) {
      for (size_t j = i + 1; j < canopy.size(); ++j) {
        pairs.push_back(MakePair(canopy[i], canopy[j]));
      }
    }
  }
  SortAndDedupPairs(&pairs);
  return pairs;
}

Result<std::unique_ptr<PairBatchSource>> CanopyReduction::Stream(
    const XRelation& rel) const {
  if (options_.tight > options_.loose) {
    return Status::InvalidArgument("canopy tight threshold exceeds loose");
  }
  return std::unique_ptr<PairBatchSource>(std::make_unique<BlockPairSource>(
      Canopies(rel), rel.size(), /*min_shared=*/1));
}

}  // namespace pdd
