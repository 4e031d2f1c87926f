#include "reduction/blocking_alternatives.h"

#include <algorithm>

#include "reduction/matching_matrix.h"

namespace pdd {

BlockMap BlockingAlternatives::Blocks(const XRelation& rel) const {
  KeyBuilder builder(spec_, &rel.schema());
  BlockMap blocks;
  for (size_t i = 0; i < rel.size(); ++i) {
    for (const std::string& key : builder.AlternativeKeys(rel.xtuple(i))) {
      std::vector<size_t>& members = blocks[key];
      // "If an x-tuple is allocated to a single block multiple times,
      // except for one, all entries of this tuple are removed."
      if (std::find(members.begin(), members.end(), i) == members.end()) {
        members.push_back(i);
      }
    }
  }
  return blocks;
}

Result<std::vector<CandidatePair>> BlockingAlternatives::Generate(
    const XRelation& rel) const {
  BlockMap blocks = Blocks(rel);
  MatchingMatrix executed(rel.size());
  std::vector<CandidatePair> pairs;
  for (const auto& [key, members] : blocks) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (executed.TestAndSet(members[i], members[j])) {
          pairs.push_back(MakePair(members[i], members[j]));
        }
      }
    }
  }
  SortAndDedupPairs(&pairs);
  return pairs;
}

Result<std::unique_ptr<PairBatchSource>> BlockingAlternatives::Stream(
    const XRelation& rel) const {
  return std::unique_ptr<PairBatchSource>(std::make_unique<BlockPairSource>(
      BlockGroups(Blocks(rel)), rel.size(), /*min_shared=*/1));
}

}  // namespace pdd
