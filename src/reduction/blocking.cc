#include "reduction/blocking.h"

#include <algorithm>
#include <iterator>

namespace pdd {

BlockPairSource::BlockPairSource(std::vector<std::vector<size_t>> blocks,
                                 size_t tuple_count, size_t min_shared)
    : PerFirstPairSource(tuple_count),
      blocks_(std::move(blocks)),
      memberships_(tuple_count),
      min_shared_(min_shared) {
  for (size_t b = 0; b < blocks_.size(); ++b) {
    for (size_t member : blocks_[b]) memberships_[member].push_back(b);
  }
}

void BlockPairSource::AppendPartners(size_t first, std::vector<size_t>* out) {
  const size_t begin = out->size();
  for (size_t b : memberships_[first]) {
    for (size_t u : blocks_[b]) {
      if (u > first) out->push_back(u);
    }
  }
  if (min_shared_ == 1) return;
  // A partner is appended once per block it shares with `first`: keep
  // one copy of each partner appended at least min_shared_ times.
  std::sort(out->begin() + begin, out->end());
  size_t kept = begin;
  for (size_t run = begin; run < out->size();) {
    size_t next = run + 1;
    while (next < out->size() && (*out)[next] == (*out)[run]) ++next;
    if (next - run >= min_shared_) (*out)[kept++] = (*out)[run];
    run = next;
  }
  out->resize(kept);
}

std::vector<std::vector<size_t>> BlockGroups(const BlockMap& blocks) {
  std::vector<std::vector<size_t>> groups;
  groups.reserve(blocks.size());
  for (const auto& [key, members] : blocks) groups.push_back(members);
  return groups;
}

std::vector<CandidatePair> PairsFromBlocks(const BlockMap& blocks) {
  std::vector<CandidatePair> pairs;
  for (const auto& [key, members] : blocks) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        if (members[i] != members[j]) {
          pairs.push_back(MakePair(members[i], members[j]));
        }
      }
    }
  }
  SortAndDedupPairs(&pairs);
  return pairs;
}

BlockMap BlockingCertainKeys::Blocks(const XRelation& rel) const {
  KeyBuilder builder(spec_, &rel.schema());
  BlockMap blocks;
  for (size_t i = 0; i < rel.size(); ++i) {
    blocks[builder.CertainKey(rel.xtuple(i), strategy_)].push_back(i);
  }
  return blocks;
}

Result<std::vector<CandidatePair>> BlockingCertainKeys::Generate(
    const XRelation& rel) const {
  return PairsFromBlocks(Blocks(rel));
}

Result<std::unique_ptr<PairBatchSource>> BlockingCertainKeys::Stream(
    const XRelation& rel) const {
  return std::unique_ptr<PairBatchSource>(std::make_unique<BlockPairSource>(
      BlockGroups(Blocks(rel)), rel.size(), /*min_shared=*/1));
}

Result<std::vector<CandidatePair>> BlockingMultipassWorlds::Generate(
    const XRelation& rel) const {
  std::vector<World> worlds = SelectWorlds(rel, selection_);
  if (worlds.empty()) {
    return Status::FailedPrecondition(
        "no all-present world exists for relation '" + rel.name() + "'");
  }
  KeyBuilder builder(spec_, &rel.schema());
  std::vector<CandidatePair> all;
  for (const World& world : worlds) {
    BlockMap blocks;
    for (const auto& [tuple, key] : builder.KeysForWorld(world, rel)) {
      blocks[key].push_back(tuple);
    }
    std::vector<CandidatePair> pairs = PairsFromBlocks(blocks);
    all.insert(all.end(), pairs.begin(), pairs.end());
  }
  SortAndDedupPairs(&all);
  return all;
}

Result<std::unique_ptr<PairBatchSource>> BlockingMultipassWorlds::Stream(
    const XRelation& rel) const {
  std::vector<World> worlds = SelectWorlds(rel, selection_);
  if (worlds.empty()) {
    return Status::FailedPrecondition(
        "no all-present world exists for relation '" + rel.name() + "'");
  }
  KeyBuilder builder(spec_, &rel.schema());
  std::vector<std::vector<size_t>> groups;
  for (const World& world : worlds) {
    BlockMap blocks;
    for (const auto& [tuple, key] : builder.KeysForWorld(world, rel)) {
      blocks[key].push_back(tuple);
    }
    std::vector<std::vector<size_t>> world_groups = BlockGroups(blocks);
    groups.insert(groups.end(),
                  std::make_move_iterator(world_groups.begin()),
                  std::make_move_iterator(world_groups.end()));
  }
  return std::unique_ptr<PairBatchSource>(
      std::make_unique<BlockPairSource>(std::move(groups), rel.size(),
                                        /*min_shared=*/1));
}

}  // namespace pdd
