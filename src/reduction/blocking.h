// Blocking (Section V-B): tuples are partitioned by a blocking key and
// only tuples within one block are compared. This file provides the
// certain-key variant (conflict resolution) and the multi-pass-over-
// worlds variant; see blocking_alternatives.h and blocking_clustered.h
// for the other adaptations.

#ifndef PDD_REDUCTION_BLOCKING_H_
#define PDD_REDUCTION_BLOCKING_H_

#include <map>

#include "keys/key_builder.h"
#include "pdb/world_selection.h"
#include "reduction/pair_generator.h"

namespace pdd {

/// Blocks keyed by block key value, each holding tuple indices.
using BlockMap = std::map<std::string, std::vector<size_t>>;

/// All within-block pairs of a block map (the comparisons blocking
/// performs), deduplicated.
std::vector<CandidatePair> PairsFromBlocks(const BlockMap& blocks);

/// The streaming source every block-shaped reduction shares: pairs of
/// tuples that share at least `min_shared` blocks (tuples may belong to
/// several blocks — one per pass/world/alternative, overlapping
/// canopies, q-gram posting lists), emitted per ascending first index
/// with per-first dedup. The blocking family passes 1. Memory is the
/// blocks themselves, O(total memberships), never the O(Σ blocksize²)
/// pair set.
class BlockPairSource : public PerFirstPairSource {
 public:
  /// `blocks` are tuple-index groups, each holding a tuple at most
  /// once; `tuple_count` bounds the indices; `min_shared` >= 1.
  BlockPairSource(std::vector<std::vector<size_t>> blocks,
                  size_t tuple_count, size_t min_shared);

 protected:
  void AppendPartners(size_t first, std::vector<size_t>* out) override;

 private:
  std::vector<std::vector<size_t>> blocks_;
  /// Per tuple: the blocks containing it.
  std::vector<std::vector<size_t>> memberships_;
  size_t min_shared_;
};

/// Flattens a BlockMap into the block groups BlockPairSource takes.
std::vector<std::vector<size_t>> BlockGroups(const BlockMap& blocks);

/// Certain-key blocking: one block key per tuple via conflict resolution.
class BlockingCertainKeys : public PairGenerator {
 public:
  BlockingCertainKeys(KeySpec spec,
                      ConflictStrategy strategy =
                          ConflictStrategy::kMostProbable)
      : spec_(std::move(spec)), strategy_(strategy) {}

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// Native streaming over the block partition (per-block dedup, live
  /// candidates bounded by one tuple's block).
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "blocking_certain_keys"; }

  /// The block partition (exposed for inspection and tests).
  BlockMap Blocks(const XRelation& rel) const;

 private:
  KeySpec spec_;
  ConflictStrategy strategy_;
};

/// Multi-pass blocking over selected possible worlds: one blocking pass
/// per world (certain keys within each world), candidate sets unioned.
class BlockingMultipassWorlds : public PairGenerator {
 public:
  BlockingMultipassWorlds(KeySpec spec, WorldSelectionOptions selection)
      : spec_(std::move(spec)), selection_(selection) {
    selection_.all_present_only = true;
  }

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// Native streaming: every world's blocks join one partition; the
  /// per-first dedup replaces the materialized union.
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "blocking_multipass_worlds"; }

 private:
  KeySpec spec_;
  WorldSelectionOptions selection_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_BLOCKING_H_
