// Sharded candidate streams: the candidate universe of one detection
// scenario partitioned into N per-shard PairBatchSources whose merged
// output is bit-identical to the unsharded stream. A shard owns the
// canonical pairs whose first index its ShardAssignment maps to it
// (reduction/shard_partitioner.h), so each shard's stream is a sorted
// subsequence of the canonical order and the k-way merge — ascending
// (first, second), stable tie-break by shard index — reconstructs the
// unsharded sequence exactly. This is the enabling layer for the
// multi-node backend: a shard's source is self-contained (its own
// re-opened generator stream, restricted natively), its live-candidate
// bound is its own, and its decisions merge deterministically.
// Self-containment is a deliberate trade-off: every shard builds its
// own generator stream over the whole relation, so an in-process
// N-shard run pays N× the stream-construction work and index memory
// (sorted entries, block partitions; adapter-backed reductions even
// materialize transiently per shard before the restriction trims the
// vector). Live-candidate residency — what the executor accounts and
// bench_s15_sharding gates — stays ~1/N per shard regardless; sharing
// one immutable index across in-process shards is a possible later
// optimization, but multi-node placement needs the self-contained form
// anyway.
//
// The scenario factories (MakeFullStream and its siblings in
// candidate_stream.h) build this stream when their ShardOptions ask
// for more than one shard. It is read two ways:
//
//   * NextBatch: the built-in merge, for any consumer that wants the
//     canonical sequence — RunStream pre-drains, replay, tests.
//   * ShardNextBatch: what the StageExecutor's drain pulls. Each shard
//     is drained under its own mutex and the per-shard decision
//     records are merged by the same rule. Calls for one shard must be
//     externally serialized; different shards may pull concurrently.
//
// Both pull through ShardNextBatch, so per-shard pull accounting
// accumulates internally either way (shard_stats()); Reset() zeroes it.

#ifndef PDD_PIPELINE_SHARDED_STREAM_H_
#define PDD_PIPELINE_SHARDED_STREAM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pipeline/candidate_stream.h"
#include "pipeline/detection_result.h"
#include "reduction/shard_partitioner.h"

namespace pdd {

/// Resolves kAuto against a reduction method: index_range for
/// full/adapter-backed reductions, key_range for the SNM family,
/// block_subset for the blocking family. Non-auto strategies pass
/// through.
ShardStrategy ResolveShardStrategy(ShardStrategy requested,
                                   ReductionMethod method);

class ShardedCandidateStream : public CandidateStream {
 public:
  /// Builds the sharded stream: resolves the strategy, computes the
  /// ShardAssignment over the (prepared) relation and opens every
  /// shard's source. `borrowed` must outlive the stream unless `owned`
  /// carries the relation; `min_second` > 0 applies the incremental
  /// crossing filter per shard.
  static Result<std::unique_ptr<ShardedCandidateStream>> Make(
      std::string name, std::optional<XRelation> owned,
      const XRelation* borrowed, const DetectionPlan& plan,
      size_t total_pairs, size_t min_second, const ShardOptions& options);

  ShardedCandidateStream(const ShardedCandidateStream&) = delete;
  ShardedCandidateStream& operator=(const ShardedCandidateStream&) = delete;

  // --- CandidateStream (merged canonical sequence) -------------------

  const XRelation& relation() const override { return *rel_; }
  /// K-way merge of the shard sources: ascending (first, second),
  /// stable tie-break by shard index — bit-identical to the unsharded
  /// stream of the same plan and scenario.
  size_t NextBatch(size_t max_batch, std::vector<CandidatePair>* out) override;
  /// Re-opens every shard source, clears the merge buffers and ZEROES
  /// the per-shard drain accounting — a re-drained stream reports the
  /// stats of the re-drain only, never carry-over from the first pass.
  void Reset() override;
  /// Sum of the shard sources' exact counts when every shard knows one
  /// (adapter-backed reductions, post-restriction); nullopt otherwise.
  std::optional<size_t> candidate_count_hint() const override;
  /// Pairs live across all shard sources plus the merge lookahead.
  size_t buffered_candidates() const override;
  size_t total_pairs() const override { return total_pairs_; }
  std::string name() const override { return name_; }

  // --- per-shard drain (StageExecutor) ------------------------------

  size_t shard_count() const { return shards_.size(); }
  ShardStrategy strategy() const { return assignment_->strategy; }
  const ShardAssignment& assignment() const { return *assignment_; }

  /// Pulls the next batch of `shard`'s own candidate sequence and
  /// tracks that shard's drain accounting. Calls for one shard must be
  /// serialized by the caller; different shards are independent.
  size_t ShardNextBatch(size_t shard, size_t max_batch,
                        std::vector<CandidatePair>* out);

  /// Pairs currently live inside `shard` (its source's buffers plus its
  /// merge lookahead, which is empty under a per-shard drain).
  size_t ShardBufferedCandidates(size_t shard) const;

  /// Per-shard drain accounting accumulated by ShardNextBatch (and
  /// therefore also by the merged NextBatch, which pulls through it).
  /// Zeroed by Reset().
  std::vector<StreamRunStats> shard_stats() const;

 private:
  struct Shard {
    std::unique_ptr<PairBatchSource> source;  // null after failed re-open
    bool exhausted = false;
    /// Merge lookahead: pairs pulled but not yet emitted downstream.
    std::vector<CandidatePair> pending;
    size_t cursor = 0;
    StreamRunStats stats;
  };

  ShardedCandidateStream(std::string name, std::optional<XRelation> owned,
                         const XRelation* borrowed,
                         std::unique_ptr<PairGenerator> generator,
                         size_t total_pairs, size_t min_second,
                         std::shared_ptr<const ShardAssignment> assignment);

  /// (Re-)opens shard `index`'s source: a fresh generator stream,
  /// restricted to the shard natively (or through an owner filter when
  /// the source cannot restrict itself), then the crossing filter.
  Status OpenShard(size_t index);

  std::string name_;
  std::optional<XRelation> owned_;
  const XRelation* rel_;
  std::unique_ptr<PairGenerator> generator_;
  size_t total_pairs_ = 0;
  size_t min_second_ = 0;
  std::shared_ptr<const ShardAssignment> assignment_;
  // Last member: shard sources borrow rel_ and generator_.
  std::vector<Shard> shards_;
};

}  // namespace pdd

#endif  // PDD_PIPELINE_SHARDED_STREAM_H_
