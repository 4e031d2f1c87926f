#include "pipeline/sharded_stream.h"

#include <algorithm>
#include <utility>

#include "keys/key_builder.h"

namespace pdd {

ShardStrategy ResolveShardStrategy(ShardStrategy requested,
                                   ReductionMethod method) {
  if (requested != ShardStrategy::kAuto) return requested;
  switch (method) {
    case ReductionMethod::kSnmMultipassWorlds:
    case ReductionMethod::kSnmCertainKeys:
    case ReductionMethod::kSnmSortingAlternatives:
    case ReductionMethod::kSnmUncertainRanking:
    case ReductionMethod::kSnmAdaptive:
      return ShardStrategy::kKeyRange;
    case ReductionMethod::kBlockingCertainKeys:
    case ReductionMethod::kBlockingAlternatives:
    case ReductionMethod::kBlockingMultipassWorlds:
    case ReductionMethod::kBlockingClustered:
      return ShardStrategy::kBlockSubset;
    case ReductionMethod::kFull:
    case ReductionMethod::kCanopy:
    case ReductionMethod::kQGramIndex:
      return ShardStrategy::kIndexRange;
  }
  return ShardStrategy::kIndexRange;
}

namespace {

/// The assignment of one (prepared) relation under a resolved strategy.
/// Key-based strategies group by the plan's certain key — the same key
/// the SNM/blocking families sort and block by — so shard boundaries
/// follow the reduction's own locality. The assignment only balances
/// load; correctness never depends on it (ownership filtering does).
ShardAssignment BuildAssignment(const DetectionPlan& plan,
                                const XRelation& rel,
                                ShardStrategy strategy, uint32_t shards) {
  if (strategy == ShardStrategy::kIndexRange) {
    return AssignIndexRanges(rel.size(), shards);
  }
  KeyBuilder builder(plan.key_spec(), &rel.schema());
  std::vector<std::string> keys;
  keys.reserve(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    keys.push_back(
        builder.CertainKey(rel.xtuple(i), plan.config().conflict_strategy));
  }
  return strategy == ShardStrategy::kKeyRange
             ? AssignKeyRanges(keys, shards)
             : AssignBlockSubsets(keys, shards);
}

}  // namespace

ShardedCandidateStream::ShardedCandidateStream(
    std::string name, std::optional<XRelation> owned,
    const XRelation* borrowed, std::unique_ptr<PairGenerator> generator,
    size_t total_pairs, size_t min_second,
    std::shared_ptr<const ShardAssignment> assignment)
    : name_(std::move(name)),
      owned_(std::move(owned)),
      rel_(owned_.has_value() ? &*owned_ : borrowed),
      generator_(std::move(generator)),
      total_pairs_(total_pairs),
      min_second_(min_second),
      assignment_(std::move(assignment)),
      shards_(assignment_->shard_count) {}

Status ShardedCandidateStream::OpenShard(size_t index) {
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<PairBatchSource> source,
                       generator_->Stream(*rel_));
  uint32_t shard = static_cast<uint32_t>(index);
  if (!source->RestrictToShard(assignment_, shard)) {
    // Custom sources that cannot restrict themselves are filtered from
    // outside: same pairs, unrestricted memory footprint.
    std::shared_ptr<const ShardAssignment> assignment = assignment_;
    source = std::make_unique<FilteringPairSource>(
        std::move(source),
        [assignment, shard](const CandidatePair& pair) {
          return assignment->Owns(pair.first, shard);
        });
  }
  if (min_second_ > 0) {
    size_t min_second = min_second_;
    source = std::make_unique<FilteringPairSource>(
        std::move(source), [min_second](const CandidatePair& pair) {
          return pair.second >= min_second;
        });
  }
  Shard& s = shards_[index];
  s.source = std::move(source);
  s.exhausted = false;
  s.pending.clear();
  s.cursor = 0;
  return Status::OK();
}

Result<std::unique_ptr<ShardedCandidateStream>> ShardedCandidateStream::Make(
    std::string name, std::optional<XRelation> owned,
    const XRelation* borrowed, const DetectionPlan& plan, size_t total_pairs,
    size_t min_second, const ShardOptions& options) {
  const XRelation& rel = owned.has_value() ? *owned : *borrowed;
  ShardStrategy strategy =
      ResolveShardStrategy(options.strategy, plan.config().reduction);
  uint32_t shards =
      static_cast<uint32_t>(options.count == 0 ? 1 : options.count);
  auto assignment = std::make_shared<ShardAssignment>(
      BuildAssignment(plan, rel, strategy, shards));
  std::unique_ptr<ShardedCandidateStream> stream(new ShardedCandidateStream(
      std::move(name), std::move(owned), borrowed, plan.MakePairGenerator(),
      total_pairs, min_second, std::move(assignment)));
  for (size_t i = 0; i < stream->shard_count(); ++i) {
    PDD_RETURN_IF_ERROR(stream->OpenShard(i));
  }
  return stream;
}

size_t ShardedCandidateStream::ShardNextBatch(size_t shard, size_t max_batch,
                                              std::vector<CandidatePair>* out) {
  Shard& s = shards_[shard];
  // The merge lookahead holds pairs already pulled off the source but
  // not yet emitted; they are the front of this shard's remaining
  // sequence, so the executor's per-shard drain taking over from a
  // partial merged drain must serve them first — never skip them.
  if (s.cursor < s.pending.size()) {
    out->clear();
    size_t count = std::min(max_batch, s.pending.size() - s.cursor);
    out->insert(out->end(), s.pending.begin() + s.cursor,
                s.pending.begin() + s.cursor + count);
    s.cursor += count;
    if (s.cursor == s.pending.size()) {
      s.pending.clear();
      s.cursor = 0;
    }
    ++s.stats.batches;
    size_t live = count + (s.pending.size() - s.cursor) +
                  (s.source == nullptr ? 0 : s.source->buffered_candidates());
    s.stats.live_candidate_high_water =
        std::max(s.stats.live_candidate_high_water, live);
    return count;
  }
  if (s.source == nullptr) {
    out->clear();
    return 0;
  }
  size_t pulled = s.source->NextBatch(max_batch, out);
  if (pulled == 0) {
    s.exhausted = true;
    return 0;
  }
  ++s.stats.batches;
  size_t live = pulled + s.source->buffered_candidates();
  s.stats.live_candidate_high_water =
      std::max(s.stats.live_candidate_high_water, live);
  return pulled;
}

size_t ShardedCandidateStream::ShardBufferedCandidates(size_t shard) const {
  const Shard& s = shards_[shard];
  size_t buffered = s.pending.size() - s.cursor;
  if (s.source != nullptr) buffered += s.source->buffered_candidates();
  return buffered;
}

size_t ShardedCandidateStream::NextBatch(size_t max_batch,
                                         std::vector<CandidatePair>* out) {
  out->clear();
  std::vector<CandidatePair> batch;
  while (out->size() < max_batch) {
    // Refill every empty, non-exhausted lookahead.
    for (Shard& s : shards_) {
      if (s.cursor < s.pending.size() || s.exhausted) continue;
      size_t index = static_cast<size_t>(&s - shards_.data());
      if (ShardNextBatch(index, max_batch, &batch) > 0) {
        s.pending = std::move(batch);
        batch = std::vector<CandidatePair>();
        s.cursor = 0;
      }
    }
    // Emit the smallest front pair; ties (impossible across a true
    // partition, but the rule is fixed anyway) go to the lowest shard.
    Shard* best = nullptr;
    for (Shard& s : shards_) {
      if (s.cursor >= s.pending.size()) continue;
      if (best == nullptr ||
          s.pending[s.cursor] < best->pending[best->cursor]) {
        best = &s;
      }
    }
    if (best == nullptr) break;  // all shards exhausted
    out->push_back(best->pending[best->cursor++]);
    if (best->cursor == best->pending.size()) {
      best->pending.clear();
      best->cursor = 0;
    }
  }
  return out->size();
}

void ShardedCandidateStream::Reset() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Fail closed on a re-open failure, like GeneratorCandidateStream:
    // no source, no leftover lookahead from the aborted drain — the
    // shard reads as exhausted, not as a partial replay.
    if (!OpenShard(i).ok()) {
      shards_[i].source = nullptr;
      shards_[i].exhausted = true;
      shards_[i].pending.clear();
      shards_[i].cursor = 0;
    }
    // Zero the drain accounting: stats must describe one drain, not the
    // concatenation of every drain since construction (re-opened runs
    // would otherwise double-count in ExecutionStatsReport).
    shards_[i].stats = StreamRunStats{};
  }
}

std::optional<size_t> ShardedCandidateStream::candidate_count_hint() const {
  size_t total = 0;
  for (const Shard& s : shards_) {
    if (s.source == nullptr) return std::nullopt;
    std::optional<size_t> hint = s.source->exact_count_hint();
    if (!hint.has_value()) return std::nullopt;
    total += *hint;
  }
  return total;
}

size_t ShardedCandidateStream::buffered_candidates() const {
  size_t total = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    total += ShardBufferedCandidates(i);
  }
  return total;
}

std::vector<StreamRunStats> ShardedCandidateStream::shard_stats() const {
  std::vector<StreamRunStats> stats;
  stats.reserve(shards_.size());
  for (const Shard& s : shards_) stats.push_back(s.stats);
  return stats;
}

}  // namespace pdd
