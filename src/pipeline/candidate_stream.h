// CandidateStream: one interface over the three candidate pair sources
// of the detector — a full run on one relation, a cross-source union
// (Section I's integration scenario) and an incremental run that only
// examines pairs touching newly added tuples. A stream owns whatever
// derived relation the scenario needs (the prepared copy, the union)
// and yields candidates in a deterministic order in bounded batches,
// so the StageExecutor can drain it serially or feed a thread pool
// without knowing which scenario produced the pairs.
//
// The default streams PULL from the reduction method's PairBatchSource
// instead of swallowing a materialized vector: every reduction keeps
// only O(window)/O(block) live candidate pairs end to end. The
// concatenation of all batches is the reduction's canonical candidate
// order, independent of batch size, so serial, pooled, cached and
// uncached runs stay bit-identical with the materialized path.

#ifndef PDD_PIPELINE_CANDIDATE_STREAM_H_
#define PDD_PIPELINE_CANDIDATE_STREAM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "columnar/relation_arena.h"
#include "pdb/xrelation.h"
#include "pipeline/detection_plan.h"
#include "reduction/pair_generator.h"
#include "util/status.h"

namespace pdd {

class CandidateStream {
 public:
  virtual ~CandidateStream() = default;

  /// The RelationArena every pair of this stream decides over, shared
  /// by every executor worker. The executor builds it over relation()
  /// when the stream has none and leaves it attached; set_arena hands
  /// it to another stream over the same relation. A standing stream
  /// publishes a new generation as it grows; the executor reads this
  /// under the drain mutex right after each pull.
  const std::shared_ptr<const RelationArena>& arena() const { return arena_; }

  /// Attaches the arena; it must describe relation() (the executor
  /// fails a run whose arena holds a different tuple count).
  void set_arena(std::shared_ptr<const RelationArena> arena) {
    arena_ = std::move(arena);
  }

  /// The relation candidate indices refer to (after union/preparation).
  virtual const XRelation& relation() const = 0;

  /// Appends up to `max_batch` candidates to `*out` (which is cleared
  /// first) and returns the number appended; 0 means exhausted. The
  /// concatenation of all batches is the stream's deterministic
  /// candidate order, independent of `max_batch`. A stream drains
  /// once; a re-run opens a new stream.
  virtual size_t NextBatch(size_t max_batch,
                           std::vector<CandidatePair>* out) = 0;

  /// Called by the executor when NextBatch returned 0: distinguishes a
  /// source that is *exhausted* (return false — the drain ends, as for
  /// every finite batch stream) from one that is *idle but open* (block
  /// until more candidates can arrive, then return true to resume
  /// pulling). A push-based stream (src/ingest) blocks here on its
  /// ingest queue; finite streams keep the default.
  virtual bool AwaitMore() { return false; }

  /// Upper bound on relation() growth over the drain. Finite streams
  /// never grow (the default); a standing stream reports its reserved
  /// maximum, which the executor checks against the 32-bit record
  /// index space before the drain starts.
  virtual size_t tuple_capacity() const { return relation().size(); }

  /// Exact candidate count when known without draining (materialized
  /// streams, the full reduction); nullopt for the other pull-based
  /// streams, whose count is only known once drained. A reservation
  /// hint, never control flow.
  virtual std::optional<size_t> candidate_count_hint() const {
    return std::nullopt;
  }

  /// Candidate pairs currently materialized inside the stream (the
  /// caller's batch vector excluded). A materialized stream reports its
  /// full vector — the O(candidates) buffer the streaming path avoids;
  /// pull-based streams report the source's small live buffer. Feeds
  /// the executor's live-candidate high-water accounting.
  virtual size_t buffered_candidates() const { return 0; }

  /// The scenario's pair universe (the denominator of verification
  /// metrics): n(n-1)/2 for full/union runs, only the addition-crossing
  /// pairs for incremental runs.
  virtual size_t total_pairs() const = 0;

  /// Scenario name for reports ("full", "union", "incremental").
  virtual std::string name() const = 0;

 private:
  std::shared_ptr<const RelationArena> arena_;
};

/// A materialized candidate vector over a borrowed or owned relation.
/// No longer on the default path (the factories below stream); kept for
/// custom RunStream seams and as the contrast case benchmarks measure
/// the streaming path against.
class MaterializedCandidateStream : public CandidateStream {
 public:
  /// Borrows `rel` (must outlive the stream) unless `owned` carries the
  /// scenario's derived relation, in which case `rel` points into it.
  MaterializedCandidateStream(std::string name,
                              std::optional<XRelation> owned,
                              const XRelation* rel,
                              std::vector<CandidatePair> candidates,
                              size_t total_pairs)
      : name_(std::move(name)),
        owned_(std::move(owned)),
        rel_(owned_.has_value() ? &*owned_ : rel),
        candidates_(std::move(candidates)),
        total_pairs_(total_pairs) {}

  // rel_ may point into owned_, so a defaulted copy/move would leave it
  // dangling into the source object.
  MaterializedCandidateStream(const MaterializedCandidateStream&) = delete;
  MaterializedCandidateStream& operator=(const MaterializedCandidateStream&) =
      delete;

  const XRelation& relation() const override { return *rel_; }
  size_t NextBatch(size_t max_batch,
                   std::vector<CandidatePair>* out) override;
  std::optional<size_t> candidate_count_hint() const override {
    return candidates_.size();
  }
  size_t buffered_candidates() const override { return candidates_.size(); }
  size_t total_pairs() const override { return total_pairs_; }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  std::optional<XRelation> owned_;
  const XRelation* rel_;
  std::vector<CandidatePair> candidates_;
  size_t total_pairs_ = 0;
  size_t next_ = 0;
};

/// The default stream: owns the scenario's relation (and/or borrows the
/// caller's), owns the plan's pair generator, and pulls batches from
/// the generator's PairBatchSource. An incremental scenario additionally
/// restricts to crossing pairs (second endpoint in the additions) as
/// the batches flow past — no scenario ever re-materializes.
class GeneratorCandidateStream : public CandidateStream {
 public:
  /// Builds the stream and opens the source once (errors surface here,
  /// not from NextBatch). `borrowed` must outlive the stream unless
  /// `owned` carries the relation. `min_second` > 0 keeps only pairs
  /// whose second endpoint is >= it (the incremental crossing filter).
  static Result<std::unique_ptr<CandidateStream>> Make(
      std::string name, std::optional<XRelation> owned,
      const XRelation* borrowed, std::unique_ptr<PairGenerator> generator,
      size_t total_pairs, size_t min_second = 0);

  GeneratorCandidateStream(const GeneratorCandidateStream&) = delete;
  GeneratorCandidateStream& operator=(const GeneratorCandidateStream&) =
      delete;

  const XRelation& relation() const override { return *rel_; }
  size_t NextBatch(size_t max_batch,
                   std::vector<CandidatePair>* out) override {
    return source_->NextBatch(max_batch, out);
  }
  /// Forwards the source's exact count when it knows one (the full
  /// reduction), preserving the executor's decisions reserve.
  std::optional<size_t> candidate_count_hint() const override {
    return source_->exact_count_hint();
  }
  size_t buffered_candidates() const override {
    return source_->buffered_candidates();
  }
  size_t total_pairs() const override { return total_pairs_; }
  std::string name() const override { return name_; }

 private:
  GeneratorCandidateStream(std::string name, std::optional<XRelation> owned,
                           const XRelation* borrowed,
                           std::unique_ptr<PairGenerator> generator,
                           size_t total_pairs);

  std::string name_;
  std::optional<XRelation> owned_;
  const XRelation* rel_;
  std::unique_ptr<PairGenerator> generator_;
  size_t total_pairs_ = 0;
  // Last member: the source borrows rel_ and generator_, so it must be
  // destroyed first.
  std::unique_ptr<PairBatchSource> source_;
};

// The scenario factories. Each builds a GeneratorCandidateStream over
// the scenario's (prepared) relation.

/// Full run on one relation: applies the plan's preparation step, then
/// streams the plan's reduction method. `rel` must outlive the stream
/// unless preparation produced an owned copy.
Result<std::unique_ptr<CandidateStream>> MakeFullStream(
    const DetectionPlan& plan, const XRelation& rel);

/// Cross-source union: R = a ∪ b (ids must be unique across sources),
/// then behaves like the full stream over the owned union.
Result<std::unique_ptr<CandidateStream>> MakeUnionStream(
    const DetectionPlan& plan, const XRelation& a, const XRelation& b);

/// Incremental run: candidates of existing ∪ additions restricted to
/// pairs with at least one endpoint in `additions` (intra-existing
/// pairs were already decided). total_pairs() covers only the
/// incremental pair universe.
Result<std::unique_ptr<CandidateStream>> MakeIncrementalStream(
    const DetectionPlan& plan, const XRelation& existing,
    const XRelation& additions);

}  // namespace pdd

#endif  // PDD_PIPELINE_CANDIDATE_STREAM_H_
