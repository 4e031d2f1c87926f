// IngestStream: the push-based CandidateStream of the standing ingest
// service. Producers push tuples into the bounded IngestQueue; the
// executor's drain loop pulls candidate batches as usual. Each
// NextBatch first emits the pending crossing pairs of already-admitted
// tuples, then admits whatever the queue holds (schema validation,
// id dedup, the plan's preparation step) into the standing relation and
// continues emitting; when it has nothing, the executor blocks in
// AwaitMore() on the queue until producers deliver or close. Candidate
// generation is the generalized incremental crossing filter: tuple j
// (j >= base, the seeded prefix) yields (0,j), (1,j), …, (j-1,j) — the
// full crossing set against the standing relation, emitted lazily with
// an O(1) cursor, never materialized.
//
// Concurrency contract: NextBatch/Pump calls are serialized by the
// executor's drain mutex (or a single caller); the standing relation's
// storage is Reserve()d up front so concurrent READERS of
// already-published tuples (executor workers deciding earlier batches)
// never see a reallocation, and every pair referencing tuple j is
// published only after j's append under the same locks. The stream's
// RelationArena keeps the same contract through generations: an
// admitted tuple is appended in place while every column has room,
// else RelationArena::Append returns a new generation (a copy with
// doubled capacity) that the stream publishes through set_arena().
// Workers copy arena() under the drain mutex right after each pull and
// hold that generation while they decide the batch, so an older
// generation lives as long as some worker still holds it and no
// storage ever moves under a reader. SnapshotRaw() may be called from
// any thread (pddserve's maintenance thread).
//
// The live pair order depends on arrival order, so the drain's record
// order does too: the deterministic byte-identical report is produced
// by StandingSession::Finish(), which streams the canonical relation
// through the batch path and takes each drained pair's decision from
// the live records, found by the pair's place in this cursor order.

#ifndef PDD_INGEST_INGEST_STREAM_H_
#define PDD_INGEST_INGEST_STREAM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ingest/ingest_queue.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"

namespace pdd {

class IngestStream : public CandidateStream {
 public:
  struct Options {
    /// Bounded queue capacity (the backpressure point).
    size_t queue_capacity = 256;
    /// Hard bound on tuples admitted into the standing relation (on
    /// top of the seed); the relation reserves this up front and
    /// arrivals beyond it are rejected with a counted drop.
    size_t max_admitted = 1 << 20;
  };

  /// Admission accounting past the queue (folded into exec.ingest.*).
  struct AdmissionStats {
    uint64_t admitted = 0;
    uint64_t duplicate_ids = 0;
    uint64_t invalid = 0;
    /// Beyond max_admitted, or beyond the arena's 32-bit columns.
    uint64_t rejected_capacity = 0;
  };

  /// `seed` (optional, copied) is the already-deduplicated standing
  /// prefix: crossing pairs are only emitted for arrivals, exactly like
  /// the incremental scenario. The seed is prepared per the plan, and
  /// arriving tuples are prepared the same way at admission, so live
  /// decisions match what the batch path would decide. The arena is
  /// built over the prepared seed here (OutOfRange on overflow).
  static Result<std::unique_ptr<IngestStream>> Make(
      std::shared_ptr<const DetectionPlan> plan, const XRelation* seed,
      Options options);

  IngestStream(const IngestStream&) = delete;
  IngestStream& operator=(const IngestStream&) = delete;

  // CandidateStream:
  const XRelation& relation() const override { return standing_; }
  size_t NextBatch(size_t max_batch, std::vector<CandidatePair>* out) override;
  bool AwaitMore() override { return queue_.AwaitNonEmpty(); }
  size_t tuple_capacity() const override { return base_ + max_admitted_; }
  /// Pairs are generated lazily from the cursor: nothing buffered.
  size_t buffered_candidates() const override { return 0; }
  /// Grows as tuples are admitted: base*m + m(m-1)/2 crossing pairs
  /// for m admitted tuples (the executor re-reads after the drain).
  size_t total_pairs() const override;
  std::string name() const override { return "ingest"; }

  /// The producers' handle.
  IngestQueue& queue() { return queue_; }
  const IngestQueue& queue() const { return queue_; }

  /// Admits everything currently queued without emitting pairs. The
  /// finish paths use this after Close() so tuples that were never
  /// live-drained still reach the standing relation. Must not run
  /// concurrently with an active drain.
  size_t Pump();

  /// Number of seeded tuples (admitted arrivals start at this index).
  size_t base() const { return base_; }

  /// Thread-safe copy of the RAW standing relation (seed + admitted,
  /// arrival order, before preparation) — what the canonical finish
  /// run and `pddserve --dump-relation` serialize.
  XRelation SnapshotRaw() const;

  /// The producer stamp recorded when standing tuple `index` was
  /// admitted (0 for seeded tuples). Only call for indices already
  /// published through a candidate pair.
  uint64_t admitted_stamp(size_t index) const {
    return index < base_ ? 0 : stamps_[index - base_];
  }

  AdmissionStats admission_stats() const;

 private:
  IngestStream(std::shared_ptr<const DetectionPlan> plan, XRelation raw,
               XRelation standing, std::shared_ptr<RelationArena> arena,
               Options options);

  /// Validates, dedups, prepares and appends items (to the relations
  /// and the arena); returns the number admitted. Serialized with the
  /// cursor by mu_.
  size_t Admit(std::vector<IngestItem>* items);

  std::shared_ptr<const DetectionPlan> plan_;
  const size_t max_admitted_;
  IngestQueue queue_;

  mutable std::mutex mu_;
  /// Raw arrivals (seed + admitted, unprepared) — the canonical-run
  /// input. Reserved; append-only under mu_.
  XRelation raw_;
  /// The prepared standing relation candidate indices refer to.
  /// Reserved; append-only under mu_; elements readable lock-free once
  /// published through a pair.
  XRelation standing_;
  /// The current arena generation over standing_ — the one arena()
  /// publishes, held writable for appends under mu_.
  std::shared_ptr<RelationArena> generation_;
  size_t base_ = 0;
  /// Ids standing so far (membership only — never iterated).
  std::set<std::string> seen_ids_;
  /// Producer stamps per admitted index; reserved like the relations.
  std::vector<uint64_t> stamps_;
  /// Crossing-pair cursor: next pair to emit is (next_first_,
  /// next_second_); pairs advance first-minor within each second.
  size_t next_first_ = 0;
  size_t next_second_ = 0;
  AdmissionStats stats_;
};

}  // namespace pdd

#endif  // PDD_INGEST_INGEST_STREAM_H_
