// StandingSession: wires the push-based ingest path (IngestQueue →
// IngestStream) to the shared StageExecutor and owns the service
// lifecycle a standing consumer (pddserve) needs:
//
//   * Drain() — the live loop: decides every crossing pair of every
//     admitted tuple through the executor's one decide path (cache →
//     match → combine → derive → classify, over the stream's growing
//     RelationArena), streaming records through the configured
//     decision sink until the queue closes. Live record order depends
//     on arrival order by construction. The session keeps each
//     record's similarity and class for Finish().
//   * Finish() — THE deterministic report: the canonical (id-sorted)
//     raw relation streamed through the plan's reduction by the
//     ordinary batch path. Every candidate the live drain decided —
//     for an unseeded, fully drained session all of them, whatever the
//     reduction, since the drain decided the full crossing set — takes
//     its live record's similarity and class, which hold the bits the
//     batch path would compute (every path decides in content-digest
//     orientation). Only pairs no drain decided (seed × seed, tuples
//     Pump()ed at close) go through cache → match. The report is
//     byte-identical to a one-shot batch run of the same tuple set —
//     for ANY arrival order, and for serial and pooled finish drains
//     alike.
//
// One session = one standing run. The decision cache (and its disk
// snapshots) carries warmth across sessions and process restarts.

#ifndef PDD_INGEST_STANDING_SESSION_H_
#define PDD_INGEST_STANDING_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/decision_cache.h"
#include "ingest/ingest_stream.h"
#include "obs/metrics_registry.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_result.h"
#include "pipeline/stage_executor.h"

namespace pdd {

class StandingSession {
 public:
  struct Options {
    IngestStream::Options stream;
    /// Executor shape of the live drain (Finish runs share
    /// batch_size/workers).
    size_t batch_size = 256;
    size_t workers = 0;
    /// Ignored, deleted by the next benchmark change (the repository
    /// benchmark still sets it): every run clocks its batches.
    bool stage_timings = false;
    /// Shared decision store: what makes crash-restart warm-up
    /// possible (a restarted drain re-serves replayed arrivals from
    /// hits). Finish() consults it only for pairs no drain decided.
    /// Null runs uncached — same bytes.
    std::shared_ptr<ShardedDecisionCache> cache;
    /// Receives each live decision as it commits (see
    /// StageExecutorOptions::decision_sink for the ordering contract).
    std::function<void(const PairDecisionRecord&)> decision_sink;
  };

  static Result<std::unique_ptr<StandingSession>> Make(
      std::shared_ptr<const DetectionPlan> plan, const XRelation* seed,
      Options options);

  StandingSession(const StandingSession&) = delete;
  StandingSession& operator=(const StandingSession&) = delete;

  /// The producers' handle (thread-safe).
  IngestQueue& queue() { return stream_->queue(); }
  IngestStream& stream() { return *stream_; }
  const IngestStream& stream() const { return *stream_; }
  const std::shared_ptr<const DetectionPlan>& plan() const { return plan_; }
  const std::shared_ptr<ShardedDecisionCache>& cache() const {
    return options_.cache;
  }

  /// Runs the live drain on the calling thread until the queue is
  /// closed and every admitted pair is decided, and keeps each record's
  /// similarity and class for Finish(). Records commit in pull order,
  /// so the record of standing pair (a, b), a < b, sits at
  /// T(b) − T(base) + a with T(k) = k(k−1)/2; a record out of that
  /// place is Internal. Call once.
  Result<DetectionResult> Drain();

  /// Seed + admitted raw tuples, sorted by tuple id — the arrival-
  /// order-independent input of the deterministic finish run (ids are
  /// unique by admission dedup, so the order is total).
  XRelation CanonicalRelation();

  /// The deterministic final report (see file comment). Pumps any
  /// still-queued tuples first; call after Close()+Drain(). Drops the
  /// kept live decisions before it returns, so a second call decides
  /// every pair again (same bytes).
  Result<DetectionResult> Finish();

  /// Folds the queue + admission accounting into the exec.ingest.*
  /// metric family.
  void AddIngestStats(MetricsRegistry* metrics) const;

 private:
  StandingSession(std::shared_ptr<const DetectionPlan> plan,
                  std::unique_ptr<IngestStream> stream, Options options)
      : plan_(std::move(plan)),
        stream_(std::move(stream)),
        options_(std::move(options)) {}

  StageExecutorOptions ExecutorOptions(bool live) const;

  std::shared_ptr<const DetectionPlan> plan_;
  std::unique_ptr<IngestStream> stream_;
  Options options_;
  /// The drained decisions in pull order, positions [0, size), until
  /// Finish() takes them. A position implies its pair, so only the
  /// similarity and class are kept: 9 bytes a pair where a record
  /// takes 24.
  struct LiveDecisions {
    std::vector<double> similarity;
    std::vector<uint8_t> match_class;
  };

  /// Records every Drain() so far has returned; the next drained record
  /// belongs at this position.
  size_t drained_ = 0;
  LiveDecisions live_;
};

}  // namespace pdd

#endif  // PDD_INGEST_STANDING_SESSION_H_
