// StandingSession: wires the push-based ingest path (IngestQueue →
// IngestStream) to the shared StageExecutor and owns the service
// lifecycle a standing consumer (pddserve) needs:
//
//   * Drain() — the live loop: decides every crossing pair of every
//     admitted tuple through the executor's one decide path (cache →
//     match → combine → derive → classify, over the stream's growing
//     RelationArena), streaming records through the configured
//     decision sink until the queue closes. Live record order depends
//     on arrival order by construction.
//   * Finish() — THE deterministic report: the canonical (id-sorted)
//     raw relation re-run through the ordinary batch path with the
//     session's shared decision cache. Because the live drain decided
//     the FULL crossing set (a superset of any reduction's candidate
//     set over content-identical tuples), the re-run is ~100% cache
//     hits, and its report is byte-identical to a one-shot batch run
//     of the same tuple set — for ANY arrival order, and for serial
//     and pooled finish drains alike.
//
// One session = one standing run. The decision cache (and its disk
// snapshots) carries warmth across sessions and process restarts.

#ifndef PDD_INGEST_STANDING_SESSION_H_
#define PDD_INGEST_STANDING_SESSION_H_

#include <functional>
#include <memory>

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
    /// Executor shape of the live drain (Finish re-runs share
    /// batch_size/workers).
    size_t batch_size = 256;
    size_t workers = 0;
    bool stage_timings = false;
    /// Shared decision store: what makes Finish() nearly free and
    /// crash-restart warm-up possible. Null runs uncached (Finish then
    /// re-decides from scratch — same bytes, full cost).
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
  /// closed and every admitted pair is decided. Call once.
  Result<DetectionResult> Drain();

  /// Seed + admitted raw tuples, sorted by tuple id — the arrival-
  /// order-independent input of the deterministic finish run (ids are
  /// unique by admission dedup, so the order is total).
  XRelation CanonicalRelation();

  /// The deterministic final report (see file comment). Pumps any
  /// still-queued tuples first; call after Close()+Drain().
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
};

}  // namespace pdd

#endif  // PDD_INGEST_STANDING_SESSION_H_
