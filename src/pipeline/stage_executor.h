// StageExecutor: drains a CandidateStream in fixed-size batches and
// decides every candidate through the plan's stages (match → combine
// → derive → classify). There is one decide path: every pair decides
// through a ColumnarMatcher over the stream's RelationArena, which
// Execute builds when the stream carries none (DetectionPlan::DecidePair
// is the reference the tests hold it to, bit for bit). There is one
// drain loop. The stream is pulled under one mutex; its batches are
// indexed in pull order, decided into a worker-local buffer and
// committed in index order, the order a decision sink sees the records
// in too. The worker count only decides how many
// threads run that loop: workers <= 1 runs it on the calling thread.
// So the result is byte-identical for any worker count, and
// parallelism is purely a throughput knob. The drain streams: live
// candidates are bounded by the in-flight batches plus whatever the
// stream buffers (nothing for native-streaming reductions), and the
// drain accounting lands in DetectionResult::stream_stats. Each worker
// tallies the class counts and similarity histogram of every batch it
// decides before committing it, and the telemetry merges the tallies,
// so no pass over the records follows the drain.
//
// Every run clocks each batch three ways — its pull, its decide (the
// decide and the tally) and its commit (the decision sink and the
// in-order merge) — into the telemetry's generate, drain/worker.N and
// commit spans and the time.batch_decide_micros histogram. No clock is
// read per pair, so the timed run is the production run.
//
// With a ShardedDecisionCache attached, each pair is first looked up by
// (plan decision fingerprint, pair content digest); hits skip the
// stages entirely and misses insert the freshly decided outcome,
// so repeated, incremental and swept runs only pay for pairs no
// equivalent plan has decided before. Cached values are the bit
// patterns the stages produced, so cached ≡ uncached ≡ serial ≡
// parallel output. A caller that already holds decisions for some
// candidates (a standing session's live records) hands them in as
// prior_decision, which answers before the cache is consulted.

#ifndef PDD_PIPELINE_STAGE_EXECUTOR_H_
#define PDD_PIPELINE_STAGE_EXECUTOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/decision_cache.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"
#include "pipeline/detection_result.h"
#include "util/status.h"

namespace pdd {

/// Receives committed decision records (StageExecutorOptions).
using DecisionSink = std::function<void(const PairDecisionRecord&)>;

struct StageExecutorOptions {
  /// Candidates per batch handed to the stage pipeline.
  size_t batch_size = 256;
  /// Worker threads; 0 or 1 executes serially on the calling thread.
  /// At most kMaxWorkers.
  size_t workers = 0;
  /// Decision memoization store shared across runs/plans/threads;
  /// null runs uncached. Ignored (with stats reporting zero lookups)
  /// when the plan is cache-ineligible (decision_fingerprint() == 0).
  std::shared_ptr<ShardedDecisionCache> cache;
  /// Decisions the caller already holds, consulted before the cache:
  /// candidate (first, second) takes the returned similarity and class
  /// and is neither looked up, inserted nor decided. Workers call it
  /// concurrently, so it must only read. The answer must be what this
  /// plan decides for the pair. A standing session's Finish() answers
  /// from its live drain's records; null everywhere else.
  std::function<std::optional<CachedPairDecision>(size_t first,
                                                  size_t second)>
      prior_decision;
  /// Called once per decision record as it is committed, in pull
  /// order: the records' order in the DetectionResult, for any worker
  /// count and batch size. Calls are serialized under the commit lock.
  /// A standing consumer (pddserve) streams decisions out of the drain
  /// through this; batch callers leave it null.
  DecisionSink decision_sink;
};

class ColumnarMatcher;

class StageExecutor {
 public:
  /// The plan is shared (and must be non-null); options are validated
  /// lazily by Execute.
  StageExecutor(std::shared_ptr<const DetectionPlan> plan,
                StageExecutorOptions options = {});

  /// Drains `stream` and returns the detection result. The stream is
  /// left exhausted (callers reuse one via CandidateStream::Reset) with
  /// its arena attached. Fails with OutOfRange when the relation
  /// overflows the arena's (or the records') 32-bit indices, and with
  /// InvalidArgument when an attached arena's tuple count differs from
  /// the stream relation's.
  /// A 0-candidate pull does not end the drain by itself: the stream's
  /// AwaitMore() decides between *exhausted* (finite batch sources) and
  /// *idle but open* (a standing ingest source blocks there until more
  /// tuples arrive or the feed closes), so the same decide path serves
  /// batch runs and the standing loop.
  /// Exactly max(1, workers) threads run the drain, all sharing the one
  /// attached cache handle. More than kMaxWorkers workers, like a zero
  /// batch size, is InvalidArgument before any thread starts.
  Result<DetectionResult> Execute(CandidateStream& stream) const;

  const StageExecutorOptions& options() const { return options_; }

 private:
  /// Decides one batch through this worker's matcher, appending to
  /// `*out` (the worker-local buffer) and counting cache activity into
  /// `*cache_counts`. Tuple digests (the cache key and the decide
  /// orientation) come from the matcher's arena.
  void DecideBatch(const std::vector<CandidatePair>& batch,
                   ColumnarMatcher* matcher,
                   std::vector<PairDecisionRecord>* out,
                   CacheRunStats* cache_counts) const;

  std::shared_ptr<const DetectionPlan> plan_;
  StageExecutorOptions options_;
};

}  // namespace pdd

#endif  // PDD_PIPELINE_STAGE_EXECUTOR_H_
