// StageExecutor: drains a CandidateStream in fixed-size batches and
// runs every candidate through the plan's stage graph (match → combine
// → derive → classify), either serially or on an std::thread pool.
// Batches are indexed as they are pulled (workers pull under a mutex,
// so batch contents are pull-order-determined regardless of worker
// timing) and their records are committed in index order, so the
// result is byte-identical to serial execution for any worker count —
// parallelism is purely a throughput knob. The drain is streaming on both paths: live candidates are
// bounded by the in-flight batches plus whatever the stream itself
// buffers (nothing for native-streaming reductions), and the drain
// accounting lands in DetectionResult::stream_stats.
//
// With a DecisionCache attached, each pair is first looked up by
// (plan decision fingerprint, pair content digest); hits skip the
// stage graph entirely and misses insert the freshly decided outcome,
// so repeated, incremental and swept runs only pay for pairs no
// equivalent plan has decided before. Cached values are the bit
// patterns the stages produced, so cached ≡ uncached ≡ serial ≡
// parallel output. Per-stage wall times (plus the cache-lookup path)
// are accumulated into DetectionResult::stage_timings unless
// stage_timings is disabled.

#ifndef PDD_PIPELINE_STAGE_EXECUTOR_H_
#define PDD_PIPELINE_STAGE_EXECUTOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "cache/decision_cache.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/detection_plan.h"
#include "pipeline/detection_result.h"
#include "util/status.h"

namespace pdd {

struct StageExecutorOptions {
  /// Candidates per batch handed to the stage pipeline.
  size_t batch_size = 256;
  /// Worker threads; 0 or 1 executes serially on the calling thread.
  size_t workers = 0;
  /// Accumulate per-stage wall times into the result. Off by default:
  /// the clock reads cost real time in the innermost decide loop
  /// (~20% on cheap-comparator workloads). Enabled by consumers that
  /// render the breakdown (`pddcli --cache-stats`, bench_fig03's stage
  /// table, ExecutionStatsReport users).
  bool stage_timings = false;
  /// Decision memoization store shared across runs/plans/threads;
  /// null runs uncached. Ignored (with stats reporting zero lookups)
  /// when the plan is cache-ineligible (decision_fingerprint() == 0).
  std::shared_ptr<DecisionCache> cache;
  /// Called once per committed decision record, as batches complete.
  /// The executor serializes calls (one sink invocation at a time), but
  /// the EMISSION ORDER is execution-shape-dependent on pooled/sharded
  /// drains: only the merged DetectionResult carries the deterministic
  /// order. A standing consumer (pddserve) streams decisions out of the
  /// drain through this; batch callers leave it null for zero overhead.
  std::function<void(const PairDecisionRecord&)> decision_sink;
};

class ColumnarMatcher;
class ShardedCandidateStream;

class StageExecutor {
 public:
  /// The plan is shared (and must be non-null); options are validated
  /// lazily by Execute.
  StageExecutor(std::shared_ptr<const DetectionPlan> plan,
                StageExecutorOptions options = {});

  /// Drains `stream` and returns the detection result. The stream is
  /// left exhausted (callers reuse one via CandidateStream::Reset).
  /// A 0-candidate pull does not end the drain by itself: the stream's
  /// AwaitMore() decides between *exhausted* (finite batch sources) and
  /// *idle but open* (a standing ingest source blocks there until more
  /// tuples arrive or the feed closes), so the same decide path serves
  /// batch runs and the standing loop.
  /// A ShardedCandidateStream with more than one shard takes the
  /// shard-aware drain: exactly `workers` threads split into per-shard
  /// worker sets (a thread covers several shards sequentially when
  /// workers < shards) pulling under per-shard mutexes, the one
  /// attached DecisionCache handle shared by every shard worker,
  /// per-shard accounting in
  /// DetectionResult::stream_stats.per_shard, and the per-shard
  /// decision records merged deterministically (ascending
  /// (first, second), stable shard tie-break) — byte-identical to the
  /// unsharded drain of the same plan and scenario.
  Result<DetectionResult> Execute(CandidateStream& stream) const;

  const StageExecutorOptions& options() const { return options_; }

 private:
  /// Per-worker accumulators merged into the result after the drain.
  struct BatchCounters {
    StageTimings timings;
    CacheRunStats cache;
  };

  /// Lazily memoized per-tuple content digests for one run, sized to
  /// the stream's relation. 0 = not yet computed; entries fill in as
  /// candidate pairs touch their tuples, so sparse runs (incremental
  /// streams over large bases) only digest what they examine. Benign
  /// write races: the digest is a pure function of content, every
  /// writer stores the same value.
  using TupleDigestMemo = std::vector<std::atomic<uint64_t>>;

  /// Runs the stage graph over one batch, appending to `*out` (the
  /// per-worker scratch buffer). `digest_memo` is non-null exactly
  /// when the cache is consulted on the scalar path. `matcher`, when
  /// non-null, is this worker's columnar matcher: pairs decide through
  /// the batched kernels and cache keys use the arena's precomputed
  /// tuple digests instead of the lazy memo (digest_memo is then null).
  void DecideBatch(const XRelation& rel,
                   const std::vector<CandidatePair>& batch,
                   TupleDigestMemo* digest_memo, ColumnarMatcher* matcher,
                   std::vector<PairDecisionRecord>* out,
                   BatchCounters* counters) const;

  /// The shard-aware drain (see Execute). `digest_memo` as above;
  /// `arena` non-null selects the columnar path (one matcher per
  /// drain_shard call, all over the shared arena).
  Result<DetectionResult> ExecuteSharded(ShardedCandidateStream& stream,
                                         TupleDigestMemo* digest_memo,
                                         const RelationArena* arena,
                                         DetectionResult result) const;

  std::shared_ptr<const DetectionPlan> plan_;
  StageExecutorOptions options_;
};

}  // namespace pdd

#endif  // PDD_PIPELINE_STAGE_EXECUTOR_H_
