#include "pipeline/stage_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "cache/pair_digest.h"
#include "match/columnar_matcher.h"
#include "obs/run_telemetry.h"
#include "pipeline/sharded_stream.h"

namespace pdd {

namespace {

using Clock = std::chrono::steady_clock;

inline double Elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The accumulator a stage's wall time belongs to.
inline double* TimingSlot(StageTimings* timings, PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kMatch:
      return &timings->match_seconds;
    case PipelineStage::kCombine:
      return &timings->combine_seconds;
    case PipelineStage::kDerive:
      return &timings->derive_seconds;
    case PipelineStage::kClassify:
      return &timings->classify_seconds;
  }
  return &timings->classify_seconds;
}

/// Lazily memoized TupleContentDigest. 0 doubles as the "unset"
/// sentinel: a genuine zero digest just recomputes (correct, merely
/// unmemoized).
inline uint64_t MemoizedDigest(const XRelation& rel, size_t index,
                               std::atomic<uint64_t>* slot) {
  uint64_t digest = slot->load(std::memory_order_relaxed);
  if (digest == 0) {
    digest = TupleContentDigest(rel.xtuple(index));
    slot->store(digest, std::memory_order_relaxed);
  }
  return digest;
}

inline uint64_t MicrosFromSeconds(double seconds) {
  if (!(seconds > 0.0)) return 0;
  return static_cast<uint64_t>(std::llround(seconds * 1e6));
}

/// Per-drain-thread span accounting. Each thread owns one slot, so the
/// hot loop mutates it lock-free; the slots fold into the telemetry's
/// generate span, worker.N spans and decide-latency histogram after
/// the drain. Batch/candidate counts per worker vary with thread
/// timing — they live on spans, which the identity gates never diff.
struct WorkerStats {
  size_t batches = 0;
  size_t candidates = 0;
  /// Time inside the stream's NextBatch pulls (candidate generation).
  double pull_seconds = 0.0;
  /// Time inside DecideBatch.
  double decide_seconds = 0.0;
  /// Per-batch decide latency in microseconds.
  LogHistogram decide_micros;
};

/// The decision records of one shard's drain, kept in pull order while
/// workers finish batches in any order. A batch decided ahead of an
/// earlier one parks until the gap closes, so only out-of-order batches
/// are ever buffered (their buffers are recycled) and the records end
/// exactly as a one-worker drain would have appended them.
class OrderedRecords {
 public:
  /// Single-threaded, before any Commit.
  void Reserve(size_t count) { records_.reserve(count); }

  /// Commits the records of batch `index` (0-based pull order). Takes
  /// the contents of `*batch` and leaves it an empty buffer for the
  /// caller's next batch. Thread-safe.
  void Commit(size_t index, std::vector<PairDecisionRecord>* batch) {
    std::lock_guard<std::mutex> lock(mu_);
    if (index != next_) {
      pending_.emplace(index, std::move(*batch));
      batch->clear();
      if (!spare_.empty()) {
        *batch = std::move(spare_.back());
        spare_.pop_back();
      }
      return;
    }
    records_.insert(records_.end(), batch->begin(), batch->end());
    batch->clear();
    ++next_;
    auto it = pending_.begin();
    for (; it != pending_.end() && it->first == next_; ++it, ++next_) {
      records_.insert(records_.end(), it->second.begin(), it->second.end());
      it->second.clear();
      spare_.push_back(std::move(it->second));
    }
    pending_.erase(pending_.begin(), it);
  }

  /// The committed records; call once every worker has joined.
  std::vector<PairDecisionRecord> Take() { return std::move(records_); }

 private:
  std::mutex mu_;
  size_t next_ = 0;
  std::vector<PairDecisionRecord> records_;
  std::map<size_t, std::vector<PairDecisionRecord>> pending_;
  std::vector<std::vector<PairDecisionRecord>> spare_;
};

/// The drain's tail, whatever its shape. Re-reads the pair universe (a
/// standing stream's grows as tuples are admitted; finite streams
/// report the same value) and copies the relation's ids into the
/// result's own table. Then builds the run's unified telemetry —
/// registry from the result's stat fields, generate/drain/worker spans
/// from the per-thread slots — and reassigns the legacy stat structs
/// from the registry views, so every struct a caller reads is provably
/// a projection of the one registry.
void FinishResult(const StageExecutorOptions& options,
                  const CandidateStream& stream,
                  std::vector<WorkerStats> workers, DetectionResult* result) {
  result->total_pairs = stream.total_pairs();
  auto ids = std::make_shared<std::vector<std::string>>();
  ids->reserve(stream.relation().size());
  for (const XTuple& tuple : stream.relation().xtuples()) {
    ids->push_back(tuple.id());
  }
  result->ids = std::move(ids);

  auto telemetry =
      std::make_shared<RunTelemetry>(TelemetryFromResult(*result));
  MetricsRegistry& m = telemetry->metrics;
  m.SetCounter("exec.config.workers", options.workers);
  m.SetCounter("exec.config.batch_size", options.batch_size);

  TelemetrySpan generate("generate");
  LogHistogram decide_micros;
  double pull_total = 0.0;
  double decide_total = 0.0;
  uint64_t pulled_batches = 0;
  uint64_t pulled_candidates = 0;
  for (const WorkerStats& w : workers) {
    pull_total += w.pull_seconds;
    decide_total += w.decide_seconds;
    pulled_batches += w.batches;
    pulled_candidates += w.candidates;
    decide_micros.Merge(w.decide_micros);
  }
  generate.seconds = pull_total;
  generate.counts["batches"] = pulled_batches;
  generate.counts["candidates"] = pulled_candidates;
  // Generate precedes drain in the span tree (insert before grabbing
  // the drain pointer — insertion shifts the children).
  telemetry->root.children.insert(telemetry->root.children.begin(),
                                  std::move(generate));
  TelemetrySpan* drain = telemetry->root.FindChild("drain");
  drain->seconds = decide_total;
  for (size_t i = 0; i < workers.size(); ++i) {
    TelemetrySpan* span = drain->AddChild("worker." + std::to_string(i));
    span->seconds = workers[i].decide_seconds;
    span->counts["batches"] = workers[i].batches;
    span->counts["candidates"] = workers[i].candidates;
  }
  telemetry->root.seconds = pull_total + decide_total;
  if (options.stage_timings) {
    m.MutableHistogram(kMetricBatchDecideMicros)->Merge(decide_micros);
  }

  result->stage_timings = StageTimingsView(*telemetry);
  result->cache_stats = CacheRunStatsView(*telemetry);
  result->stream_stats = StreamRunStatsView(*telemetry);
  result->telemetry = std::move(telemetry);
}

}  // namespace

StageExecutor::StageExecutor(std::shared_ptr<const DetectionPlan> plan,
                             StageExecutorOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {}

void StageExecutor::DecideBatch(const XRelation& rel,
                                const std::vector<CandidatePair>& batch,
                                TupleDigestMemo* digest_memo,
                                ColumnarMatcher* matcher,
                                std::vector<PairDecisionRecord>* out,
                                BatchCounters* counters) const {
  out->reserve(batch.size());
  const bool timed = options_.stage_timings;
  // A cache-ineligible plan (custom comparators: decision fingerprint
  // 0) runs uncached rather than risking cross-instance collisions.
  const bool use_cache =
      options_.cache != nullptr && plan_->decision_fingerprint() != 0;
  DecisionCache* cache = options_.cache.get();
  PairDecisionKey key;
  key.plan_fingerprint = plan_->decision_fingerprint();
  for (const CandidatePair& pair : batch) {
    const XTuple& t1 = rel.xtuple(pair.first);
    const XTuple& t2 = rel.xtuple(pair.second);
    // The clock reads themselves are gated on `timed`: an untimed
    // warm run's per-pair cost stays digest + lookup, nothing else.
    Clock::time_point start;
    if (timed && use_cache) start = Clock::now();
    // Columnar runs read the arena's precomputed tuple digests (the
    // PR-3 lazy memo moved to build time); scalar runs keep the memo.
    const uint64_t d1 =
        matcher != nullptr
            ? matcher->arena().tuple_digest(pair.first)
            : MemoizedDigest(rel, pair.first, &(*digest_memo)[pair.first]);
    const uint64_t d2 =
        matcher != nullptr
            ? matcher->arena().tuple_digest(pair.second)
            : MemoizedDigest(rel, pair.second, &(*digest_memo)[pair.second]);
    if (use_cache) {
      key.pair_digest = CombineTupleDigests(d1, d2);
      std::optional<CachedPairDecision> cached = cache->Lookup(key);
      if (timed) counters->timings.cache_lookup_seconds += Elapsed(start);
      ++counters->cache.lookups;
      if (cached.has_value()) {
        ++counters->cache.hits;
        out->push_back({static_cast<uint32_t>(pair.first),
                        static_cast<uint32_t>(pair.second),
                        cached->similarity, cached->match_class});
        continue;
      }
      ++counters->cache.misses;
    }
    // Canonical decide orientation. The cache key is an UNORDERED pair
    // digest, but floating-point similarity is not bit-symmetric in
    // its operands (summation order differs), so the value stored
    // under that key must not depend on presentation order: every path
    // — cached or not, scalar or columnar, batch order or standing
    // arrival order — decides (smaller digest, larger digest).
    // Equal digests mean content-identical tuples, where orientation
    // cannot matter. The record keeps the presentation indices.
    const bool flip = d2 < d1;
    const size_t i1 = flip ? pair.second : pair.first;
    const size_t i2 = flip ? pair.first : pair.second;
    const XTuple& ta = flip ? t2 : t1;
    const XTuple& tb = flip ? t1 : t2;
    XPairDecision decision;
    if (matcher != nullptr) {
      decision = timed ? matcher->DecideTimed(i1, i2, &counters->timings)
                       : matcher->Decide(i1, i2);
    } else if (timed) {
      // DecidePair's walk over the compiled stage graph, with a clock
      // read around each stage (same order, same arithmetic, same
      // results — plan_->stages() stays the single source of truth).
      ComparisonMatrix matrix;
      AlternativePairScores scores;
      for (PipelineStage stage : plan_->stages()) {
        Clock::time_point stage_start = Clock::now();
        switch (stage) {
          case PipelineStage::kMatch:
            matrix = plan_->RunMatchStage(ta, tb);
            break;
          case PipelineStage::kCombine:
            scores = plan_->RunCombineStage(ta, tb, matrix);
            break;
          case PipelineStage::kDerive:
            decision.similarity = plan_->RunDeriveStage(scores);
            break;
          case PipelineStage::kClassify:
            decision.match_class = plan_->RunClassifyStage(decision.similarity);
            break;
        }
        *TimingSlot(&counters->timings, stage) += Elapsed(stage_start);
      }
    } else {
      decision = plan_->DecidePair(ta, tb);
    }
    if (use_cache) {
      cache->Insert(key, {decision.similarity, decision.match_class});
      ++counters->cache.inserts;
    }
    out->push_back({static_cast<uint32_t>(pair.first),
                    static_cast<uint32_t>(pair.second), decision.similarity,
                    decision.match_class});
  }
}

Result<DetectionResult> StageExecutor::Execute(CandidateStream& stream) const {
  if (plan_ == nullptr) {
    return Status::InvalidArgument("stage executor has no plan");
  }
  if (options_.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  // Records address tuples by 32-bit index, like the RelationArena and
  // the pdd.index.v1 id space.
  if (stream.tuple_capacity() > std::numeric_limits<uint32_t>::max()) {
    return Status::OutOfRange(
        "stream tuple capacity " + std::to_string(stream.tuple_capacity()) +
        " exceeds the 32-bit record index space");
  }
  const XRelation& rel = stream.relation();
  // Factory-built streams were checked against their own plan; a custom
  // stream (RunStream seam) may carry any relation, so re-check here.
  if (!rel.schema().CompatibleWith(plan_->schema())) {
    return Status::InvalidArgument(
        "stream relation schema incompatible with plan schema");
  }
  DetectionResult result;
  result.total_pairs = stream.total_pairs();
  result.plan_fingerprint = plan_->fingerprint();
  result.stage_timings_collected = options_.stage_timings;
  if (options_.cache != nullptr) result.cache_stats = CacheRunStats{};
  // Columnar kernel path: the plan resolved it at compile time and the
  // stream factory attached an arena over its relation. A custom
  // stream without an arena (or an arena for a different relation, or
  // an overflowed build) falls back to the scalar path — same results.
  const RelationArena* arena = stream.arena().get();
  const bool columnar = plan_->use_columnar_kernels() && arena != nullptr &&
                        arena->tuple_count() == rel.size();
  result.match_kernel = columnar ? "columnar" : "scalar";
  // Per-tuple digest memo for the run: filled lazily as candidates
  // touch tuples (a sparse incremental stream over a large base never
  // digests the untouched base), then reused by every later pair, so
  // the hit path never re-hashes tuple content. Uncached scalar runs
  // need the digests too, for the canonical decide orientation (see
  // DecideBatch) — that is what keeps uncached, cold-cached and
  // warm-cached runs bit-identical. Columnar batches read the arena's
  // precomputed digests instead, so the memo is empty there. Sized
  // from the stream's tuple CAPACITY, not its current size: a standing
  // ingest stream's relation grows during the drain, and the memo must
  // already have a slot for every tuple that can still arrive.
  TupleDigestMemo digest_memo(columnar ? 0 : stream.tuple_capacity());

  // A multi-shard stream drains shard by shard through ShardNextBatch;
  // any other stream is a single shard pulled through NextBatch.
  auto* sharded = dynamic_cast<ShardedCandidateStream*>(&stream);
  if (sharded != nullptr && sharded->shard_count() <= 1) sharded = nullptr;
  const size_t shard_count = sharded != nullptr ? sharded->shard_count() : 1;
  // Each shard is pulled under its own mutex, so workers of different
  // shards never contend; within a shard, pulls are serialized and
  // batches indexed in pull order, so batch k's content is independent
  // of which worker claims it or when. The decision cache handle
  // (consulted inside DecideBatch) is the one structure every worker
  // shares.
  struct ShardDrain {
    std::mutex mu;
    bool exhausted = false;
    OrderedRecords committed;
    size_t candidate_count = 0;
    size_t batches = 0;
    size_t in_flight_candidates = 0;
    size_t high_water = 0;
  };
  std::vector<ShardDrain> drains(shard_count);
  if (sharded == nullptr) {
    if (std::optional<size_t> hint = stream.candidate_count_hint()) {
      drains[0].committed.Reserve(*hint);
    }
  }
  // Sink calls are serialized but interleave across workers and shards
  // in commit order — an execution-shape-dependent order by design (see
  // StageExecutorOptions::decision_sink).
  std::mutex sink_mu;
  const bool timed = options_.stage_timings;
  const size_t threads = std::max<size_t>(options_.workers, 1);
  std::vector<WorkerStats> workers(threads);
  std::vector<BatchCounters> counters(threads);
  auto drain_shard = [&](size_t shard, size_t thread) {
    ShardDrain& drain = drains[shard];
    WorkerStats& ws = workers[thread];
    // One matcher per call: its scratch buffers are thread-private.
    std::optional<ColumnarMatcher> matcher;
    if (columnar) matcher.emplace(*plan_, *arena);
    std::vector<CandidatePair> batch;
    std::vector<PairDecisionRecord> decided;
    while (true) {
      size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(drain.mu);
        if (drain.exhausted) return;
        Clock::time_point pull_start;
        if (timed) pull_start = Clock::now();
        size_t pulled =
            sharded != nullptr
                ? sharded->ShardNextBatch(shard, options_.batch_size, &batch)
                : stream.NextBatch(options_.batch_size, &batch);
        if (timed) ws.pull_seconds += Elapsed(pull_start);
        if (pulled == 0) {
          // Exhausted vs idle-but-open: a standing stream blocks in
          // AwaitMore until tuples arrive (resume pulling) or its feed
          // closes (drain ends). Waiting with drain.mu held parks the
          // shard's other workers — correct (there is nothing to pull)
          // and free of lock cycles: AwaitMore blocks on the stream's
          // own condition, signalled by producers that never take
          // drain.mu. Shard sources are finite (RestrictToShard over a
          // finite universe), so their 0-pull is final.
          if (sharded != nullptr || !stream.AwaitMore()) {
            drain.exhausted = true;
            return;
          }
          continue;
        }
        index = drain.batches++;
        drain.candidate_count += batch.size();
        drain.in_flight_candidates += batch.size();
        drain.high_water = std::max(
            drain.high_water,
            drain.in_flight_candidates +
                (sharded != nullptr ? sharded->ShardBufferedCandidates(shard)
                                    : stream.buffered_candidates()));
      }
      ++ws.batches;
      ws.candidates += batch.size();
      Clock::time_point decide_start;
      if (timed) decide_start = Clock::now();
      DecideBatch(rel, batch, &digest_memo,
                  matcher.has_value() ? &*matcher : nullptr, &decided,
                  &counters[thread]);
      if (timed) {
        double decide = Elapsed(decide_start);
        ws.decide_seconds += decide;
        ws.decide_micros.Record(MicrosFromSeconds(decide));
      }
      if (options_.decision_sink) {
        std::lock_guard<std::mutex> lock(sink_mu);
        for (const PairDecisionRecord& rec : decided) {
          options_.decision_sink(rec);
        }
      }
      drain.committed.Commit(index, &decided);
      {
        std::lock_guard<std::mutex> lock(drain.mu);
        drain.in_flight_candidates -= batch.size();
      }
    }
  };
  // Exactly max(1, workers) threads — the configured bound is a
  // resource cap and must hold regardless of the shard count. With
  // threads >= shards, thread t joins shard t % shards' worker set
  // (sets differ in size by at most one); with fewer threads than
  // shards, thread t drains shards t, t+threads, ... to completion, one
  // after another. workers <= 1 runs that loop on the calling thread,
  // shard after shard. The output is identical either way.
  auto run_thread = [&](size_t t) {
    for (size_t shard = t % shard_count; shard < shard_count;
         shard += threads) {
      drain_shard(shard, t);
    }
  };
  if (threads == 1) {
    run_thread(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(run_thread, t);
    for (std::thread& t : pool) t.join();
  }

  std::vector<std::vector<PairDecisionRecord>> runs(shard_count);
  for (size_t shard = 0; shard < shard_count; ++shard) {
    ShardDrain& drain = drains[shard];
    result.candidate_count += drain.candidate_count;
    result.stream_stats.batches += drain.batches;
    result.stream_stats.live_candidate_high_water += drain.high_water;
    if (sharded != nullptr) {
      StreamRunStats stats;
      stats.batches = drain.batches;
      stats.live_candidate_high_water = drain.high_water;
      result.stream_stats.per_shard.push_back(stats);
    }
    runs[shard] = drain.committed.Take();
  }
  for (const BatchCounters& worker_counters : counters) {
    result.stage_timings += worker_counters.timings;
    if (result.cache_stats.has_value()) {
      *result.cache_stats += worker_counters.cache;
    }
  }
  if (shard_count == 1) {
    result.decisions = std::move(runs[0]);
  } else {
    // Each shard's committed records form its own (canonically ordered)
    // run; k-way merge the runs by ascending (first, second) — stable
    // tie-break by shard index — reconstructing the order the unsharded
    // drain would have produced.
    result.decisions.reserve(result.candidate_count);
    std::vector<size_t> cursor(shard_count, 0);
    while (true) {
      size_t best = shard_count;
      for (size_t shard = 0; shard < shard_count; ++shard) {
        if (cursor[shard] >= runs[shard].size()) continue;
        if (best == shard_count) {
          best = shard;
          continue;
        }
        const PairDecisionRecord& a = runs[shard][cursor[shard]];
        const PairDecisionRecord& b = runs[best][cursor[best]];
        if (a.index1 != b.index1 ? a.index1 < b.index1
                                 : a.index2 < b.index2) {
          best = shard;
        }
      }
      if (best == shard_count) break;
      result.decisions.push_back(runs[best][cursor[best]++]);
    }
  }
  FinishResult(options_, stream, std::move(workers), &result);
  return result;
}

}  // namespace pdd
