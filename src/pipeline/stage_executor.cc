#include "pipeline/stage_executor.h"

#include <algorithm>
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

namespace pdd {

namespace {

using Clock = std::chrono::steady_clock;

inline double Elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
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

/// The decision records of the drain, kept in pull order while
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
/// result's own table. Then builds the run's unified telemetry once:
/// the registry from the stat fields Execute summed, the generate/
/// drain/worker spans from the per-thread slots. Nothing is written
/// back into the fields.
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
  result->telemetry = std::move(telemetry);
}

}  // namespace

StageExecutor::StageExecutor(std::shared_ptr<const DetectionPlan> plan,
                             StageExecutorOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {}

void StageExecutor::DecideBatch(const std::vector<CandidatePair>& batch,
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
  const RelationArena& arena = matcher->arena();
  PairDecisionKey key;
  key.plan_fingerprint = plan_->decision_fingerprint();
  for (const CandidatePair& pair : batch) {
    // The clock reads themselves are gated on `timed`: an untimed
    // warm run's per-pair cost stays digest + lookup, nothing else.
    Clock::time_point start;
    if (timed && use_cache) start = Clock::now();
    const uint64_t d1 = arena.tuple_digest(pair.first);
    const uint64_t d2 = arena.tuple_digest(pair.second);
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
    // — cached or not, batch order or standing arrival order — decides
    // (smaller digest, larger digest). Equal digests mean
    // content-identical tuples, where orientation cannot matter. The
    // record keeps the presentation indices.
    const bool flip = d2 < d1;
    const size_t i1 = flip ? pair.second : pair.first;
    const size_t i2 = flip ? pair.first : pair.second;
    const XPairDecision decision =
        timed ? matcher->DecideTimed(i1, i2, &counters->timings)
              : matcher->Decide(i1, i2);
    if (use_cache) {
      Clock::time_point insert_start;
      if (timed) insert_start = Clock::now();
      cache->Insert(key, {decision.similarity, decision.match_class});
      if (timed) {
        counters->timings.cache_insert_seconds += Elapsed(insert_start);
      }
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
  // Every pair decides over the stream's arena. A stream without one
  // (custom RunStream streams, a materialized stream, a factory stream
  // on its first run) gets it here, before any worker starts; it stays
  // attached for Reset() re-runs.
  if (stream.arena() == nullptr) {
    std::shared_ptr<const RelationArena> built = RelationArena::Build(rel);
    if (built == nullptr) {
      return Status::OutOfRange("relation '" + rel.name() +
                                "' overflows the arena's 32-bit columns");
    }
    stream.set_arena(std::move(built));
  }
  if (stream.arena()->tuple_count() != rel.size()) {
    return Status::InvalidArgument(
        "stream arena holds " + std::to_string(stream.arena()->tuple_count()) +
        " tuples but its relation " + std::to_string(rel.size()));
  }
  DetectionResult result;
  result.total_pairs = stream.total_pairs();
  result.plan_fingerprint = plan_->fingerprint();
  result.stage_timings_collected = options_.stage_timings;
  if (options_.cache != nullptr) result.cache_stats = CacheRunStats{};

  // Pulls are serialized under one mutex and batches indexed in pull
  // order, so batch k's content is independent of which worker claims
  // it or when. The decision cache handle (consulted inside
  // DecideBatch) is the one structure every worker shares.
  std::mutex drain_mu;
  bool exhausted = false;
  OrderedRecords committed;
  size_t batches = 0;
  size_t candidate_count = 0;
  size_t in_flight_candidates = 0;
  size_t high_water = 0;
  if (std::optional<size_t> hint = stream.candidate_count_hint()) {
    committed.Reserve(*hint);
  }
  // Sink calls are serialized but interleave across workers in commit
  // order — an execution-shape-dependent order by design (see
  // StageExecutorOptions::decision_sink).
  std::mutex sink_mu;
  const bool timed = options_.stage_timings;
  const size_t threads = std::max<size_t>(options_.workers, 1);
  std::vector<WorkerStats> workers(threads);
  std::vector<BatchCounters> counters(threads);
  auto drain = [&](size_t thread) {
    WorkerStats& ws = workers[thread];
    // The arena generation this worker decides over, and its matcher
    // (one per call: the scratch buffers are thread-private). A
    // standing stream publishes a new generation when it outgrows the
    // old one; the copy keeps the generation a batch was pulled against
    // alive until the batch is decided. Finite streams never change it.
    std::shared_ptr<const RelationArena> arena;
    std::optional<ColumnarMatcher> matcher;
    std::vector<CandidatePair> batch;
    std::vector<PairDecisionRecord> decided;
    while (true) {
      size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(drain_mu);
        if (exhausted) return;
        Clock::time_point pull_start;
        if (timed) pull_start = Clock::now();
        size_t pulled = stream.NextBatch(options_.batch_size, &batch);
        if (timed) ws.pull_seconds += Elapsed(pull_start);
        if (pulled == 0) {
          // Exhausted vs idle-but-open: a standing stream blocks in
          // AwaitMore until tuples arrive (resume pulling) or its feed
          // closes (drain ends). Waiting with drain_mu held parks the
          // other workers — correct (there is nothing to pull) and free
          // of lock cycles: AwaitMore blocks on the stream's own
          // condition, signalled by producers that never take drain_mu.
          if (!stream.AwaitMore()) {
            exhausted = true;
            return;
          }
          continue;
        }
        if (stream.arena() != arena) {
          matcher.reset();
          arena = stream.arena();
        }
        index = batches++;
        candidate_count += batch.size();
        in_flight_candidates += batch.size();
        high_water =
            std::max(high_water,
                     in_flight_candidates + stream.buffered_candidates());
      }
      ++ws.batches;
      ws.candidates += batch.size();
      if (!matcher.has_value()) matcher.emplace(*plan_, *arena);
      Clock::time_point decide_start;
      if (timed) decide_start = Clock::now();
      DecideBatch(batch, &*matcher, &decided, &counters[thread]);
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
      committed.Commit(index, &decided);
      {
        std::lock_guard<std::mutex> lock(drain_mu);
        in_flight_candidates -= batch.size();
      }
    }
  };
  // Exactly max(1, workers) threads run the loop; workers <= 1 runs it
  // on the calling thread. The output is identical either way.
  if (threads == 1) {
    drain(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(drain, t);
    for (std::thread& t : pool) t.join();
  }

  result.candidate_count = candidate_count;
  result.stream_stats.batches = batches;
  result.stream_stats.live_candidate_high_water = high_water;
  result.decisions = committed.Take();
  for (const BatchCounters& worker_counters : counters) {
    result.stage_timings += worker_counters.timings;
    if (result.cache_stats.has_value()) {
      *result.cache_stats += worker_counters.cache;
    }
  }
  FinishResult(options_, stream, std::move(workers), &result);
  return result;
}

}  // namespace pdd
