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

/// Per-drain-thread accounting. Each thread owns one slot, so the hot
/// loop mutates it lock-free; the slots fold into the telemetry's
/// spans, decide-latency histogram, cache counters and identity
/// metrics after the drain. Batch/candidate counts per worker vary
/// with thread timing — they live on spans, which the identity gates
/// never diff; the tallies merge to the same sum for any split.
struct WorkerStats {
  size_t batches = 0;
  size_t candidates = 0;
  /// Time inside the stream's NextBatch pulls (candidate generation).
  double pull_seconds = 0.0;
  /// Time inside DecideBatch and the tally.
  double decide_seconds = 0.0;
  /// Time in OrderedRecords::Commit (the decision sink included).
  double commit_seconds = 0.0;
  /// Per-batch decide latency in microseconds.
  LogHistogram decide_micros;
  /// Cache activity of this thread's batches.
  CacheRunStats cache;
  /// Identity metrics of the records this thread decided.
  DecisionTally tally;
};

/// The decision records of the drain, kept in pull order while
/// workers finish batches in any order. A batch decided ahead of an
/// earlier one parks until the gap closes, so only out-of-order batches
/// are ever buffered (their buffers are recycled) and the records end
/// exactly as a one-worker drain would have appended them. The
/// decision sink sees each record as it is appended, so in that order
/// too.
class OrderedRecords {
 public:
  explicit OrderedRecords(const DecisionSink& sink) : sink_(sink) {}

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
    Append(*batch);
    batch->clear();
    ++next_;
    auto it = pending_.begin();
    for (; it != pending_.end() && it->first == next_; ++it, ++next_) {
      Append(it->second);
      it->second.clear();
      spare_.push_back(std::move(it->second));
    }
    pending_.erase(pending_.begin(), it);
  }

  /// The committed records; call once every worker has joined.
  std::vector<PairDecisionRecord> Take() { return std::move(records_); }

 private:
  void Append(const std::vector<PairDecisionRecord>& batch) {
    if (sink_) {
      for (const PairDecisionRecord& rec : batch) sink_(rec);
    }
    records_.insert(records_.end(), batch.begin(), batch.end());
  }

  const DecisionSink& sink_;
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
/// the registry from the stat fields Execute summed and the merge of
/// the workers' decision tallies (no pass over the records), the
/// generate, drain/worker.N and commit spans and the batch-decide
/// histogram from the per-thread slots. Nothing is written back into
/// the fields.
void FinishResult(const StageExecutorOptions& options,
                  const CandidateStream& stream,
                  const std::vector<WorkerStats>& workers,
                  DetectionResult* result) {
  result->total_pairs = stream.total_pairs();
  auto ids = std::make_shared<std::vector<std::string>>();
  ids->reserve(stream.relation().size());
  for (const XTuple& tuple : stream.relation().xtuples()) {
    ids->push_back(tuple.id());
  }
  result->ids = std::move(ids);

  DecisionTally tally;
  for (const WorkerStats& w : workers) tally.Merge(w.tally);
  auto telemetry =
      std::make_shared<RunTelemetry>(TelemetryFromResult(*result, tally));
  MetricsRegistry& m = telemetry->metrics;
  m.SetCounter("exec.config.workers", options.workers);
  m.SetCounter("exec.config.batch_size", options.batch_size);

  TelemetrySpan generate("generate");
  TelemetrySpan drain("drain");
  TelemetrySpan commit("commit");
  LogHistogram* decide_micros = m.MutableHistogram(kMetricBatchDecideMicros);
  for (size_t i = 0; i < workers.size(); ++i) {
    const WorkerStats& w = workers[i];
    generate.seconds += w.pull_seconds;
    generate.counts["batches"] += w.batches;
    generate.counts["candidates"] += w.candidates;
    drain.seconds += w.decide_seconds;
    commit.seconds += w.commit_seconds;
    decide_micros->Merge(w.decide_micros);
    TelemetrySpan* span = drain.AddChild("worker." + std::to_string(i));
    span->seconds = w.decide_seconds;
    span->counts["batches"] = w.batches;
    span->counts["candidates"] = w.candidates;
  }
  telemetry->root.seconds = generate.seconds + drain.seconds + commit.seconds;
  telemetry->root.children = {std::move(generate), std::move(drain),
                              std::move(commit)};
  result->telemetry = std::move(telemetry);
}

}  // namespace

StageExecutor::StageExecutor(std::shared_ptr<const DetectionPlan> plan,
                             StageExecutorOptions options)
    : plan_(std::move(plan)), options_(std::move(options)) {}

void StageExecutor::DecideBatch(const std::vector<CandidatePair>& batch,
                                ColumnarMatcher* matcher,
                                std::vector<PairDecisionRecord>* out,
                                CacheRunStats* cache_counts) const {
  out->reserve(batch.size());
  // A cache-ineligible plan (custom comparators: decision fingerprint
  // 0) runs uncached rather than risking cross-instance collisions.
  const bool use_cache =
      options_.cache != nullptr && plan_->decision_fingerprint() != 0;
  ShardedDecisionCache* cache = options_.cache.get();
  const auto* prior =
      options_.prior_decision ? &options_.prior_decision : nullptr;
  const RelationArena& arena = matcher->arena();
  PairDecisionKey key;
  key.plan_fingerprint = plan_->decision_fingerprint();
  for (const CandidatePair& pair : batch) {
    if (prior != nullptr) {
      if (std::optional<CachedPairDecision> known =
              (*prior)(pair.first, pair.second)) {
        out->push_back({static_cast<uint32_t>(pair.first),
                        static_cast<uint32_t>(pair.second),
                        known->similarity, known->match_class});
        continue;
      }
    }
    const uint64_t d1 = arena.tuple_digest(pair.first);
    const uint64_t d2 = arena.tuple_digest(pair.second);
    if (use_cache) {
      key.pair_digest = CombineTupleDigests(d1, d2);
      std::optional<CachedPairDecision> cached = cache->Lookup(key);
      ++cache_counts->lookups;
      if (cached.has_value()) {
        ++cache_counts->hits;
        out->push_back({static_cast<uint32_t>(pair.first),
                        static_cast<uint32_t>(pair.second),
                        cached->similarity, cached->match_class});
        continue;
      }
      ++cache_counts->misses;
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
    const XPairDecision decision = matcher->Decide(i1, i2);
    if (use_cache) {
      cache->Insert(key, {decision.similarity, decision.match_class});
      ++cache_counts->inserts;
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
  if (options_.workers > kMaxWorkers) {
    return Status::InvalidArgument("workers must be at most " +
                                   std::to_string(kMaxWorkers));
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
  if (options_.cache != nullptr) result.cache_stats = CacheRunStats{};

  // Pulls are serialized under one mutex and batches indexed in pull
  // order, so batch k's content is independent of which worker claims
  // it or when. The decision cache handle (consulted inside
  // DecideBatch) is the one structure every worker shares.
  std::mutex drain_mu;
  bool exhausted = false;
  OrderedRecords committed(options_.decision_sink);
  size_t batches = 0;
  size_t candidate_count = 0;
  size_t in_flight_candidates = 0;
  size_t high_water = 0;
  if (std::optional<size_t> hint = stream.candidate_count_hint()) {
    committed.Reserve(*hint);
  }
  const size_t threads = std::max<size_t>(options_.workers, 1);
  std::vector<WorkerStats> workers(threads);
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
        const Clock::time_point pull_start = Clock::now();
        size_t pulled = stream.NextBatch(options_.batch_size, &batch);
        ws.pull_seconds += Elapsed(pull_start);
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
      const Clock::time_point decide_start = Clock::now();
      DecideBatch(batch, &*matcher, &decided, &ws.cache);
      ws.tally.Add(decided);
      const Clock::time_point commit_start = Clock::now();
      const double decide =
          std::chrono::duration<double>(commit_start - decide_start).count();
      ws.decide_seconds += decide;
      ws.decide_micros.Record(MicrosFromSeconds(decide));
      committed.Commit(index, &decided);
      ws.commit_seconds += Elapsed(commit_start);
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
  for (const WorkerStats& ws : workers) {
    // The StageTimings shim perfbench/ reads: the decide seconds.
    result.stage_timings.match_seconds += ws.decide_seconds;
    if (result.cache_stats.has_value()) *result.cache_stats += ws.cache;
  }
  FinishResult(options_, stream, workers, &result);
  return result;
}

}  // namespace pdd
