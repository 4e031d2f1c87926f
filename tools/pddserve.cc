// pddserve — standing ingest consumer: tuples arrive over time, get
// decided against the standing relation as they land, and the final
// report is byte-identical to a one-shot batch run of the same tuples.
//
// Usage:
//   pddserve <arrivals.pxr> [options]
//
// The relation file is the arrival feed: a producer thread pushes its
// tuples into the bounded ingest queue at the configured rate while
// the main thread runs the standing drain, deciding every crossing
// pair of every admitted tuple as it arrives. When the feed ends the
// queue closes, the drain finishes, and the deterministic final report
// (the canonical id-sorted tuple set run through the batch path, each
// pair the live drain decided taking its live record) goes to stdout.
//
// Plan options (as for pddcli detect; see its usage): --plan FILE,
// --workers N, --batch N and --set key=value (e.g. --set
// key=name:3,job:2, --set prepare=lower,trim,collapse, --set
// classify.t_mu=0.8). Plan files apply first, then --workers and
// --batch, then every --set.
//
// Serving options:
//   --seed FILE          already-deduplicated standing prefix: arrivals
//                        are decided against it, intra-seed pairs are
//                        not re-examined (the incremental scenario)
//   --rate N             arrivals per second (default 0 = full speed)
//   --queue N            ingest queue capacity (default 256)
//   --drop               shed load when the queue is full (TryPush)
//                        instead of blocking the producer (default
//                        blocks — lossless backpressure)
//   --shuffle SEED       deterministically shuffle the arrival order
//                        (the report is identical for every order)
//   --stream-decisions   print each live decision to stderr as it
//                        commits ("decision id1 id2 class similarity")
//   --stats              print execution statistics to stderr
//
// Durability / serving artifacts:
//   --cache-capacity N   bound the decision cache (default 1048576);
//                        the live drain looks up and inserts there,
//                        the final report only for pairs no drain
//                        decided (the --seed prefix's own pairs)
//   --cache-file PATH    warm-start from PATH when it exists (the
//                        crash-restart path) and atomically replace it
//                        with the resident cache (at most capacity + 1
//                        lines) at the end
//   --snapshot-every N   also replace it every N admitted tuples while
//                        serving, waiting as long as the last save took
//                        (requires --cache-file)
//   --index FILE         compile a pdd.index.v1 serving index of the
//                        final report's decisions to FILE
//   --index-every N      also recompile it every N admitted tuples
//                        while serving, from a cached batch run of the
//                        standing set so far (requires --index)
//   --dump-relation FILE write the canonical (id-sorted) standing
//                        relation as .pxr — the exact input a batch
//                        `pddcli detect` run reproduces the report from
//   --metrics FILE       write the pdd.telemetry.v1 sidecar (includes
//                        the exec.ingest.* family and the
//                        time.ingest.admit_to_decide_micros histogram)
//   --metrics-format json|prom   sidecar format (default json)
//
// Every output file is replaced atomically (a link is written
// through). A --cache-file, --index, --dump-relation or --metrics path
// that is no regular file (a directory, /dev/null, a FIFO), is where
// stdout or stderr goes (/dev/stdout) or lies in a missing directory
// exits 1 before serving starts.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "cache/decision_cache.h"
#include "core/config.h"
#include "core/report_writer.h"
#include "core/tool_args.h"
#include "decision/classifier.h"
#include "index/index_builder.h"
#include "ingest/standing_session.h"
#include "obs/export.h"
#include "obs/run_telemetry.h"
#include "pdb/text_format.h"
#include "pipeline/detection_plan.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace {

using namespace pdd;

int Fail(const std::string& message) {
  std::cerr << "pddserve: " << message << "\n";
  return 1;
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Latency + live-decision accounting, driven from the executor's
/// decision sink (calls are serialized by the executor, so no lock).
struct SinkState {
  const IngestStream* stream = nullptr;
  bool stream_decisions = false;
  LogHistogram latency;
};

void OnDecision(SinkState* state, const PairDecisionRecord& rec) {
  if (state->stream_decisions) {
    // Both tuples are published (the pair was emitted), so their ids
    // are safe to read while the drain keeps admitting.
    const XRelation& standing = state->stream->relation();
    std::cerr << "decision " << standing.xtuple(rec.index1).id() << " "
              << standing.xtuple(rec.index2).id() << " "
              << MatchClassCode(rec.match_class) << " "
              << FormatDouble(rec.similarity, 6) << "\n";
  }
  // Records arrive in pull order, so tuple j is decided once its last
  // crossing pair, (j - 1, j), commits.
  if (rec.index1 + 1 != rec.index2) return;
  const uint64_t stamp = state->stream->admitted_stamp(rec.index2);
  if (stamp != 0) {
    const uint64_t now = NowMicros();
    state->latency.Record(now > stamp ? now - stamp : 0);
  }
}

/// Compiles the current standing set into a pdd.index.v1 file while
/// the live drain runs: batch re-run of the canonical snapshot (shared
/// cache makes already-decided pairs free), then image build + atomic
/// replace.
Status BuildIndexOnce(StandingSession* session, const std::string& path,
                      size_t batch_size,
                      std::shared_ptr<ShardedDecisionCache> cache) {
  XRelation canonical = session->CanonicalRelation();
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<CandidateStream> stream,
                       MakeFullStream(*session->plan(), canonical));
  StageExecutorOptions options;
  options.batch_size = batch_size;
  options.cache = std::move(cache);
  PDD_ASSIGN_OR_RETURN(
      DetectionResult result,
      StageExecutor(session->plan(), options).Execute(*stream));
  PDD_ASSIGN_OR_RETURN(std::string image,
                       BuildDecisionIndexImage(canonical, result));
  return WriteDecisionIndexFile(path, image);
}

}  // namespace

int main(int argc, char** argv) {
  std::string seed_file;
  double rate = 0.0;
  size_t queue_capacity = 256;
  bool drop_mode = false;
  std::optional<uint64_t> shuffle_seed;
  bool stream_decisions = false;
  bool stats = false;
  size_t snapshot_every = 0;
  std::string index_file;
  size_t index_every = 0;
  std::string dump_relation;
  Result<ToolArgs> args = ParseToolArgs(
      {argv + 1, argv + argc}, kPlanFlags | kSidecarFlags | kCacheFlags,
      {TextFlag("--seed", &seed_file),
       {"--rate", true,
        [&rate](const std::string& v) {
          return ParseDouble(v, &rate) && rate >= 0
                     ? Status::OK()
                     : Status::InvalidArgument(
                           "--rate needs a non-negative number");
        }},
       CountFlag("--queue", &queue_capacity),
       SwitchFlag("--drop", &drop_mode),
       {"--shuffle", true,
        [&shuffle_seed](const std::string& v) {
          size_t n = 0;
          if (!ParseSize(v, &n)) {
            return Status::InvalidArgument(
                "--shuffle needs a non-negative integer seed");
          }
          shuffle_seed = n;
          return Status::OK();
        }},
       SwitchFlag("--stream-decisions", &stream_decisions),
       SwitchFlag("--stats", &stats),
       CountFlag("--snapshot-every", &snapshot_every),
       OutputPathFlag("--index", &index_file),
       CountFlag("--index-every", &index_every),
       OutputPathFlag("--dump-relation", &dump_relation)});
  if (!args.ok()) return Fail(args.status().ToString());
  if (args->positional.size() != 1) {
    return Fail("usage: pddserve <arrivals.pxr> [options]");
  }
  if (snapshot_every > 0 && args->cache_file.empty()) {
    return Fail("--snapshot-every requires --cache-file");
  }
  if (index_every > 0 && index_file.empty()) {
    return Fail("--index-every requires --index");
  }
  Result<XRelation> arrivals = LoadXRelation(args->positional[0]);
  if (!arrivals.ok()) return Fail(arrivals.status().ToString());
  std::optional<XRelation> seed;
  if (!seed_file.empty()) {
    Result<XRelation> loaded = LoadXRelation(seed_file);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    seed = std::move(loaded).value();
  }
  Result<DetectorConfig> config = ResolveConfig(*args, arrivals->schema());
  if (!config.ok()) return Fail(config.status().ToString());

  Result<std::shared_ptr<const DetectionPlan>> plan = DetectionPlan::Compile(
      std::move(config).value(),
      seed.has_value() ? seed->schema() : arrivals->schema());
  if (!plan.ok()) return Fail(plan.status().ToString());

  // The decision cache is always on for a standing run — it is what
  // makes the crash-restart warm-up and the cadence index builds cheap.
  Result<std::shared_ptr<ShardedDecisionCache>> opened =
      OpenCache(*args, stats ? &std::cerr : nullptr);
  if (!opened.ok()) return Fail(opened.status().ToString());
  std::shared_ptr<ShardedDecisionCache> cache = *opened;

  SinkState sink_state;
  sink_state.stream_decisions = stream_decisions;

  StandingSession::Options session_options;
  session_options.stream.queue_capacity = queue_capacity;
  session_options.stream.max_admitted =
      std::max<size_t>(arrivals->size(), 1);
  session_options.batch_size = (*plan)->config().batch_size;
  session_options.workers = (*plan)->config().workers;
  session_options.cache = cache;
  session_options.decision_sink = [&sink_state](
                                      const PairDecisionRecord& rec) {
    OnDecision(&sink_state, rec);
  };
  Result<std::unique_ptr<StandingSession>> session = StandingSession::Make(
      *plan, seed.has_value() ? &*seed : nullptr, session_options);
  if (!session.ok()) return Fail(session.status().ToString());
  sink_state.stream = &(*session)->stream();

  // Arrival order: file order, or a seeded deterministic shuffle (the
  // report is identical either way — that is the point of the tool).
  std::vector<size_t> order(arrivals->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (shuffle_seed.has_value()) {
    std::mt19937_64 rng(*shuffle_seed);
    std::shuffle(order.begin(), order.end(), rng);
  }

  std::thread producer([&] {
    IngestQueue& queue = (*session)->queue();
    auto next_time = std::chrono::steady_clock::now();
    const auto interval =
        rate > 0 ? std::chrono::microseconds(
                       static_cast<uint64_t>(1e6 / rate))
                 : std::chrono::microseconds(0);
    for (size_t idx : order) {
      if (rate > 0) {
        next_time += interval;
        std::this_thread::sleep_until(next_time);
      }
      XTuple tuple = arrivals->xtuple(idx);
      const uint64_t stamp = NowMicros();
      if (drop_mode) {
        queue.TryPush(std::move(tuple), stamp);
      } else {
        queue.Push(std::move(tuple), stamp);
      }
    }
    queue.Close();
  });

  // Maintenance: cache snapshots and index recompiles on an
  // admitted-tuple cadence, off the drain's critical path.
  std::atomic<bool> serving{true};
  uint64_t snapshot_count = 0;
  uint64_t index_build_count = 0;
  std::thread maintenance;
  if (snapshot_every > 0 || index_every > 0) {
    maintenance = std::thread([&] {
      uint64_t last_snapshot = 0;
      uint64_t last_index = 0;
      // A save writes the whole resident set, so the next one waits as
      // long as the last took: saves hold at most half of this thread.
      auto next_save = std::chrono::steady_clock::now();
      while (serving.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const uint64_t admitted =
            (*session)->stream().admission_stats().admitted;
        const auto now = std::chrono::steady_clock::now();
        if (snapshot_every > 0 && admitted >= last_snapshot + snapshot_every &&
            now >= next_save) {
          last_snapshot = admitted;
          if (cache->SaveSnapshot(args->cache_file).ok()) ++snapshot_count;
          const auto done = std::chrono::steady_clock::now();
          next_save = done + (done - now);
        }
        if (index_every > 0 && admitted >= last_index + index_every) {
          last_index = admitted;
          if (BuildIndexOnce(session->get(), index_file,
                             session_options.batch_size, cache)
                  .ok()) {
            ++index_build_count;
          }
        }
      }
    });
  }

  // The standing drain: decides every crossing pair of every admitted
  // tuple, blocking on the queue between arrivals, until Close. The
  // session keeps the live records for Finish(), so this copy goes as
  // soon as its cache counters and telemetry are read.
  CacheRunStats live_cache;
  std::shared_ptr<const RunTelemetry> live_telemetry;
  {
    Result<DetectionResult> live = (*session)->Drain();
    producer.join();
    serving.store(false);
    if (maintenance.joinable()) maintenance.join();
    if (!live.ok()) return Fail(live.status().ToString());
    live_cache = live->cache_stats.value_or(CacheRunStats{});
    live_telemetry = live->telemetry;
  }

  // The deterministic final report (byte-identical to a one-shot batch
  // run of the canonical tuple set, for any arrival order).
  Result<DetectionResult> final_result = (*session)->Finish();
  if (!final_result.ok()) return Fail(final_result.status().ToString());

  if (!dump_relation.empty()) {
    Status dumped = WriteFileAtomically(
        dump_relation, SerializeXRelation((*session)->CanonicalRelation()));
    if (!dumped.ok()) return Fail(dumped.ToString());
  }
  if (!args->cache_file.empty()) {
    Status saved = cache->SaveSnapshot(args->cache_file);
    if (!saved.ok()) return Fail(saved.ToString());
    ++snapshot_count;
  }
  if (!index_file.empty()) {
    Result<std::string> image = BuildDecisionIndexImage(
        (*session)->CanonicalRelation(), *final_result);
    if (!image.ok()) return Fail(image.status().ToString());
    Status built = WriteDecisionIndexFile(index_file, *image);
    if (!built.ok()) return Fail(built.ToString());
    ++index_build_count;
  }

  if (stats || !args->metrics_file.empty()) {
    RunTelemetry telemetry = *final_result->telemetry;
    // The cache and the drain work live; Finish() adds only the pairs
    // no drain decided.
    live_cache += final_result->cache_stats.value_or(CacheRunStats{});
    SetCacheRunStats(live_cache, &telemetry.metrics);
    AddRunTimings(*live_telemetry, &telemetry);
    (*session)->AddIngestStats(&telemetry.metrics);
    telemetry.metrics.SetCounter(kMetricIngestCacheSnapshots, snapshot_count);
    telemetry.metrics.SetCounter(kMetricIngestIndexBuilds, index_build_count);
    if (sink_state.latency.count() > 0) {
      telemetry.metrics.MutableHistogram(kMetricIngestAdmitToDecideMicros)
          ->Merge(sink_state.latency);
    }
    AddCacheLifetimeStats(cache->Stats(), &telemetry.metrics);
    if (stats) std::cerr << RenderExecutionStats(telemetry);
    Status written = WriteSidecar(*args, telemetry);
    if (!written.ok()) return Fail(written.ToString());
  }

  std::cout << DetectionReport(*final_result, nullptr);
  return 0;
}
