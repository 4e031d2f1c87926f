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
// (the canonical id-sorted tuple set re-run through the batch path,
// ~100% decision-cache hits) goes to stdout.
//
// Detection options (same semantics as pddcli detect):
//   --plan FILE          declarative plan spec, applied first
//   --set key=value      override one plan parameter (applied last)
//   --key attr:len[,..]  sorting key (default: first two attributes)
//   --prepare            lowercase/trim/collapse before matching
//   --t-lambda X --t-mu Y  classification thresholds
//   --workers N          decide batches on N threads (default 0)
//   --batch N            candidates per executor batch (default 256)
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
//   --cache-capacity N   bound the decision cache (default 1048576)
//   --cache-file PATH    warm-start from PATH when it exists (the
//                        crash-restart path) and append new decisions
//   --snapshot-every N   also append a cache snapshot every N admitted
//                        tuples while serving (requires --cache-file)
//   --index FILE         compile a pdd.index.v1 serving index of the
//                        standing set to FILE after the final report
//   --index-every N      also recompile it every N admitted tuples
//                        while serving (requires --index)
//   --dump-relation FILE write the canonical (id-sorted) standing
//                        relation as .pxr — the exact input a batch
//                        `pddcli detect` run reproduces the report from
//   --metrics FILE       write the pdd.telemetry.v1 sidecar (includes
//                        the exec.ingest.* family and the
//                        time.ingest.admit_to_decide_micros histogram)
//   --metrics-format json|prom   sidecar format (default json)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/decision_cache.h"
#include "core/config.h"
#include "core/report_writer.h"
#include "decision/classifier.h"
#include "index/index_builder.h"
#include "ingest/standing_session.h"
#include "obs/export.h"
#include "obs/run_telemetry.h"
#include "pdb/text_format.h"
#include "pipeline/detection_plan.h"
#include "plan/plan_spec.h"
#include "plan/translate.h"
#include "prep/standardizer.h"
#include "util/string_util.h"

namespace {

using namespace pdd;

int Fail(const std::string& message) {
  std::cerr << "pddserve: " << message << "\n";
  return 1;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Result<XRelation> LoadRelation(const std::string& path) {
  PDD_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  return ParseXRelation(text);
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
  /// index2 -> crossing pairs still undecided for that tuple. Tuple j
  /// has exactly j crossing pairs (0,j)..(j-1,j).
  std::unordered_map<size_t, size_t> remaining;
  LogHistogram latency;
  uint64_t decided_tuples = 0;
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
  const size_t j = rec.index2;
  auto [it, inserted] = state->remaining.emplace(j, j);
  if (--(it->second) > 0) return;
  state->remaining.erase(it);
  ++state->decided_tuples;
  const uint64_t stamp = state->stream->admitted_stamp(j);
  if (stamp != 0) {
    const uint64_t now = NowMicros();
    state->latency.Record(now > stamp ? now - stamp : 0);
  }
}

/// Compiles the current standing set into a pdd.index.v1 file: batch
/// re-run of the canonical snapshot (shared cache makes already-decided
/// pairs free), then image build + atomic replace via temp + rename.
/// Safe to call while the live drain runs.
Status BuildIndexOnce(StandingSession* session, const std::string& path,
                      size_t batch_size, std::shared_ptr<DecisionCache> cache) {
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
  const std::string tmp = path + ".tmp";
  PDD_RETURN_IF_ERROR(WriteDecisionIndexFile(tmp, image));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: pddserve <arrivals.pxr> [options]");
  }
  Result<XRelation> arrivals = LoadRelation(argv[1]);
  if (!arrivals.ok()) return Fail(arrivals.status().ToString());

  DetectorConfig config;
  config.key.clear();
  config.key.emplace_back(arrivals->schema().attribute(0).name, 3);
  if (arrivals->schema().arity() > 1) {
    config.key.emplace_back(arrivals->schema().attribute(1).name, 2);
  }
  config.weights.assign(arrivals->schema().arity(),
                        1.0 / static_cast<double>(arrivals->schema().arity()));
  // A plan file applies before any other option, wherever it appears.
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--plan") {
      if (i + 1 >= argc) return Fail("--plan needs a file");
      Result<std::string> text = ReadFile(argv[i + 1]);
      if (!text.ok()) return Fail(text.status().ToString());
      Result<PlanSpec> spec = PlanSpec::Parse(*text);
      if (!spec.ok()) return Fail(spec.status().ToString());
      Result<DetectorConfig> merged =
          DetectorConfig::FromSpec(*spec, std::move(config));
      if (!merged.ok()) return Fail(merged.status().ToString());
      config = std::move(merged).value();
    }
  }

  std::optional<XRelation> seed;
  double rate = 0.0;
  size_t queue_capacity = 256;
  bool drop_mode = false;
  bool have_shuffle = false;
  uint64_t shuffle_seed = 0;
  bool stream_decisions = false;
  bool stats = false;
  size_t cache_capacity = 0;
  std::string cache_file;
  size_t snapshot_every = 0;
  std::string index_file;
  size_t index_every = 0;
  std::string dump_relation;
  std::string metrics_file;
  std::string metrics_format = "json";
  PlanSpec overrides;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--plan") {
      ++i;  // handled in the first pass
    } else if (arg == "--set") {
      const char* v = next();
      if (v == nullptr) return Fail("--set needs key=value");
      Status status = overrides.SetAssignment(v);
      if (!status.ok()) return Fail(status.ToString());
    } else if (arg == "--key") {
      const char* v = next();
      if (v == nullptr) return Fail("--key needs a value");
      Result<std::vector<std::pair<std::string, size_t>>> key =
          ParseKeyComponents(v);
      if (!key.ok()) return Fail(key.status().ToString());
      config.key = std::move(key).value();
    } else if (arg == "--prepare") {
      Standardizer standard;
      standard.LowerCase().TrimWhitespace().CollapseWhitespace();
      config.preparation = DataPreparation::UniformAll(std::move(standard));
    } else if (arg == "--t-lambda") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &config.final_thresholds.t_lambda)) {
        return Fail("--t-lambda needs a number");
      }
    } else if (arg == "--t-mu") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &config.final_thresholds.t_mu)) {
        return Fail("--t-mu needs a number");
      }
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr || !ParseSize(v, &config.workers)) {
        return Fail("--workers needs a non-negative integer");
      }
    } else if (arg == "--batch") {
      const char* v = next();
      size_t n = 0;
      if (v == nullptr || !ParseSize(v, &n) || n < 1) {
        return Fail("--batch needs a positive integer");
      }
      config.batch_size = n;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Fail("--seed needs a file");
      Result<XRelation> loaded = LoadRelation(v);
      if (!loaded.ok()) return Fail(loaded.status().ToString());
      seed = std::move(loaded).value();
    } else if (arg == "--rate") {
      const char* v = next();
      if (v == nullptr || !ParseDouble(v, &rate) || rate < 0) {
        return Fail("--rate needs a non-negative number");
      }
    } else if (arg == "--queue") {
      const char* v = next();
      size_t n = 0;
      if (v == nullptr || !ParseSize(v, &n) || n < 1) {
        return Fail("--queue needs a positive integer");
      }
      queue_capacity = n;
    } else if (arg == "--drop") {
      drop_mode = true;
    } else if (arg == "--shuffle") {
      const char* v = next();
      size_t n = 0;
      if (v == nullptr || !ParseSize(v, &n)) {
        return Fail("--shuffle needs a non-negative integer seed");
      }
      have_shuffle = true;
      shuffle_seed = n;
    } else if (arg == "--stream-decisions") {
      stream_decisions = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--cache-capacity") {
      const char* v = next();
      size_t n = 0;
      if (v == nullptr || !ParseSize(v, &n) || n < 1) {
        return Fail("--cache-capacity needs a positive integer");
      }
      cache_capacity = n;
    } else if (arg == "--cache-file") {
      const char* v = next();
      if (v == nullptr) return Fail("--cache-file needs a path");
      cache_file = v;
    } else if (arg == "--snapshot-every") {
      const char* v = next();
      size_t n = 0;
      if (v == nullptr || !ParseSize(v, &n) || n < 1) {
        return Fail("--snapshot-every needs a positive integer");
      }
      snapshot_every = n;
    } else if (arg == "--index") {
      const char* v = next();
      if (v == nullptr) return Fail("--index needs a file");
      index_file = v;
    } else if (arg == "--index-every") {
      const char* v = next();
      size_t n = 0;
      if (v == nullptr || !ParseSize(v, &n) || n < 1) {
        return Fail("--index-every needs a positive integer");
      }
      index_every = n;
    } else if (arg == "--dump-relation") {
      const char* v = next();
      if (v == nullptr) return Fail("--dump-relation needs a file");
      dump_relation = v;
    } else if (arg == "--metrics") {
      const char* v = next();
      if (v == nullptr) return Fail("--metrics needs a file");
      metrics_file = v;
    } else if (arg == "--metrics-format") {
      const char* v = next();
      if (v == nullptr ||
          (std::string(v) != "json" && std::string(v) != "prom")) {
        return Fail("--metrics-format needs json or prom");
      }
      metrics_format = v;
    } else {
      return Fail("unknown option '" + arg + "'");
    }
  }
  if (snapshot_every > 0 && cache_file.empty()) {
    return Fail("--snapshot-every requires --cache-file");
  }
  if (index_every > 0 && index_file.empty()) {
    return Fail("--index-every requires --index");
  }
  if (!overrides.params().empty()) {
    Result<DetectorConfig> merged =
        DetectorConfig::FromSpec(overrides, std::move(config));
    if (!merged.ok()) return Fail(merged.status().ToString());
    config = std::move(merged).value();
  }

  Result<std::shared_ptr<const DetectionPlan>> plan = DetectionPlan::Compile(
      std::move(config),
      seed.has_value() ? seed->schema() : arrivals->schema());
  if (!plan.ok()) return Fail(plan.status().ToString());

  // The decision cache is always on for a standing run — it is what
  // makes the deterministic final report nearly free and the
  // crash-restart warm-up possible.
  ShardedDecisionCacheOptions cache_options;
  if (cache_capacity > 0) cache_options.capacity = cache_capacity;
  auto cache = std::make_shared<ShardedDecisionCache>(cache_options);
  if (!cache_file.empty()) {
    Status loaded = cache->LoadSnapshot(cache_file);
    // A missing file is a cold first start, not an error.
    if (!loaded.ok() && loaded.code() != StatusCode::kNotFound) {
      return Fail(loaded.ToString());
    }
  }

  SinkState sink_state;
  sink_state.stream_decisions = stream_decisions;

  StandingSession::Options session_options;
  session_options.stream.queue_capacity = queue_capacity;
  session_options.stream.max_admitted =
      std::max<size_t>(arrivals->size(), 1);
  session_options.batch_size = (*plan)->config().batch_size;
  session_options.workers = (*plan)->config().workers;
  session_options.stage_timings = stats;
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
  if (have_shuffle) {
    std::mt19937_64 rng(shuffle_seed);
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
      while (serving.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const uint64_t admitted =
            (*session)->stream().admission_stats().admitted;
        if (snapshot_every > 0 && admitted >= last_snapshot + snapshot_every) {
          last_snapshot = admitted;
          if (cache->AppendSnapshot(cache_file).ok()) ++snapshot_count;
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
  // tuple, blocking on the queue between arrivals, until Close.
  Result<DetectionResult> live = (*session)->Drain();
  producer.join();
  serving.store(false);
  if (maintenance.joinable()) maintenance.join();
  if (!live.ok()) return Fail(live.status().ToString());

  // The deterministic final report (byte-identical to a one-shot batch
  // run of the canonical tuple set, for any arrival order).
  Result<DetectionResult> final_result = (*session)->Finish();
  if (!final_result.ok()) return Fail(final_result.status().ToString());

  if (!dump_relation.empty()) {
    std::ofstream out(dump_relation);
    if (!out) return Fail("cannot write '" + dump_relation + "'");
    out << SerializeXRelation((*session)->CanonicalRelation());
    if (!out.good()) return Fail("error writing '" + dump_relation + "'");
  }
  if (!cache_file.empty()) {
    Status saved = cache->AppendSnapshot(cache_file);
    if (!saved.ok()) return Fail(saved.ToString());
    ++snapshot_count;
  }
  if (!index_file.empty()) {
    Status built = BuildIndexOnce(session->get(), index_file,
                                  session_options.batch_size, cache);
    if (!built.ok()) return Fail(built.ToString());
    ++index_build_count;
  }

  if (stats || !metrics_file.empty()) {
    RunTelemetry telemetry = final_result->telemetry != nullptr
                                 ? *final_result->telemetry
                                 : TelemetryFromResult(*final_result);
    (*session)->AddIngestStats(&telemetry.metrics);
    telemetry.metrics.SetCounter(kMetricIngestCacheSnapshots, snapshot_count);
    telemetry.metrics.SetCounter(kMetricIngestIndexBuilds, index_build_count);
    if (sink_state.latency.count() > 0) {
      telemetry.metrics.MutableHistogram(kMetricIngestAdmitToDecideMicros)
          ->Merge(sink_state.latency);
    }
    AddCacheLifetimeStats(cache->Stats(), &telemetry.metrics);
    if (stats) std::cerr << RenderExecutionStats(telemetry);
    if (!metrics_file.empty()) {
      std::ofstream out(metrics_file);
      if (!out) return Fail("cannot write '" + metrics_file + "'");
      out << (metrics_format == "prom" ? TelemetryToPrometheus(telemetry)
                                       : TelemetryToJson(telemetry));
      if (!out.good()) return Fail("error writing '" + metrics_file + "'");
    }
  }

  std::cout << DetectionReport(*final_result, nullptr);
  return 0;
}
