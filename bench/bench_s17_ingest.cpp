// S17: the standing ingest path — tuples pushed into the bounded MPSC
// queue at full producer speed, decided live against the standing
// relation, then the deterministic Finish(). Gates:
//
//   1. byte-identical report: the standing Finish() report (shuffled
//      arrival order, live drain + canonical run over its records)
//      matches the one-shot batch run of the same tuple set, byte for
//      byte;
//   2. lossless backpressure: blocking Push sheds nothing (arrivals ==
//      admitted, dropped == 0) and the queue high-water stays within
//      its configured capacity;
//   3. sustained ingest: the live drain keeps up with a full-speed
//      producer at >= 200 admitted tuples/s (a floor that holds on
//      cold CI runners; real rates are orders of magnitude higher);
//   4. bounded admission-to-decision latency: p99 of the time from a
//      tuple's successful push to its last crossing pair committing
//      stays under 1 s (log-bucket upper bound, so generous by
//      construction);
//   5. Finish() decides nothing: with the cache attached it makes zero
//      cache lookups and zero inserts, and its candidate count equals
//      the live decision count — every finish pair takes its live
//      record (the live drain already decided the full crossing set).
//
// The sidecar records the rates for bench_compare.py's throughput gate
// (keys ending _per_sec), the share of finish candidates answered by
// live records (finish_live_hit_rate, exactly 1.0), the report-equality
// invariant (report_identical), and the full admission-to-decision
// latency histogram.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "cache/decision_cache.h"
#include "core/detector.h"
#include "core/report_writer.h"
#include "datagen/person_generator.h"
#include "ingest/ingest_queue.h"
#include "ingest/ingest_stream.h"
#include "ingest/standing_session.h"
#include "obs/log_histogram.h"
#include "pipeline/detection_plan.h"
#include "util/table_printer.h"

namespace {

using namespace pdd;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Admission-to-decision latency, driven from the live drain's
/// decision sink (sink calls are serialized by the executor). Tuple j
/// has exactly j crossing pairs (0,j)..(j-1,j); its latency closes
/// when the last of them commits.
struct SinkState {
  const IngestStream* stream = nullptr;
  std::unordered_map<size_t, size_t> remaining;
  LogHistogram latency;
};

void OnDecision(SinkState* state, const PairDecisionRecord& rec) {
  const size_t j = rec.index2;
  auto [it, inserted] = state->remaining.emplace(j, j);
  if (--(it->second) > 0) return;
  state->remaining.erase(it);
  const uint64_t stamp = state->stream->admitted_stamp(j);
  if (stamp != 0) {
    const uint64_t now = NowMicros();
    state->latency.Record(now > stamp ? now - stamp : 0);
  }
}

}  // namespace

int main() {
  pdd_bench::Banner(
      "S17 standing ingest",
      "push-based arrivals decided against the standing relation as they "
      "land; the final report is byte-identical to a one-shot batch run "
      "for any arrival order");

  PersonGenOptions gen;
  gen.num_entities = 250;
  gen.duplicate_rate = 0.8;
  gen.seed = 170101;  // fixed: the report diff must be reproducible
  GeneratedData data = GeneratePersons(gen);
  // The batch reference must see the tuples in the same order the
  // standing Finish() re-runs them: the canonical id-sorted order
  // (lexicographic ids, so generation order r2 > r10 differs).
  std::vector<XTuple> sorted(data.relation.xtuples().begin(),
                             data.relation.xtuples().end());
  std::sort(sorted.begin(), sorted.end(),
            [](const XTuple& a, const XTuple& b) { return a.id() < b.id(); });
  XRelation rel(data.relation.name(), data.relation.schema());
  rel.Reserve(sorted.size());
  for (XTuple& tuple : sorted) rel.AppendUnchecked(std::move(tuple));

  DetectorConfig config;
  config.key = {{"name", 3}, {"job", 2}};
  config.weights = {0.5, 0.3, 0.2};

  // --- the one-shot batch reference ----------------------------------
  auto detector = DuplicateDetector::Make(config, rel.schema());
  if (!detector.ok()) {
    std::cout << detector.status().ToString() << "\n";
    return pdd_bench::Verdict(false);
  }
  const auto batch_start = std::chrono::steady_clock::now();
  auto batch_result = detector->Run(rel);
  const double batch_seconds = Seconds(batch_start);
  if (!batch_result.ok()) {
    std::cout << batch_result.status().ToString() << "\n";
    return pdd_bench::Verdict(false);
  }
  const std::string batch_report = DetectionReport(*batch_result, nullptr);

  // --- the standing run ----------------------------------------------
  auto plan = DetectionPlan::Compile(config, rel.schema());
  if (!plan.ok()) {
    std::cout << plan.status().ToString() << "\n";
    return pdd_bench::Verdict(false);
  }
  auto cache = std::make_shared<ShardedDecisionCache>();
  SinkState sink;
  StandingSession::Options options;
  options.stream.queue_capacity = 64;
  options.stream.max_admitted = rel.size();
  options.batch_size = config.batch_size;
  options.cache = cache;
  options.decision_sink = [&sink](const PairDecisionRecord& rec) {
    OnDecision(&sink, rec);
  };
  auto session = StandingSession::Make(*plan, nullptr, std::move(options));
  if (!session.ok()) {
    std::cout << session.status().ToString() << "\n";
    return pdd_bench::Verdict(false);
  }
  sink.stream = &(*session)->stream();

  // Deterministically shuffled arrival order — the order the report
  // must be independent of — pushed at full producer speed against the
  // queue's blocking backpressure.
  std::vector<size_t> order(rel.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::mt19937 rng(170202);
  std::shuffle(order.begin(), order.end(), rng);
  const auto drain_start = std::chrono::steady_clock::now();
  std::thread producer([&]() {
    for (size_t index : order) {
      (*session)->queue().Push(rel.xtuple(index), NowMicros());
    }
    (*session)->queue().Close();
  });
  auto live = (*session)->Drain();
  producer.join();
  const double drain_seconds = Seconds(drain_start);
  if (!live.ok()) {
    std::cout << live.status().ToString() << "\n";
    return pdd_bench::Verdict(false);
  }

  const IngestQueueStats queue_stats = (*session)->queue().Stats();
  const IngestStream::AdmissionStats admission =
      (*session)->stream().admission_stats();
  const double sustained_per_sec =
      drain_seconds > 0.0
          ? static_cast<double>(admission.admitted) / drain_seconds
          : 0.0;
  const double live_pairs_per_sec =
      drain_seconds > 0.0
          ? static_cast<double>(live->decisions.size()) / drain_seconds
          : 0.0;

  // --- the deterministic finish --------------------------------------
  auto finish = (*session)->Finish();
  if (!finish.ok()) {
    std::cout << finish.status().ToString() << "\n";
    return pdd_bench::Verdict(false);
  }
  const std::string finish_report = DetectionReport(*finish, nullptr);
  const CacheRunStats finish_cache =
      finish->cache_stats.value_or(CacheRunStats{});

  // --- gates ----------------------------------------------------------
  bool ok = true;
  const bool report_identical = finish_report == batch_report;
  if (!report_identical) {
    std::cout << "standing finish report diverges from the batch report\n";
    ok = false;
  }
  if (queue_stats.dropped != 0 ||
      queue_stats.arrivals != queue_stats.admitted) {
    std::cout << "blocking push shed load: " << queue_stats.dropped
              << " dropped of " << queue_stats.arrivals << " arrivals\n";
    ok = false;
  }
  if (queue_stats.high_water > queue_stats.capacity) {
    std::cout << "queue high-water " << queue_stats.high_water
              << " exceeded capacity " << queue_stats.capacity << "\n";
    ok = false;
  }
  if (sustained_per_sec < 200.0) {
    std::cout << "sustained ingest " << pdd_bench::Fmt(sustained_per_sec, 1)
              << " tuples/s below the 200/s floor\n";
    ok = false;
  }
  const double p99_micros = static_cast<double>(sink.latency.Quantile(0.99));
  if (p99_micros > 1e6) {
    std::cout << "p99 admission-to-decision latency "
              << pdd_bench::Fmt(p99_micros / 1000.0, 1)
              << " ms above the 1 s ceiling\n";
    ok = false;
  }
  // Every candidate the finish run did not look up in the cache took
  // its live record.
  const double finish_live_hit_rate =
      finish->candidate_count == 0
          ? 0.0
          : static_cast<double>(finish->candidate_count -
                                finish_cache.lookups) /
                static_cast<double>(finish->candidate_count);
  if (!finish->cache_stats.has_value() || finish_cache.lookups != 0 ||
      finish_cache.inserts != 0 ||
      finish->candidate_count != live->decisions.size()) {
    std::cout << "Finish() decided pairs the live drain had decided: "
              << finish_cache.lookups << " cache lookups, "
              << finish_cache.inserts << " inserts, "
              << finish->candidate_count << " candidates against "
              << live->decisions.size() << " live decisions\n";
    ok = false;
  }

  pdd::TablePrinter table({"metric", "value"});
  table.AddRow({"records", std::to_string(rel.size())});
  table.AddRow({"live decisions", std::to_string(live->decisions.size())});
  table.AddRow({"batch run", pdd_bench::Fmt(batch_seconds, 4) + " s"});
  table.AddRow({"live drain", pdd_bench::Fmt(drain_seconds, 4) + " s"});
  table.AddRow({"sustained ingest",
                pdd_bench::Fmt(sustained_per_sec, 1) + " tuples/s"});
  table.AddRow({"live decide rate",
                pdd_bench::Fmt(live_pairs_per_sec / 1e3, 1) + " K pairs/s"});
  table.AddRow(
      {"admit->decide p50",
       pdd_bench::Fmt(static_cast<double>(sink.latency.Quantile(0.5)), 0) +
           " us"});
  table.AddRow({"admit->decide p99", pdd_bench::Fmt(p99_micros, 0) + " us"});
  table.AddRow({"queue high-water",
                std::to_string(queue_stats.high_water) + " / " +
                    std::to_string(queue_stats.capacity)});
  table.AddRow({"finish live hit rate",
                pdd_bench::Fmt(finish_live_hit_rate, 4)});
  table.AddRow({"report identical", report_identical ? "yes" : "NO"});
  std::cout << table.ToString() << "\n";
  std::cout << "latency = successful push to last crossing pair committed "
               "(log-bucket upper bounds); Finish() takes every pair's "
               "decision from the live drain's records.\n";

  pdd_bench::BenchJsonWriter json("s17");
  json.Set("bench", "s17_ingest");
  json.Set("records", static_cast<double>(rel.size()));
  json.Set("live_decisions", static_cast<double>(live->decisions.size()));
  json.Set("batch_seconds", batch_seconds);
  json.Set("drain_seconds", drain_seconds);
  json.Set("sustained_tuples_per_sec", sustained_per_sec);
  json.Set("live_pairs_per_sec", live_pairs_per_sec);
  json.Set("queue_high_water", static_cast<double>(queue_stats.high_water));
  json.Set("queue_capacity", static_cast<double>(queue_stats.capacity));
  json.Set("finish_live_hit_rate", finish_live_hit_rate);
  json.Set("report_identical", report_identical);
  json.telemetry()
      .metrics.MutableHistogram(kMetricIngestAdmitToDecideMicros)
      ->Merge(sink.latency);
  json.Write();
  return pdd_bench::Verdict(ok);
}
