// standing_ingest: the standing-service user. One producer thread pushes
// kArrivals tuples, in a seeded shuffled order, into the session's
// bounded queue on an open-loop schedule of kRate arrivals per second
// with blocking backpressure; the main thread runs the serial live
// drain. When the queue closes, Finish() re-runs the canonical relation
// through the shared decision cache, the report is rendered, and the
// index of the final report is served.
//
// The cache holds kCacheCapacity entries against the kArrivals *
// (kArrivals - 1) / 2 crossing pairs of the standing set, so it is
// outgrown: the live drain evicts and the finish replay misses part of
// the set. Admission latency runs from an arrival's due time on the
// schedule (not from when the producer actually pushed it) to the commit
// of its last crossing pair, so a stalled generator shows up as latency.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/decision_cache.h"
#include "core/detector.h"
#include "core/report_writer.h"
#include "ingest/standing_session.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kEntities = 900;
constexpr size_t kArrivals = 1200;
constexpr double kRate = 400.0;
// An arrival pushed this much after its due time flags the iteration:
// the producer missed its schedule by more than host wake-up jitter.
constexpr double kBehindMs = 10.0;
constexpr size_t kCacheCapacity = 524288;

uint64_t StampOf(double due_s) {
  // Stamp 0 means "seeded tuple"; shift by one microsecond.
  return static_cast<uint64_t>(std::llround(due_s * 1e6)) + 1;
}

double DueOf(uint64_t stamp) { return static_cast<double>(stamp - 1) / 1e6; }

}  // namespace

void RunStandingIngest(const Options& options, Report* report) {
  PersonInput input;
  std::string error;
  if (!MakePersonInput(kEntities, options.seed, kArrivals, &input, &error)) {
    report->Expect(false, error);
    return;
  }
  report->Expect(input.tuples == kArrivals,
                 "generator yields " + std::to_string(kArrivals) + " tuples");
  if (input.tuples != kArrivals) return;
  const std::string path = options.data_dir + "/standing_ingest-" +
                           std::to_string(options.seed) + ".pxr";
  report->Expect(WriteTextFile(path, input.text), "write " + path);
  report->Note("input: " + std::to_string(input.tuples) + " tuples, " +
               std::to_string(input.alternatives) + " alternatives, " +
               std::to_string(input.pairs) + " crossing pairs; " +
               std::to_string(input.emptied_alternatives) +
               " empty texts mapped to ⊥");

  std::vector<size_t> order(input.tuples);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 shuffle_rng(options.seed);
  std::shuffle(order.begin(), order.end(), shuffle_rng);

  Trace trace(false);
  struct Setup {
    pdd::XRelation rel;
    std::shared_ptr<const pdd::DetectionPlan> plan;
    std::shared_ptr<pdd::ShardedDecisionCache> cache;
    std::unique_ptr<pdd::StandingSession> session;
  };
  // Latency bookkeeping driven from the executor's decision sink (the
  // executor serializes sink calls).
  struct SinkState {
    const pdd::IngestStream* stream = nullptr;
    /// Crossing pairs still undecided per standing index (-1 = unseen).
    std::vector<int64_t> remaining;
    /// Admission latency of every arrival whose pairs all committed.
    std::vector<double> admit_ms;
  };
  // Set-up = read + parse + plan compile + session (cache included).
  auto setup = [&](Setup* s, SinkState* sink, bool stage_timings) {
    if (!LoadRelation(&trace, path, &s->rel, report)) return false;
    Timed(&trace, "plan.compile", [&] {
      pdd::Result<std::shared_ptr<const pdd::DetectionPlan>> plan =
          pdd::DetectionPlan::Compile(DefaultConfig(s->rel.schema()),
                                      s->rel.schema());
      if (plan.ok()) s->plan = std::move(plan).value();
    });
    report->Expect(s->plan != nullptr, "plan compiles");
    if (s->plan == nullptr) return false;
    Timed(&trace, "ingest.session", [&] {
      pdd::ShardedDecisionCacheOptions cache_options;
      cache_options.capacity = kCacheCapacity;
      s->cache = std::make_shared<pdd::ShardedDecisionCache>(cache_options);
      pdd::StandingSession::Options session_options;
      session_options.stream.max_admitted = s->rel.size();
      session_options.stage_timings = stage_timings;
      session_options.cache = s->cache;
      session_options.decision_sink = [sink](const pdd::PairDecisionRecord& rec) {
        const size_t j = rec.index2;
        int64_t& left = sink->remaining[j];
        if (left < 0) left = static_cast<int64_t>(j);
        if (--left > 0) return;
        const double due_s = DueOf(sink->stream->admitted_stamp(j));
        sink->admit_ms.push_back((Now() - due_s) * 1e3);
      };
      pdd::Result<std::unique_ptr<pdd::StandingSession>> session =
          pdd::StandingSession::Make(s->plan, nullptr, session_options);
      if (session.ok()) s->session = std::move(session).value();
    });
    report->Expect(s->session != nullptr, "standing session starts");
    if (s->session == nullptr) return false;
    sink->stream = &s->session->stream();
    sink->remaining.assign(s->rel.size(), -1);
    return true;
  };
  auto setup_sample = [&] {
    Setup s;
    SinkState sink;
    const double start = Now();
    return setup(&s, &sink, false) ? Now() - start : -1.0;
  };

  std::optional<std::string> oracle_report;
  // The finish run's input (the standing set sorted by id), kept for the
  // traced run's layer probes.
  pdd::XRelation canonical;
  Measure(options, &trace, report, [&](int run, bool traced) {
    const double start = Now();
    const int root = trace.Begin("iteration");
    Setup s;
    SinkState sink;
    const bool ready = setup(&s, &sink, traced);
    const double setup_end = Now();
    if (!ready) {
      trace.End(root);
      return Now() - start;
    }

    // Open-loop producer: arrival i is due at base + i / kRate.
    pdd::IngestQueue& queue = s.session->queue();
    std::vector<double> late_ms;
    late_ms.reserve(order.size());
    double close_time = 0.0;
    std::thread producer([&] {
      const auto base_tp = std::chrono::steady_clock::now();
      const double base_s = Now();
      for (size_t i = 0; i < order.size(); ++i) {
        const double offset = static_cast<double>(i) / kRate;
        std::this_thread::sleep_until(
            base_tp + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(offset)));
        const double due_s = base_s + offset;
        late_ms.push_back((Now() - due_s) * 1e3);
        if (!queue.Push(s.rel.xtuple(order[i]), StampOf(due_s))) break;
      }
      queue.Close();
      close_time = Now();
    });
    // Joins the producer on every exit path; closing first wakes a
    // producer blocked on a full queue when the drain stopped early.
    struct ProducerJoin {
      pdd::IngestQueue& queue;
      std::thread& thread;
      ~ProducerJoin() {
        queue.Close();
        if (thread.joinable()) thread.join();
      }
    };
    pdd::Result<pdd::DetectionResult> live = pdd::Status::Internal("not run");
    {
      ProducerJoin join{queue, producer};
      Timed(&trace, "ingest.drain", [&] { live = s.session->Drain(); });
    }
    report->Expect(live.ok(), "live drain: " + live.status().ToString());

    pdd::Result<pdd::DetectionResult> final_result =
        pdd::Status::Internal("not run");
    const double finish_s = Timed(&trace, "ingest.finish",
                                  [&] { final_result = s.session->Finish(); });
    report->Expect(final_result.ok(), "finish: " + final_result.status().ToString());
    if (!live.ok() || !final_result.ok()) {
      trace.End(root);
      return Now() - start;
    }
    std::string rendered;
    Timed(&trace, "core.render",
          [&] { rendered = pdd::DetectionReport(*final_result, nullptr); });
    const double report_done = Now();
    Timed(&trace, "ingest.canonical",
          [&] { canonical = s.session->CanonicalRelation(); });
    IndexServer server;
    const ServeTimes served = server.Serve(&trace, canonical, *final_result,
                                           options.seed, kLookupSeconds,
                                           report);
    const double done = Now();
    trace.End(root);
    report->Add("peak_rss_mb", "MiB", PeakRssMiB());

    const pdd::IngestQueueStats queue_stats = queue.Stats();
    const double late_p99 = Percentile(late_ms, 99.0);
    const double late_max = *std::max_element(late_ms.begin(), late_ms.end());
    const bool behind = late_max > kBehindMs;
    report->Add("wall_s", "s", done - start);
    report->Add("setup_s", "s", setup_end - start);
    report->Add("pairs_per_sec", "1/s",
                static_cast<double>(final_result->decisions.size()) / finish_s);
    report->Add("close_to_report_s", "s", report_done - close_time);
    AddAdmitMetrics(sink.admit_ms, report);
    AddServeMetrics(served, traced, /*latency=*/false, report);
    if (traced) {
      pdd::StageTimings timings = live->stage_timings;
      timings += final_result->stage_timings;
      AddStageTimings(timings, report);
      AddCacheStats(s.cache->Stats(), report);
      report->Add("pipeline.batches", "count",
                  static_cast<double>(live->stream_stats.batches +
                                      final_result->stream_stats.batches));
      report->Add("core.report_bytes", "B",
                  static_cast<double>(rendered.size()));
      report->Add("ingest.live_pairs", "count",
                  static_cast<double>(live->decisions.size()));
      report->Add("ingest.queue_high_water", "count",
                  static_cast<double>(queue_stats.high_water));
      report->Add("ingest.dropped", "count",
                  static_cast<double>(queue_stats.dropped));
      report->Add("ingest.finish_hit_ratio", "fraction",
                  final_result->cache_stats.has_value()
                      ? final_result->cache_stats->HitRate()
                      : 0.0);
      report->Add("bench.gen_late_p99_ms", "ms", late_p99);
      report->Add("bench.gen_late_max_ms", "ms", late_max);
      report->Add("bench.gen_behind", "count", behind ? 1.0 : 0.0);
    }
    report->Note("run " + std::to_string(run) + ": generator late p99 " +
                 std::to_string(late_p99) + " ms, max " +
                 std::to_string(late_max) + " ms, queue high-water " +
                 std::to_string(queue_stats.high_water) +
                 (behind ? " — GENERATOR FELL BEHIND SCHEDULE" : ""));

    // Checks, outside the timed region.
    report->Expect(queue_stats.arrivals == kArrivals &&
                       queue_stats.admitted == kArrivals &&
                       queue_stats.dropped == 0 &&
                       s.session->stream().admission_stats().admitted ==
                           kArrivals,
                   "every arrival admitted, none dropped");
    report->Expect(sink.admit_ms.size() == kArrivals - 1,
                   "every arrival's crossing pairs committed live");
    if (!oracle_report) {
      pdd::Result<pdd::DuplicateDetector> batch = pdd::DuplicateDetector::Make(
          DefaultConfig(canonical.schema()), canonical.schema());
      pdd::Result<pdd::DetectionResult> one_shot =
          batch.ok() ? batch->Run(canonical)
                     : pdd::Result<pdd::DetectionResult>(batch.status());
      report->Expect(one_shot.ok(), "one-shot batch run of the canonical set");
      oracle_report =
          one_shot.ok() ? pdd::DetectionReport(*one_shot, nullptr) : "";
      report->Note("report digest " + Hex64(Fnv1a(*oracle_report)));
    }
    report->Expect(rendered == *oracle_report,
                   "run " + std::to_string(run) +
                       " Finish() report equals the one-shot batch report");
    server.Check(*final_result, 1 << 16, report);
    return done - start;
  }, setup_sample);

  if (options.trace) {
    trace.set_run(-1);
    ProbeArena(&trace, canonical, report);
    pdd::Result<std::shared_ptr<const pdd::DetectionPlan>> plan =
        pdd::DetectionPlan::Compile(DefaultConfig(canonical.schema()),
                                    canonical.schema());
    if (plan.ok()) {
      const ReductionProbe probe =
          ProbeReduction(&trace, **plan, canonical, report);
      report->Add("reduction.open_s", "s", probe.open_s);
      report->Add("reduction.pull_s", "s", probe.pull_s);
      report->Add("reduction.candidates", "count",
                  static_cast<double>(probe.candidates));
    }
  }
}

}  // namespace perfbench
