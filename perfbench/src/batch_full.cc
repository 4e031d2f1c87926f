// batch_full: the batch question at the headline size. One iteration is
// input file -> parse -> DuplicateDetector::Make -> Run (full
// reduction, default plan, 2 workers, no cache) -> DetectionReport ->
// decision index build -> the seeded query mix.

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "core/detector.h"
#include "core/report_writer.h"
#include "inputs.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kEntities = 3000;
constexpr size_t kWorkers = 2;

}  // namespace

void RunBatchFull(const Options& options, Report* report) {
  PersonInput input;
  std::string error;
  if (!MakePersonInput(kEntities, options.seed, 0, &input, &error)) {
    report->Expect(false, error);
    return;
  }
  const std::string path = options.data_dir + "/batch_full-" +
                           std::to_string(options.seed) + ".pxr";
  report->Expect(WriteTextFile(path, input.text), "write " + path);
  report->Note("input: " + std::to_string(input.tuples) + " tuples, " +
               std::to_string(input.alternatives) + " alternatives, " +
               std::to_string(input.pairs) + " candidate pairs; " +
               std::to_string(input.emptied_alternatives) +
               " empty texts mapped to ⊥");

  Trace trace(false);
  // Set-up = read + parse + plan compile. Repeated so its median rests
  // on many samples; the first read also pulls the file into the page
  // cache.
  auto setup = [&](pdd::XRelation* rel) -> std::optional<pdd::DuplicateDetector> {
    if (!LoadRelation(&trace, path, rel, report)) return std::nullopt;
    std::optional<pdd::DuplicateDetector> detector;
    Timed(&trace, "plan.compile", [&] {
      pdd::DetectorConfig config = DefaultConfig(rel->schema());
      config.workers = kWorkers;
      pdd::Result<pdd::DuplicateDetector> made =
          pdd::DuplicateDetector::Make(config, rel->schema());
      if (made.ok()) detector = std::move(made).value();
    });
    report->Expect(detector.has_value(), "detector compiles");
    return detector;
  };
  auto setup_sample = [&] {
    pdd::XRelation rel;
    const double start = Now();
    return setup(&rel) ? Now() - start : -1.0;
  };

  std::optional<uint64_t> first_report_digest;
  std::optional<uint64_t> first_content_digest;
  Measure(options, &trace, report, [&](int run, bool traced) {
    const double start = Now();
    const int root = trace.Begin("iteration");
    pdd::XRelation rel;
    std::optional<pdd::DuplicateDetector> detector = setup(&rel);
    const double setup_end = Now();
    if (!detector) {
      trace.End(root);
      return Now() - start;
    }
    detector->set_collect_stage_timings(traced);

    const uint64_t rss_before = CurrentRssBytes();
    pdd::Result<pdd::DetectionResult> result =
        pdd::Status::Internal("not run");
    const double run_s = Timed(&trace, "pipeline.run",
                               [&] { result = detector->Run(rel); });
    const uint64_t rss_after = CurrentRssBytes();
    report->Expect(result.ok(), "batch run: " + result.status().ToString());
    if (!result.ok()) {
      trace.End(root);
      return Now() - start;
    }
    std::string rendered;
    Timed(&trace, "core.render",
          [&] { rendered = pdd::DetectionReport(*result, nullptr); });
    const double report_done = Now();
    IndexServer server;
    const ServeTimes served = server.Serve(&trace, rel, *result, options.seed,
                                           kLookupSeconds, report);
    const double done = Now();
    trace.End(root);
    report->Add("peak_rss_mb", "MiB", PeakRssMiB());

    const double decisions = static_cast<double>(result->decisions.size());
    report->Add("wall_s", "s", done - start);
    report->Add("setup_s", "s", setup_end - start);
    report->Add("pairs_per_sec", "1/s", decisions / run_s);
    report->Add("close_to_report_s", "s", report_done - setup_end);
    AddServeMetrics(served, traced, /*latency=*/true, report);
    if (traced) {
      AddStageTimings(result->stage_timings, report);
      report->Add("pipeline.batches", "count",
                  static_cast<double>(result->stream_stats.batches));
      report->Add("pipeline.bytes_per_decision", "B",
                  static_cast<double>(rss_after - std::min(rss_before, rss_after)) /
                      decisions);
      report->Add("core.report_bytes", "B",
                  static_cast<double>(rendered.size()));
    }

    // Outputs must not depend on the iteration: same report bytes and
    // the same decision content every time for this seed.
    const uint64_t report_digest = Fnv1a(rendered);
    const uint64_t content_digest = result->ContentDigest();
    if (!first_report_digest) {
      first_report_digest = report_digest;
      first_content_digest = content_digest;
      report->Note("report digest " + Hex64(report_digest) +
                   ", decision content digest " + Hex64(content_digest) +
                   ", " + std::to_string(result->decisions.size()) +
                   " decisions");
    }
    report->Expect(report_digest == *first_report_digest &&
                       content_digest == *first_content_digest,
                   "run " + std::to_string(run) + " report is stable");
    report->Expect(result->decisions.size() == input.pairs,
                   "full reduction decides every pair");
    server.Check(*result, 1 << 16, report);
    return done - start;
  }, setup_sample);

  if (options.trace) {
    // Layer probes outside the iterations: the arena the executor builds
    // inside Run, and the full reduction's candidate stream undecided.
    trace.set_run(-1);
    ProbeArena(&trace, input.relation, report);
    pdd::Result<pdd::DuplicateDetector> detector = pdd::DuplicateDetector::Make(
        DefaultConfig(input.relation.schema()), input.relation.schema());
    if (detector.ok()) {
      const ReductionProbe probe =
          ProbeReduction(&trace, detector->plan(), input.relation, report);
      report->Add("reduction.open_s", "s", probe.open_s);
      report->Add("reduction.pull_s", "s", probe.pull_s);
      report->Add("reduction.candidates", "count",
                  static_cast<double>(probe.candidates));
      report->Expect(probe.candidates == input.pairs,
                     "full reduction streams every pair");
    }
  }
}

}  // namespace perfbench
