// reduction_sweep: the analyst's Section V tuning session. One iteration
// reads the relation and its gold standard, compiles one plan per sweep
// point (preparation on), and runs the fixed sweep through one shared
// default-capacity decision cache, evaluating every point against gold.
// It renders the sweep table and serves the index of kServedPoint: a
// fixed point, so the served index has the same shape for every seed
// (the best-F1 point varies by seed, and with it the index size).

#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cache/decision_cache.h"
#include "core/detector.h"
#include "inputs.h"
#include "prep/standardizer.h"
#include "util/random.h"
#include "verify/gold_io.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kEntities = 6000;
// Cached decisions compared against an uncached decide, per point.
constexpr size_t kOracleSamples = 16;
// The sweep point whose decisions the iteration serves: the widest
// window, i.e. the largest candidate set of the sweep.
constexpr const char* kServedPoint = "snm_sorting_alternatives_w40";

struct Point {
  std::string name;
  pdd::ReductionMethod method;
  size_t window;
};

std::vector<Point> SweepPoints() {
  using M = pdd::ReductionMethod;
  std::vector<Point> points;
  for (auto [method, name] :
       {std::pair{M::kSnmMultipassWorlds, "snm_multipass_worlds"},
        std::pair{M::kSnmCertainKeys, "snm_certain_keys"},
        std::pair{M::kSnmSortingAlternatives, "snm_sorting_alternatives"},
        std::pair{M::kSnmUncertainRanking, "snm_uncertain_ranking"}}) {
    for (size_t window : {10, 40}) {
      points.push_back(
          {std::string(name) + "_w" + std::to_string(window), method, window});
    }
  }
  points.push_back({"snm_adaptive", M::kSnmAdaptive, 3});
  points.push_back({"blocking_certain_keys", M::kBlockingCertainKeys, 3});
  points.push_back({"blocking_alternatives", M::kBlockingAlternatives, 3});
  points.push_back({"blocking_multipass_worlds", M::kBlockingMultipassWorlds, 3});
  points.push_back({"canopy", M::kCanopy, 3});
  return points;
}

pdd::DetectorConfig PointConfig(const pdd::Schema& schema,
                                pdd::ReductionMethod method, size_t window) {
  pdd::DetectorConfig config = DefaultConfig(schema);
  pdd::Standardizer standard;
  standard.LowerCase().TrimWhitespace().CollapseWhitespace();
  config.preparation = pdd::DataPreparation::UniformAll(std::move(standard));
  config.reduction = method;
  config.window = window;
  return config;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// What one sweep point answered; must repeat exactly for a seed.
struct PointOutcome {
  uint64_t candidates = 0;
  uint64_t rr_bits = 0;
  uint64_t pc_bits = 0;
  uint64_t f1_bits = 0;
  bool operator==(const PointOutcome& o) const {
    return candidates == o.candidates && rr_bits == o.rr_bits &&
           pc_bits == o.pc_bits && f1_bits == o.f1_bits;
  }
};

struct Sampled {
  size_t index1 = 0;
  size_t index2 = 0;
  double similarity = 0.0;
  pdd::MatchClass match_class = pdd::MatchClass::kUnmatch;
};

}  // namespace

std::vector<std::string> SweepPointNames() {
  std::vector<std::string> names;
  for (const Point& point : SweepPoints()) names.push_back(point.name);
  return names;
}

void RunReductionSweep(const Options& options, Report* report) {
  PersonInput input;
  std::string error;
  if (!MakePersonInput(kEntities, options.seed, 0, &input, &error)) {
    report->Expect(false, error);
    return;
  }
  const std::string stem =
      options.data_dir + "/reduction_sweep-" + std::to_string(options.seed);
  const std::string path = stem + ".pxr";
  const std::string gold_path = stem + ".gold.csv";
  report->Expect(WriteTextFile(path, input.text) &&
                     WriteTextFile(gold_path,
                                   pdd::SerializeGoldStandard(input.gold)),
                 "write " + stem);
  report->Note("input: " + std::to_string(input.tuples) + " tuples, " +
               std::to_string(input.alternatives) + " alternatives, " +
               std::to_string(input.pairs) + " candidate pairs (full), " +
               std::to_string(input.gold.size()) + " gold pairs; " +
               std::to_string(input.emptied_alternatives) +
               " empty texts mapped to ⊥");

  const std::vector<Point> points = SweepPoints();
  Trace trace(false);

  struct Setup {
    pdd::XRelation rel;
    pdd::GoldStandard gold;
    std::vector<pdd::DuplicateDetector> detectors;
  };
  // Set-up = read + parse relation and gold + compile every point's plan.
  auto setup = [&](Setup* s) {
    if (!LoadRelation(&trace, path, &s->rel, report)) return false;
    bool ok = true;
    Timed(&trace, "pdb.parse", [&] {
      std::string text;
      pdd::Result<pdd::GoldStandard> gold =
          ReadTextFile(gold_path, &text)
              ? pdd::ParseGoldStandard(text)
              : pdd::Result<pdd::GoldStandard>(
                    pdd::Status::NotFound("cannot read " + gold_path));
      ok = gold.ok();
      if (ok) s->gold = std::move(gold).value();
    });
    report->Expect(ok, "load gold standard");
    Timed(&trace, "plan.compile", [&] {
      for (const Point& point : points) {
        pdd::Result<pdd::DuplicateDetector> made = pdd::DuplicateDetector::Make(
            PointConfig(s->rel.schema(), point.method, point.window),
            s->rel.schema());
        ok &= made.ok();
        if (made.ok()) s->detectors.push_back(std::move(made).value());
      }
    });
    report->Expect(ok, "every sweep point compiles");
    return ok;
  };
  auto setup_sample = [&] {
    Setup s;
    const double start = Now();
    return setup(&s) ? Now() - start : -1.0;
  };

  std::optional<pdd::DuplicateDetector> oracle;
  {
    pdd::Result<pdd::DuplicateDetector> made = pdd::DuplicateDetector::Make(
        PointConfig(input.relation.schema(), pdd::ReductionMethod::kFull, 3),
        input.relation.schema());
    report->Expect(made.ok(), "uncached oracle compiles");
    if (!made.ok()) return;
    oracle = std::move(made).value();
  }

  std::vector<PointOutcome> first_outcomes;
  Measure(options, &trace, report, [&](int run, bool traced) {
    const double start = Now();
    const int root = trace.Begin("iteration");
    Setup s;
    const bool ready = setup(&s);
    auto cache = std::make_shared<pdd::ShardedDecisionCache>();
    const double setup_end = Now();
    if (!ready) {
      trace.End(root);
      return Now() - start;
    }

    pdd::Rng rng(options.seed * 1000003 + static_cast<uint64_t>(run));
    std::vector<PointOutcome> outcomes;
    std::vector<Sampled> samples;
    std::optional<pdd::DetectionResult> served_result;
    double run_s = 0.0;
    double decided = 0.0;
    pdd::StageTimings timings;
    double batches = 0.0;
    std::ostringstream table;
    table << "| point | candidates | RR | PC | F1 |\n|---|---|---|---|---|\n";
    bool all_ok = true;
    for (size_t p = 0; p < points.size(); ++p) {
      pdd::DuplicateDetector& detector = s.detectors[p];
      detector.set_cache(cache);
      detector.set_collect_stage_timings(traced);
      pdd::Result<pdd::DetectionResult> result =
          pdd::Status::Internal("not run");
      run_s += Timed(&trace, "pipeline.run",
                     [&] { result = detector.Run(s.rel); });
      report->Expect(result.ok(), points[p].name + ": " + result.status().ToString());
      if (!result.ok()) {
        all_ok = false;
        continue;
      }
      pdd::ReductionMetrics reduction;
      pdd::EffectivenessMetrics effectiveness;
      Timed(&trace, "verify.eval", [&] {
        reduction = pdd::EvaluateReduction(*result, s.gold);
        effectiveness = pdd::Evaluate(*result, s.gold);
      });
      decided += static_cast<double>(result->decisions.size());
      timings += result->stage_timings;
      batches += static_cast<double>(result->stream_stats.batches);
      outcomes.push_back({result->candidate_count,
                          Bits(reduction.reduction_ratio),
                          Bits(reduction.pairs_completeness),
                          Bits(effectiveness.f1)});
      table << "| " << points[p].name << " | " << result->candidate_count
            << " | " << reduction.reduction_ratio << " | "
            << reduction.pairs_completeness << " | " << effectiveness.f1
            << " |\n";
      for (size_t k = 0; k < kOracleSamples && !result->decisions.empty(); ++k) {
        const pdd::PairDecisionRecord& rec =
            result->decisions[rng.Index(result->decisions.size())];
        samples.push_back(
            {rec.index1, rec.index2, rec.similarity, rec.match_class});
      }
      if (points[p].name == kServedPoint) {
        served_result = std::move(result).value();
      }
    }
    std::string rendered;
    Timed(&trace, "core.render", [&] { rendered = table.str(); });
    const double report_done = Now();
    IndexServer server;
    ServeTimes served;
    if (served_result) {
      served = server.Serve(&trace, s.rel, *served_result, options.seed,
                            kLookupSeconds, report);
    }
    const double done = Now();
    trace.End(root);
    report->Add("peak_rss_mb", "MiB", PeakRssMiB());

    report->Add("wall_s", "s", done - start);
    report->Add("setup_s", "s", setup_end - start);
    report->Add("pairs_per_sec", "1/s", decided / run_s);
    report->Add("close_to_report_s", "s", report_done - setup_end);
    report->Expect(served_result.has_value(), "served point ran");
    if (served_result) {
      AddServeMetrics(served, traced, /*latency=*/true, report);
    }
    if (traced) {
      AddStageTimings(timings, report);
      AddCacheStats(cache->Stats(), report);
      report->Add("pipeline.batches", "count", batches);
      report->Add("core.report_bytes", "B",
                  static_cast<double>(rendered.size()));
    }

    // Checks, outside the timed region. Per-point answers repeat exactly.
    if (first_outcomes.empty() && all_ok) {
      first_outcomes = outcomes;
      report->Note("sweep:\n" + rendered);
    }
    report->Expect(all_ok && outcomes == first_outcomes,
                   "run " + std::to_string(run) +
                       " candidate counts and PC/RR/F1 repeat exactly");
    // Cached decisions equal an uncached decide of the same pair.
    uint64_t mismatched = 0;
    for (const Sampled& sample : samples) {
      pdd::XRelation pair(s.rel.name(), s.rel.schema());
      pair.AppendUnchecked(s.rel.xtuple(sample.index1));
      pair.AppendUnchecked(s.rel.xtuple(sample.index2));
      pdd::Result<pdd::DetectionResult> fresh = oracle->Run(pair);
      const bool same = fresh.ok() && fresh->decisions.size() == 1 &&
                        Bits(fresh->decisions[0].similarity) ==
                            Bits(sample.similarity) &&
                        fresh->decisions[0].match_class == sample.match_class;
      mismatched += same ? 0 : 1;
    }
    report->Check(samples.size(), mismatched,
                  "cached decisions equal an uncached decide");
    if (served_result) server.Check(*served_result, 1 << 16, report);
    return done - start;
  }, setup_sample);

  if (options.trace) {
    // Reduction open/pull per method, undecided, over the prepared
    // relation the runs stream from.
    trace.set_run(-1);
    const pdd::XRelation prepared =
        oracle->config().preparation->Prepare(input.relation);
    ProbeArena(&trace, prepared, report);
    ReductionProbe total;
    for (size_t p = 0; p < points.size(); ++p) {
      pdd::Result<pdd::DuplicateDetector> detector = pdd::DuplicateDetector::Make(
          PointConfig(input.relation.schema(), points[p].method,
                      points[p].window),
          input.relation.schema());
      if (!detector.ok()) continue;
      const ReductionProbe probe =
          ProbeReduction(&trace, detector->plan(), prepared, report);
      const std::string prefix = "reduction." + points[p].name;
      report->Add(prefix + ".open_s", "s", probe.open_s);
      report->Add(prefix + ".pull_s", "s", probe.pull_s);
      report->Add(prefix + ".candidates", "count",
                  static_cast<double>(probe.candidates));
      total.open_s += probe.open_s;
      total.pull_s += probe.pull_s;
      total.candidates += probe.candidates;
      if (p < first_outcomes.size()) {
        report->Expect(probe.candidates == first_outcomes[p].candidates,
                       points[p].name + " streams the candidates it decides");
      }
    }
    report->Add("reduction.open_s", "s", total.open_s);
    report->Add("reduction.pull_s", "s", total.pull_s);
    report->Add("reduction.candidates", "count",
                static_cast<double>(total.candidates));
  }
}

}  // namespace perfbench
