#include "workloads.h"

#include <memory>
#include <utility>

#include "columnar/relation_arena.h"
#include "inputs.h"
#include "pdb/text_format.h"
#include "reduction/pair_generator.h"

namespace perfbench {

pdd::DetectorConfig DefaultConfig(const pdd::Schema& schema) {
  pdd::DetectorConfig config;
  config.key.clear();
  config.key.emplace_back(schema.attribute(0).name, 3);
  if (schema.arity() > 1) config.key.emplace_back(schema.attribute(1).name, 2);
  config.weights.assign(schema.arity(),
                        1.0 / static_cast<double>(schema.arity()));
  return config;
}

bool LoadRelation(Trace* trace, const std::string& path, pdd::XRelation* rel,
                  Report* report) {
  bool ok = false;
  std::string error;
  Timed(trace, "pdb.parse", [&] {
    std::string text;
    if (!ReadTextFile(path, &text)) {
      error = "cannot read " + path;
      return;
    }
    pdd::Result<pdd::XRelation> parsed = pdd::ParseXRelation(text);
    if (!parsed.ok()) {
      error = parsed.status().ToString();
      return;
    }
    *rel = std::move(parsed).value();
    ok = true;
  });
  report->Expect(ok, "load input relation: " + error);
  return ok;
}

void ProbeArena(Trace* trace, const pdd::XRelation& prepared, Report* report) {
  std::vector<double> seconds;
  bool built = true;
  for (int i = 0; i < 3; ++i) {
    seconds.push_back(Timed(trace, "columnar.arena_build", [&] {
      built &= pdd::RelationArena::Build(prepared) != nullptr;
    }));
  }
  report->Expect(built, "relation arena builds");
  report->Add("columnar.arena_build_s", "s", Median(seconds));
}

ReductionProbe ProbeReduction(Trace* trace, const pdd::DetectionPlan& plan,
                              const pdd::XRelation& prepared, Report* report) {
  ReductionProbe probe;
  std::unique_ptr<pdd::PairGenerator> generator = plan.MakePairGenerator();
  pdd::Result<std::unique_ptr<pdd::PairBatchSource>> source =
      pdd::Status::Internal("not opened");
  probe.open_s = Timed(trace, "reduction.open",
                       [&] { source = generator->Stream(prepared); });
  report->Expect(source.ok(), generator->name() + " stream opens");
  if (!source.ok()) return probe;
  std::vector<pdd::CandidatePair> batch;
  probe.pull_s = Timed(trace, "reduction.pull", [&] {
    while (size_t got = (*source)->NextBatch(plan.config().batch_size, &batch)) {
      probe.candidates += got;
    }
  });
  return probe;
}

void AddServeMetrics(const ServeTimes& served, bool traced, bool latency,
                     Report* report) {
  const double rate = static_cast<double>(served.queries) / served.lookup_s;
  report->Add("lookups_per_sec", "1/s", rate);
  report->Note("index: " + std::to_string(rate) + " lookups/s");
  if (latency) AddAdmitMetrics(served.group_ms, report);
  if (traced) {
    report->Add("index.bytes_per_pair", "B", served.index_bytes_per_pair);
  }
}

void AddAdmitMetrics(const std::vector<double>& admit_ms, Report* report) {
  const double p50 = Percentile(admit_ms, 50.0);
  const double p99 = Percentile(admit_ms, 99.0);
  report->Add("admit_p50_ms", "ms", p50);
  report->Add("admit_p99_ms", "ms", p99);
  report->Add("bench.admit_samples", "count",
              static_cast<double>(admit_ms.size()));
  report->Note("admit latency: p50 " + std::to_string(p50) + " ms, p99 " +
               std::to_string(p99) + " ms over " +
               std::to_string(admit_ms.size()) + " samples");
}

void AddCacheStats(const pdd::DecisionCacheStats& stats, Report* report) {
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  report->Add("cache.lookups", "count", lookups);
  report->Add("cache.hits", "count", static_cast<double>(stats.hits));
  report->Add("cache.hit_ratio", "fraction",
              static_cast<double>(stats.hits) / lookups);
  report->Add("cache.inserts", "count", static_cast<double>(stats.inserts));
  report->Add("cache.evictions", "count", static_cast<double>(stats.evictions));
}

void AddStageTimings(const pdd::StageTimings& timings, Report* report) {
  report->Add("match.busy_s", "s", timings.match_seconds);
  report->Add("derive.busy_s", "s",
              timings.combine_seconds + timings.derive_seconds);
  report->Add("decision.classify_busy_s", "s", timings.classify_seconds);
  report->Add("cache.lookup_busy_s", "s", timings.cache_lookup_seconds);
}

}  // namespace perfbench
