// S13: decision-cache throughput — what memoization buys on repeated
// and swept detection runs.
//
//   * hit path vs. miss path: the same plan run cold (every pair walks
//     match → combine → derive → classify and inserts) and then warm
//     (every pair is a digest + lookup). The warm run must hit on every
//     pair and exceed the cold rate by >= 5x.
//   * sweep workload: an SNM window sweep run twice through one shared
//     cache. All points share a decision fingerprint (reduction never
//     changes per-pair decisions), so the first sweep already reuses
//     smaller windows' decisions and the second sweep is pure hit path.
//
// Decisions must stay bit-identical to the uncached run throughout —
// the cache is a throughput lever, never an approximation.

#include <chrono>
#include <memory>

#include "bench_util.h"
#include "cache/decision_cache.h"
#include "datagen/person_generator.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/stage_executor.h"
#include "plan/plan_builder.h"
#include "util/table_printer.h"

namespace {

using namespace pdd;
using pdd_bench::Banner;
using pdd_bench::Fmt;
using pdd_bench::Verdict;

std::shared_ptr<const DetectionPlan> CompilePlan(size_t window) {
  PlanBuilder builder;
  builder.AddKey("name", 3).AddKey("job", 2).Weights({});
  // Levenshtein matching: the realistic (and costlier) comparator
  // choice, which is exactly when memoization pays.
  builder.Comparators({"levenshtein", "levenshtein", "levenshtein"});
  builder.Reduction("snm_sorting_alternatives")
      .Set("reduction.window", window);
  Result<std::shared_ptr<const DetectionPlan>> plan =
      DetectionPlan::Compile(builder.Build(), PersonSchema());
  if (!plan.ok()) {
    std::cerr << "plan compile failed: " << plan.status().ToString() << "\n";
    std::exit(1);
  }
  return *plan;
}

/// Runs `plan` over `rel` through `cache` (null = uncached) and returns
/// pairs/sec, with the result in `*out`.
double MeasureRate(const std::shared_ptr<const DetectionPlan>& plan,
                   const XRelation& rel,
                   const std::shared_ptr<ShardedDecisionCache>& cache,
                   DetectionResult* out) {
  using BenchClock = std::chrono::steady_clock;
  Result<std::unique_ptr<CandidateStream>> stream =
      MakeFullStream(*plan, rel);
  if (!stream.ok()) {
    std::cerr << "stream failed: " << stream.status().ToString() << "\n";
    std::exit(1);
  }
  // The rates time the drain's decide and lookup paths, so the
  // per-stream arena Execute would otherwise build first is attached
  // before the clock starts.
  (*stream)->set_arena(RelationArena::Build((*stream)->relation()));
  StageExecutorOptions options;
  options.cache = cache;
  StageExecutor executor(plan, options);
  BenchClock::time_point start = BenchClock::now();
  Result<DetectionResult> result = executor.Execute(**stream);
  double seconds =
      std::chrono::duration<double>(BenchClock::now() - start).count();
  if (!result.ok()) {
    std::cerr << "execute failed: " << result.status().ToString() << "\n";
    std::exit(1);
  }
  *out = std::move(*result);
  return seconds > 0
             ? static_cast<double>(out->candidate_count) / seconds
             : 0.0;
}

bool SameDecisions(const DetectionResult& a, const DetectionResult& b) {
  if (a.decisions.size() != b.decisions.size()) return false;
  for (size_t i = 0; i < a.decisions.size(); ++i) {
    const PairDecisionRecord& x = a.decisions[i];
    const PairDecisionRecord& y = b.decisions[i];
    if (a.id(x.index1) != b.id(y.index1) || a.id(x.index2) != b.id(y.index2) ||
        x.similarity != y.similarity || x.match_class != y.match_class) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  Banner("S13 — decision cache: hit path vs. miss path",
         "memoized pairs skip the stage graph; repeated sweeps become "
         "lookups");
  PersonGenOptions gen;
  gen.num_entities = 250;
  gen.duplicate_rate = 0.6;
  gen.errors.char_error_rate = 0.05;
  gen.uncertainty.value_uncertainty_prob = 0.4;
  gen.uncertainty.xtuple_alternative_prob = 0.3;
  gen.seed = 90210;
  GeneratedData data = GeneratePersons(gen);
  std::cout << data.relation.size() << " records\n\n";

  bool ok = true;

  // --- hit path vs. miss path on one plan ---------------------------
  std::shared_ptr<const DetectionPlan> plan = CompilePlan(/*window=*/8);
  DetectionResult uncached;
  MeasureRate(plan, data.relation, nullptr, &uncached);  // warmup
  double baseline_rate =
      MeasureRate(plan, data.relation, nullptr, &uncached);
  auto cache = std::make_shared<ShardedDecisionCache>();
  DetectionResult cold;
  double miss_rate = MeasureRate(plan, data.relation, cache, &cold);
  DetectionResult warm;
  double hit_rate_pairs = MeasureRate(plan, data.relation, cache, &warm);
  double warm_hit_share = warm.cache_stats->HitRate();
  double speedup = miss_rate > 0 ? hit_rate_pairs / miss_rate : 0.0;

  TablePrinter table({"path", "pairs/sec", "vs miss path", "hit rate"});
  table.AddRow({"uncached", Fmt(baseline_rate, 0),
                Fmt(miss_rate > 0 ? baseline_rate / miss_rate : 0.0, 2),
                "-"});
  table.AddRow({"miss (cold cache)", Fmt(miss_rate, 0), Fmt(1.0, 2),
                Fmt(cold.cache_stats->HitRate(), 4)});
  table.AddRow({"hit (warm cache)", Fmt(hit_rate_pairs, 0),
                Fmt(speedup, 2), Fmt(warm_hit_share, 4)});
  table.Print(std::cout);

  bool identical =
      SameDecisions(uncached, cold) && SameDecisions(uncached, warm);
  std::cout << "decisions bit-identical across uncached/cold/warm: "
            << (identical ? "yes" : "NO") << "\n";
  ok = ok && identical && warm_hit_share > 0.95 && speedup >= 5.0;

  // --- sweep workload through one shared cache ----------------------
  std::cout << "\nSNM window sweep, run twice through one shared cache:\n";
  auto sweep_cache = std::make_shared<ShardedDecisionCache>();
  TablePrinter sweep_table(
      {"sweep", "pairs", "pairs/sec", "hit rate"});
  double sweep_rates[2] = {0.0, 0.0};
  for (int round = 0; round < 2; ++round) {
    size_t pairs = 0;
    size_t hits = 0;
    double seconds = 0.0;
    for (size_t w : {3u, 5u, 8u, 12u}) {
      std::shared_ptr<const DetectionPlan> point = CompilePlan(w);
      DetectionResult result;
      double rate = MeasureRate(point, data.relation, sweep_cache, &result);
      pairs += result.candidate_count;
      hits += result.cache_stats->hits;
      if (rate > 0) {
        seconds += static_cast<double>(result.candidate_count) / rate;
      }
    }
    sweep_rates[round] =
        seconds > 0 ? static_cast<double>(pairs) / seconds : 0.0;
    sweep_table.AddRow(
        {round == 0 ? "cold (cross-plan reuse)" : "warm (pure hit path)",
         std::to_string(pairs), Fmt(sweep_rates[round], 0),
         Fmt(pairs > 0 ? static_cast<double>(hits) /
                             static_cast<double>(pairs)
                       : 0.0,
             4)});
  }
  sweep_table.Print(std::cout);
  std::cout << "shared cache: " << sweep_cache->Stats().ToString() << "\n";
  ok = ok && sweep_rates[1] > sweep_rates[0];

  pdd_bench::BenchJsonWriter json("s13");
  json.Set("bench", "s13_decision_cache");
  json.Set("records", static_cast<double>(data.relation.size()));
  json.Set("candidate_pairs", static_cast<double>(uncached.candidate_count));
  json.Set("uncached_pairs_per_sec", baseline_rate);
  json.Set("miss_pairs_per_sec", miss_rate);
  json.Set("hit_pairs_per_sec", hit_rate_pairs);
  json.Set("warm_hit_rate", warm_hit_share);
  json.Set("hit_vs_miss_speedup", speedup);
  json.Set("sweep_cold_pairs_per_sec", sweep_rates[0]);
  json.Set("sweep_warm_pairs_per_sec", sweep_rates[1]);
  json.Set("decisions_identical", identical);
  json.Write();

  return Verdict(ok);
}
