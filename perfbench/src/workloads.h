// The three workloads of the benchmark, one per kind of user (see
// perfbench/README.md for why each exists and which layers it loads),
// and the loop that repeats a workload's iteration for the run's
// measuring time.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cache/decision_cache.h"
#include "core/config.h"
#include "pdb/xrelation.h"
#include "pipeline/detection_plan.h"
#include "pipeline/detection_result.h"
#include "serving.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for the generated input files (inside the checkout).
  std::string data_dir;
};

/// Query time per iteration of the serving step every workload ends
/// with. Fixed in time rather than in queries, so small and large
/// indexes are measured equally long.
inline constexpr double kLookupSeconds = 1.0;
/// Extra set-ups timed after each iteration, so setup_s is a median over
/// many samples spread across the run even when few iterations fit.
inline constexpr int kSetupSamples = 8;

void RunBatchFull(const Options& options, Report* report);
void RunReductionSweep(const Options& options, Report* report);
void RunStandingIngest(const Options& options, Report* report);

/// Names of reduction_sweep's points, in sweep order (the per-point
/// reduction.<name>.* metrics).
std::vector<std::string> SweepPointNames();

/// The plan `pddcli detect` uses by default on a relation of `schema`:
/// key = first attribute[3] + second attribute[2], uniform weights.
pdd::DetectorConfig DefaultConfig(const pdd::Schema& schema);

/// Reads and parses the relation file at `path` inside a `pdb.parse`
/// span; records a failed check and returns false on error.
bool LoadRelation(Trace* trace, const std::string& path, pdd::XRelation* rel,
                  Report* report);

/// Times RelationArena::Build over `prepared` (the relation the
/// executor's arena is built from) three times; adds the median as
/// `columnar.arena_build_s`.
void ProbeArena(Trace* trace, const pdd::XRelation& prepared, Report* report);

/// Candidate generation of `plan` over `prepared` without deciding:
/// PairGenerator::Stream() (open) and a drain of every batch (pull).
struct ReductionProbe {
  double open_s = 0.0;
  double pull_s = 0.0;
  uint64_t candidates = 0;
};
ReductionProbe ProbeReduction(Trace* trace, const pdd::DetectionPlan& plan,
                              const pdd::XRelation& prepared, Report* report);

/// Adds the serving step's metrics of one iteration: lookups_per_sec
/// always, the index layer metrics when `traced`. With `latency` set the
/// query groups are also the iteration's admission-latency samples.
void AddServeMetrics(const ServeTimes& served, bool traced, bool latency,
                     Report* report);

/// Adds one iteration's admission-latency percentiles (admit_p50_ms,
/// admit_p99_ms; the run reports their medians over iterations) and its
/// sample count.
void AddAdmitMetrics(const std::vector<double>& admit_ms, Report* report);

/// Adds a decision cache's lifetime counters as the cache.* metrics.
void AddCacheStats(const pdd::DecisionCacheStats& stats, Report* report);

/// Adds the engine's per-stage busy times of a stage-timed run.
void AddStageTimings(const pdd::StageTimings& timings, Report* report);

/// Repeats `iteration(run, traced)` — which returns its wall seconds and
/// adds its own samples, peak_rss_mb included (the peak is reset before
/// each iteration) — until the next iteration would end past
/// `options.seconds`, at least once (twice when tracing). After each
/// iteration `setup()` runs kSetupSamples times untraced; each returns
/// its seconds as a setup_s sample (negative on failure). With tracing
/// on, iterations alternate untraced/traced; per-layer samples come from
/// the traced ones, and `obs.trace_overhead_frac` compares the two
/// kinds' median walls.
template <typename Iteration, typename SetupSample>
void Measure(const Options& options, Trace* trace, Report* report,
             Iteration&& iteration, SetupSample&& setup) {
  const double begin = Now();
  std::vector<double> untraced;
  std::vector<double> traced;
  for (int run = 0;; ++run) {
    const bool traced_run = options.trace && run % 2 == 1;
    trace->set_run(run);
    trace->set_enabled(traced_run);
    const double started = Now();
    ResetPeakRss();
    const double wall = iteration(run, traced_run);
    (traced_run ? traced : untraced).push_back(wall);
    if (traced_run) report->AddTraceRun(*trace, run, "iteration");
    trace->set_enabled(false);
    for (int i = 0; i < kSetupSamples; ++i) {
      const double seconds = setup();
      if (seconds < 0) break;
      report->Add("setup_s", "s", seconds);
    }
    const double took = Now() - started;
    const int min_runs = options.trace ? 2 : 1;
    if (run + 1 >= min_runs && Now() - begin + took > options.seconds) break;
  }
  trace->set_enabled(options.trace);
  report->Note("iterations: " + std::to_string(untraced.size()) +
               " untraced, " + std::to_string(traced.size()) + " traced");
  if (options.trace) {
    report->Set("obs.trace_overhead_frac", "fraction",
                Median(traced) / Median(untraced) - 1.0);
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
