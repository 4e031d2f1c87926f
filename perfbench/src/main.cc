// pddbench — the repository's end-to-end benchmark program.
//
//   pddbench --workload batch_full|reduction_sweep|standing_ingest
//            --seed N --seconds S --trace 0|1 --data-dir DIR
//
// Generates the workload's input from the seed, measures the workload
// for S seconds, checks its outputs and prints one JSON result line
// last: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. perfbench/run.py builds this program and calls it.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "workloads.h"

namespace {

using perfbench::Report;

// End-to-end metrics: every workload reports every one of them (see
// perfbench/README.md for what each means on each workload).
const std::vector<Report::Def> kEndToEnd = {
    {"wall_s", "s"},        {"setup_s", "s"},
    {"peak_rss_mb", "MiB"}, {"pairs_per_sec", "1/s"},
    {"close_to_report_s", "s"},
};

// Per-layer metrics. Layers a workload does not exercise print 0.
std::vector<Report::Def> PerLayer() {
  std::vector<Report::Def> defs = {
      {"pdb.parse_s", "s", true},
      {"plan.compile_s", "s", true},
      {"columnar.arena_build_s", "s", true},
      {"match.busy_s", "s", true},
      {"derive.busy_s", "s", true},
      {"decision.classify_busy_s", "s", true},
      {"pipeline.run_s", "s", false},
      {"pipeline.batches", "count", true},
      {"pipeline.bytes_per_decision", "B", false},
      {"core.render_s", "s", true},
      {"core.report_bytes", "B", true},
      {"index.build_s", "s", true},
      {"index.bytes_per_pair", "B", true},
      {"index.lookup_s", "s", true},
      {"reduction.open_s", "s", true},
      {"reduction.pull_s", "s", true},
      {"reduction.candidates", "count", true},
      {"verify.eval_s", "s", false},
      {"cache.lookups", "count", false},
      {"cache.hits", "count", false},
      {"cache.hit_ratio", "fraction", false},
      {"cache.inserts", "count", false},
      {"cache.evictions", "count", false},
      {"cache.lookup_busy_s", "s", false},
      {"ingest.drain_s", "s", false},
      {"ingest.live_pairs", "count", false},
      {"ingest.queue_high_water", "count", false},
      {"ingest.dropped", "count", false},
      {"ingest.finish_s", "s", false},
      {"ingest.finish_hit_ratio", "fraction", false},
      {"bench.gen_late_p99_ms", "ms", false},
      {"bench.gen_late_max_ms", "ms", false},
      {"bench.gen_behind", "count", false},
      {"lookups_per_sec", "1/s", true},
      {"admit_p50_ms", "ms", true},
      {"admit_p99_ms", "ms", true},
      {"bench.admit_samples", "count", true},
      {"obs.trace_overhead_frac", "fraction", true},
      {"unattributed_s", "s", true},
  };
  for (const std::string& point : perfbench::SweepPointNames()) {
    const std::string prefix = "reduction." + point;
    defs.push_back({prefix + ".open_s", "s", false});
    defs.push_back({prefix + ".pull_s", "s", false});
    defs.push_back({prefix + ".candidates", "count", false});
  }
  return defs;
}

int Usage(const std::string& message) {
  std::cerr << "pddbench: " << message << "\n"
            << "usage: pddbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --data-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--data-dir") {
      options.data_dir = value;
    } else {
      return Usage("unknown option " + arg);
    }
  }
  if (options.data_dir.empty()) return Usage("--data-dir is required");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  Report report;
  if (options.workload == "batch_full") {
    perfbench::RunBatchFull(options, &report);
  } else if (options.workload == "reduction_sweep") {
    perfbench::RunReductionSweep(options, &report);
  } else if (options.workload == "standing_ingest") {
    perfbench::RunStandingIngest(options, &report);
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }
  report.Note("failed_ratio: " + std::to_string(report.failed()) + " of " +
              std::to_string(report.attempted()) + " attempted checks failed");
  report.PrintResult(options.trace ? PerLayer() : kEndToEnd);
  return 0;
}
