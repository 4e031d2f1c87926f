// pddcli — command-line duplicate detection for probabilistic relations.
//
// Usage:
//   pddcli detect  <relation.pxr> [options]     run detection, print report
//   pddcli stats   <relation.pxr>               profile a relation
//   pddcli explain <relation.pxr> <id1> <id2> [plan options]
//                                               per-alternative breakdown
//                                               of one pair's decision
//                                               under the plan, on the
//                                               tuples as the plan
//                                               prepares them (its
//                                               `sim=... -> class` line
//                                               is detect's CSV row)
//   pddcli lint-plan <plan-file>                validate a plan spec
//                                               offline: unknown keys /
//                                               components / values fail
//                                               with the parser's
//                                               diagnostics, and every
//                                               accepted key is
//                                               classified (fingerprint-
//                                               relevant, fingerprint-
//                                               irrelevant throughput
//                                               knob, decision-relevant
//                                               for the cache key);
//                                               also spelled --lint-plan
//   pddcli demo [options]                       run on the paper's R34
//                                               (detect's options)
//   pddcli index-build <relation.pxr> <out.pddindex> [options]
//                                               run detection and compile
//                                               the result into a
//                                               pdd.index.v1 serving
//                                               index; options as for
//                                               `pddquery build`: the
//                                               plan options, --metrics
//                                               FILE [--metrics-format
//                                               json|prom] (see README
//                                               "Decision index")
//   pddcli index-query <pair|cluster|members|inspect|verify|bench> ...
//                                               query/inspect/verify an
//                                               index file (same surface
//                                               as the pddquery tool)
//
// Plan options (detect, demo, explain; pddserve and `pddquery build` /
// `verify` take the same):
//   --plan FILE                    load a declarative plan spec
//                                  (`key = value` lines; see README
//                                  "Plan files")
//   --workers N                    decide candidate batches on N threads
//                                  (plan key executor.workers; default
//                                  0 = serial, at most 1024; results
//                                  identical)
//   --batch N                      candidates per executor batch (plan
//                                  key executor.batch; default 256)
//   --set key=value                set one plan key (may repeat), e.g.
//                                  key=name:3,job:2, reduction=canopy,
//                                  reduction.window=4, classify.t_mu=0.8,
//                                  derivation=max_similarity or
//                                  prepare=lower,trim,collapse
// Plan files apply first, wherever they appear, then --workers and
// --batch, then every --set. Without them the plan is the full
// reduction over the key of the first two attributes (prefixes 3 and
// 2), uniform weights and thresholds 0.4 / 0.7.
//
// More options for `detect` and `demo`:
//   --print-plan                   print the resolved plan in canonical
//                                  spec form (with its fingerprint as a
//                                  comment) and exit without running
//   --cache-capacity N             enable the in-memory decision cache
//                                  bounded to N entries (CLOCK eviction;
//                                  default capacity 1048576 when only
//                                  --cache-file enables caching)
//   --cache-file PATH              warm-start from PATH when it exists
//                                  and atomically replace it with the
//                                  resident cache afterwards (at most
//                                  capacity + 1 lines; the report stays
//                                  byte-identical between warm and cold
//                                  runs; an older build's torn final
//                                  line is dropped; a PATH that is no
//                                  regular file or lies in a missing
//                                  directory exits 1 before the run)
//   --stats                        print the execution statistics to
//                                  stderr after the run: pull / decide /
//                                  commit seconds and the batch decide
//                                  p50 and p99 (every run clocks them),
//                                  the candidate stream (the reduction,
//                                  batches, live high-water) and, when a
//                                  cache flag attached the cache, its
//                                  hits and torn cache-file bytes
//                                  dropped. It only renders: the run and
//                                  stdout are those of the same command
//                                  without it
//   --metrics FILE                 write the run's telemetry sidecar
//                                  (schema pdd.telemetry.v1: counters,
//                                  gauges, histograms, info, span tree)
//                                  to FILE after the run, replacing it
//                                  atomically (a link is written
//                                  through); stdout stays
//                                  byte-identical. A FILE that is no
//                                  regular file (a directory, a FIFO),
//                                  is where stdout or stderr goes
//                                  (/dev/stdout) or lies in a missing
//                                  directory exits 1 before the run
//   --metrics-format json|prom     sidecar format (default json;
//                                  prom = Prometheus text exposition)
//   --csv                          emit per-pair CSV instead of the report
//   --gold FILE                    gold pairs ("id1,id2" lines) — the
//                                  report gains verification metrics
//   --histogram                    append an ASCII histogram of the
//                                  candidate similarities (threshold
//                                  selection aid)
//
// Relations use the text format of pdb/text_format.h (.pxr files).
// `--print-plan` output is itself a valid plan file:
//   pddcli detect r.pxr --set reduction=canopy --print-plan > plan.txt
//   pddcli detect r.pxr --plan plan.txt

#include <iostream>
#include <optional>

#include "analysis/spec_closure.h"
#include "cache/decision_cache.h"
#include "core/detector.h"
#include "core/explain.h"
#include "core/paper_examples.h"
#include "core/report_writer.h"
#include "core/tool_args.h"
#include "index/index_cli.h"
#include "obs/export.h"
#include "obs/run_telemetry.h"
#include "pdb/statistics.h"
#include "pdb/text_format.h"
#include "pipeline/detection_plan.h"
#include "plan/plan_spec.h"
#include "util/file_util.h"
#include "verify/gold_io.h"
#include "verify/similarity_histogram.h"

namespace {

using namespace pdd;

int Fail(const std::string& message) {
  std::cerr << "pddcli: " << message << "\n";
  return 1;
}

/// `detect`, or `demo` on the paper's R34 when `demo`.
int RunDetect(bool demo, const std::vector<std::string>& argv) {
  bool csv = false;
  bool histogram = false;
  bool print_plan = false;
  bool stats = false;
  std::string gold_file;
  Result<ToolArgs> args = ParseToolArgs(
      argv, kPlanFlags | kSidecarFlags | kCacheFlags,
      {SwitchFlag("--print-plan", &print_plan), SwitchFlag("--csv", &csv),
       SwitchFlag("--histogram", &histogram), SwitchFlag("--stats", &stats),
       TextFlag("--gold", &gold_file)});
  if (!args.ok()) return Fail(args.status().ToString());
  if (args->positional.size() != (demo ? 0 : 1)) {
    return Fail(demo ? "demo takes no operands"
                     : "detect needs one relation file");
  }
  Result<XRelation> rel =
      demo ? BuildR34() : LoadXRelation(args->positional[0]);
  if (!rel.ok()) return Fail(rel.status().ToString());
  std::optional<GoldStandard> gold;
  if (!gold_file.empty()) {
    Result<std::string> text = ReadFileToString(gold_file);
    if (!text.ok()) return Fail(text.status().ToString());
    Result<GoldStandard> parsed = ParseGoldStandard(*text);
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    gold = std::move(parsed).value();
  }
  Result<DetectorConfig> config = ResolveConfig(*args, rel->schema());
  if (!config.ok()) return Fail(config.status().ToString());
  if (print_plan) {
    // The plan is the only stdout output, so it pipes back into --plan.
    PlanSpec spec = config->ToSpec();
    std::cout << "# pddcli plan (fingerprint " +
                     FingerprintHex(spec.Fingerprint()) + ")\n"
              << spec.ToText();
    return 0;
  }
  if (demo) std::cout << ComputeStatistics(*rel).ToString() << "\n";
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(*config, rel->schema());
  if (!detector.ok()) return Fail(detector.status().ToString());
  // A cache flag enables the decision cache; --cache-file also
  // warm-starts from earlier invocations.
  std::shared_ptr<ShardedDecisionCache> cache;
  if (args->cache_capacity > 0 || !args->cache_file.empty()) {
    Result<std::shared_ptr<ShardedDecisionCache>> opened =
        OpenCache(*args, stats ? &std::cerr : nullptr);
    if (!opened.ok()) return Fail(opened.status().ToString());
    cache = *opened;
    detector->set_cache(cache);
  }
  Result<DetectionResult> result = detector->Run(*rel);
  if (!result.ok()) return Fail(result.status().ToString());
  if (cache != nullptr && !args->cache_file.empty()) {
    Status saved = cache->SaveSnapshot(args->cache_file);
    if (!saved.ok()) return Fail(saved.ToString());
  }
  if (stats || !args->metrics_file.empty()) {
    // One telemetry, one exporter code path for every diagnostic: the
    // stderr block and the sidecar are both renderings of this
    // registry. Stderr only (stdout stays byte-identical across warm/
    // cold, streamed/materialized and serial/pooled runs).
    RunTelemetry telemetry = *result->telemetry;
    if (cache != nullptr) {
      AddCacheLifetimeStats(cache->Stats(), &telemetry.metrics);
    }
    telemetry.metrics.SetInfo("exec.reduction",
                              detector->plan().MakePairGenerator()->name());
    if (stats) std::cerr << RenderExecutionStats(telemetry);
    Status written = WriteSidecar(*args, telemetry);
    if (!written.ok()) return Fail(written.ToString());
  }
  const GoldStandard* gold_ptr = gold.has_value() ? &*gold : nullptr;
  std::cout << (csv ? DecisionsToCsv(*result, gold_ptr)
                    : DetectionReport(*result, gold_ptr));
  if (histogram) {
    SimilarityHistogram hist(20);
    for (const PairDecisionRecord& rec : result->decisions) {
      hist.Add(rec.similarity);
    }
    std::cout << "\ncandidate similarity distribution ("
              << hist.total() << " pairs):\n"
              << hist.ToString();
  }
  return 0;
}

/// `explain`: one pair's Fig. 6 breakdown under the plan, on the tuples
/// as MakeFullStream prepares them for detect.
int RunExplain(const std::vector<std::string>& argv) {
  Result<ToolArgs> args = ParseToolArgs(argv, kPlanFlags);
  if (!args.ok()) return Fail(args.status().ToString());
  if (args->positional.size() != 3) {
    return Fail("explain needs <file> <id1> <id2>");
  }
  Result<XRelation> rel = LoadXRelation(args->positional[0]);
  if (!rel.ok()) return Fail(rel.status().ToString());
  Result<DetectorConfig> config = ResolveConfig(*args, rel->schema());
  if (!config.ok()) return Fail(config.status().ToString());
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(*config, rel->schema());
  if (!detector.ok()) return Fail(detector.status().ToString());
  const std::optional<DataPreparation>& preparation =
      detector->config().preparation;
  const XRelation prepared =
      preparation.has_value() ? preparation->Prepare(*rel) : std::move(*rel);
  const XTuple* t1 = nullptr;
  const XTuple* t2 = nullptr;
  for (const XTuple& t : prepared.xtuples()) {
    if (t.id() == args->positional[1]) t1 = &t;
    if (t.id() == args->positional[2]) t2 = &t;
  }
  if (t1 == nullptr || t2 == nullptr) {
    return Fail("tuple id not found in relation");
  }
  std::cout << ExplainPair(*detector, *t1, *t2).ToString(prepared.schema());
  return 0;
}

int RunLintPlan(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  if (!text.ok()) return Fail(text.status().ToString());
  Result<PlanSpec> spec = PlanSpec::Parse(*text);
  if (!spec.ok()) {
    return Fail("lint-plan: " + spec.status().ToString());
  }
  // FromSpec is the authoritative validator: unknown keys, unresolvable
  // component names (with nearest-match suggestions) and malformed
  // values all fail here.
  Result<DetectorConfig> config = DetectorConfig::FromSpec(*spec);
  if (!config.ok()) {
    return Fail("lint-plan: " + config.status().ToString());
  }
  Status valid = config->Validate();
  if (!valid.ok()) {
    return Fail("lint-plan: " + valid.ToString());
  }
  PlanSpec resolved = config->ToSpec();
  std::cout << "plan lint: " << path << ": " << spec->params().size()
            << " keys, fingerprint " << FingerprintHex(resolved.Fingerprint())
            << ", decision fingerprint "
            << FingerprintHex(DecisionFingerprint(resolved)) << "\n";
  // Per-key classification of what the author actually wrote (the
  // resolved spec adds defaulted keys; those are not interesting here).
  for (const auto& [key, value] : spec->params().entries()) {
    std::cout << "  " << key;
    if (FingerprintIrrelevantSpecKeys().count(key) > 0) {
      std::cout << ": fingerprint-irrelevant (throughput/placement knob; "
                   "never changes the report or the plan identity)";
    } else if (IsDecisionIrrelevantSpecKey(key)) {
      std::cout << ": fingerprint-relevant, decision-irrelevant (decision "
                   "cache entries carry across its values)";
    } else {
      std::cout << ": decision-relevant (changing it structurally "
                   "invalidates cached decisions)";
    }
    std::cout << "\n";
  }
  std::cout << "plan lint: OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: pddcli <detect|stats|explain|demo|lint-plan|"
                "index-build|index-query> [file] [options]");
  }
  const std::string command = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "lint-plan" || command == "--lint-plan") {
    if (args.empty()) return Fail("lint-plan needs a plan file");
    return RunLintPlan(args[0]);
  }
  if (command == "detect" || command == "demo") {
    return RunDetect(command == "demo", args);
  }
  if (command == "explain") return RunExplain(args);
  if (command == "index-build") return RunIndexBuild(args);
  if (command == "index-query") {
    if (args.empty()) {
      return Fail(
          "index-query needs <pair|cluster|members|inspect|verify|bench>");
    }
    return RunIndexQuery(args[0], {args.begin() + 1, args.end()});
  }
  if (command == "stats") {
    if (args.empty()) return Fail("stats needs a relation file");
    Result<XRelation> rel = LoadXRelation(args[0]);
    if (!rel.ok()) return Fail(rel.status().ToString());
    std::cout << "relation " << rel->name() << "\n"
              << ComputeStatistics(*rel).ToString();
    return 0;
  }
  return Fail("unknown command '" + command + "'");
}
