// pddcli — command-line duplicate detection for probabilistic relations.
//
// Usage:
//   pddcli detect  <relation.pxr> [options]     run detection, print report
//   pddcli stats   <relation.pxr>               profile a relation
//   pddcli explain <relation.pxr> <id1> <id2> [options]
//                                               per-alternative breakdown
//                                               of one pair's decision
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
//   pddcli demo                                 run on the paper's R34
//   pddcli index-build <relation.pxr> <out.pddindex> [options]
//                                               run detection and compile
//                                               the result into a
//                                               pdd.index.v1 serving
//                                               index (same plan/executor
//                                               options as detect; see
//                                               README "Decision index")
//   pddcli index-query <pair|cluster|members|inspect|verify|bench> ...
//                                               query/inspect/verify an
//                                               index file (same surface
//                                               as the pddquery tool)
//
// Options for `detect`:
//   --plan FILE                    load a declarative plan spec
//                                  (`key = value` lines; see README
//                                  "Plan files"); applied before any
//                                  other option regardless of position
//   --set key=value                override one plan parameter (may
//                                  repeat; applied after all other
//                                  options)
//   --print-plan                   print the resolved plan in canonical
//                                  spec form (with its fingerprint as a
//                                  comment) and exit without running
//   --key attr:len[,attr:len...]   sorting/blocking key (default: first
//                                  two attributes, prefix 3 and 2)
//   --reduction NAME               any registered reduction (see
//                                  --print-plan / README; default: full)
//   --window N                     SNM window (default 3)
//   --t-lambda X --t-mu Y          thresholds (default 0.4 / 0.7)
//   --derivation NAME              any registered derivation (default:
//                                  expected_similarity)
//   --prepare                      lowercase/trim/collapse before matching
//   --workers N                    decide candidate batches on N threads
//                                  (default 0 = serial; results identical)
//   --batch N                      candidates per executor batch
//                                  (default 256)
//   --cache-capacity N             enable the in-memory decision cache
//                                  bounded to N entries (LRU; default
//                                  capacity 1048576 when another cache
//                                  flag enables caching)
//   --cache-file PATH              warm-start from PATH when it exists
//                                  and append this run's new decisions
//                                  to it afterwards (append-only; the
//                                  report stays byte-identical between
//                                  warm and cold runs)
//   --cache-stats                  print the execution statistics
//                                  (per-stage wall times, cache hits)
//                                  to stderr after the run
//   --stream-candidates            print the candidate streaming
//                                  diagnostics to stderr after the run:
//                                  whether the plan's reduction streams
//                                  natively (bounded live pairs) or
//                                  through the materializing adapter,
//                                  batches pulled, and the live-candidate
//                                  high-water mark of the drain
//   --metrics FILE                 write the run's telemetry sidecar
//                                  (schema pdd.telemetry.v1: counters,
//                                  gauges, histograms, info, span tree)
//                                  to FILE after the run; stdout stays
//                                  byte-identical
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
//   pddcli detect r.pxr --reduction canopy --print-plan > plan.txt
//   pddcli detect r.pxr --plan plan.txt

#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/spec_closure.h"
#include "cache/decision_cache.h"
#include "core/detector.h"
#include "pipeline/detection_plan.h"
#include "core/explain.h"
#include "core/paper_examples.h"
#include "core/report_writer.h"
#include "index/index_cli.h"
#include "obs/export.h"
#include "obs/run_telemetry.h"
#include "pdb/statistics.h"
#include "pdb/text_format.h"
#include "plan/plan_spec.h"
#include "plan/registry.h"
#include "plan/translate.h"
#include "prep/standardizer.h"
#include "util/string_util.h"
#include "verify/gold_io.h"
#include "verify/similarity_histogram.h"

namespace {

using namespace pdd;

int Fail(const std::string& message) {
  std::cerr << "pddcli: " << message << "\n";
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

int RunDetect(const XRelation& rel, int argc, char** argv, int first_arg) {
  DetectorConfig config;
  // Default key: first two attributes, prefixes 3 and 2.
  config.key.clear();
  config.key.emplace_back(rel.schema().attribute(0).name, 3);
  if (rel.schema().arity() > 1) {
    config.key.emplace_back(rel.schema().attribute(1).name, 2);
  }
  config.weights.assign(rel.schema().arity(),
                        1.0 / static_cast<double>(rel.schema().arity()));
  // A plan file applies before any other option, wherever it appears.
  for (int i = first_arg; i < argc; ++i) {
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
  bool csv = false;
  bool histogram = false;
  bool print_plan = false;
  bool cache_stats = false;
  bool stream_candidates = false;
  size_t cache_capacity = 0;  // 0 = not set; default applied below
  std::string cache_file;
  std::string metrics_file;
  std::string metrics_format = "json";
  PlanSpec overrides;
  std::optional<GoldStandard> gold;
  for (int i = first_arg; i < argc; ++i) {
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
    } else if (arg == "--print-plan") {
      print_plan = true;
    } else if (arg == "--key") {
      const char* v = next();
      if (v == nullptr) return Fail("--key needs a value");
      Result<std::vector<std::pair<std::string, size_t>>> key =
          ParseKeyComponents(v);
      if (!key.ok()) return Fail(key.status().ToString());
      config.key = std::move(key).value();
    } else if (arg == "--reduction") {
      const char* v = next();
      if (v == nullptr) return Fail("--reduction needs a value");
      Result<const ComponentRegistry::ReductionEntry*> method =
          ComponentRegistry::Global().FindReduction(v);
      if (!method.ok()) return Fail(method.status().ToString());
      config.reduction = (*method)->method;
    } else if (arg == "--window") {
      const char* v = next();
      if (v == nullptr || !ParseSize(v, &config.window)) {
        return Fail("--window needs a non-negative integer");
      }
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
    } else if (arg == "--derivation") {
      const char* v = next();
      if (v == nullptr) return Fail("--derivation needs a value");
      Result<const ComponentRegistry::DerivationEntry*> kind =
          ComponentRegistry::Global().FindDerivation(v);
      if (!kind.ok()) return Fail(kind.status().ToString());
      config.derivation = (*kind)->kind;
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
    } else if (arg == "--cache-stats") {
      cache_stats = true;
    } else if (arg == "--stream-candidates") {
      stream_candidates = true;
    } else if (arg == "--metrics") {
      const char* v = next();
      if (v == nullptr) return Fail("--metrics needs a file");
      metrics_file = v;
    } else if (arg == "--metrics-format") {
      const char* v = next();
      if (v == nullptr || (std::string(v) != "json" && std::string(v) != "prom")) {
        return Fail("--metrics-format needs json or prom");
      }
      metrics_format = v;
    } else if (arg == "--prepare") {
      Standardizer standard;
      standard.LowerCase().TrimWhitespace().CollapseWhitespace();
      config.preparation = DataPreparation::UniformAll(std::move(standard));
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--histogram") {
      histogram = true;
    } else if (arg == "--gold") {
      const char* v = next();
      if (v == nullptr) return Fail("--gold needs a file");
      std::ifstream in(v);
      if (!in) return Fail(std::string("cannot open '") + v + "'");
      std::stringstream buffer;
      buffer << in.rdbuf();
      Result<GoldStandard> parsed = ParseGoldStandard(buffer.str());
      if (!parsed.ok()) return Fail(parsed.status().ToString());
      gold = std::move(parsed).value();
    } else {
      return Fail("unknown option '" + arg + "'");
    }
  }
  // --set overrides apply last, on top of plan file and flags.
  if (!overrides.params().empty()) {
    Result<DetectorConfig> merged =
        DetectorConfig::FromSpec(overrides, std::move(config));
    if (!merged.ok()) return Fail(merged.status().ToString());
    config = std::move(merged).value();
  }
  if (print_plan) {
    PlanSpec spec = config.ToSpec();
    std::cout << "# pddcli plan (fingerprint " +
                     FingerprintHex(spec.Fingerprint()) + ")\n"
              << spec.ToText();
    return 0;
  }
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(config, rel.schema());
  if (!detector.ok()) return Fail(detector.status().ToString());
  // Any cache flag enables the decision cache; --cache-file also
  // warm-starts from earlier invocations.
  std::shared_ptr<ShardedDecisionCache> cache;
  if (cache_capacity > 0 || !cache_file.empty() || cache_stats) {
    ShardedDecisionCacheOptions cache_options;
    if (cache_capacity > 0) cache_options.capacity = cache_capacity;
    cache = std::make_shared<ShardedDecisionCache>(cache_options);
    if (!cache_file.empty()) {
      Status loaded = cache->LoadSnapshot(cache_file);
      // A missing file is a cold first run, not an error.
      if (!loaded.ok() && loaded.code() != StatusCode::kNotFound) {
        return Fail(loaded.ToString());
      }
    }
    detector->set_cache(cache);
  }
  // The stats report renders the per-stage breakdown, so collect it.
  if (cache_stats) detector->set_collect_stage_timings(true);
  Result<DetectionResult> result = detector->Run(rel);
  if (!result.ok()) return Fail(result.status().ToString());
  if (cache != nullptr && !cache_file.empty()) {
    Status saved = cache->AppendSnapshot(cache_file);
    if (!saved.ok()) return Fail(saved.ToString());
  }
  if (cache_stats || stream_candidates || !metrics_file.empty()) {
    // One telemetry, one exporter code path for every diagnostic: the
    // stderr blocks and the sidecar are all renderings of this
    // registry. Stderr only (stdout stays byte-identical across warm/
    // cold, streamed/materialized and serial/pooled runs).
    RunTelemetry telemetry = result->telemetry != nullptr
                                 ? *result->telemetry
                                 : TelemetryFromResult(*result);
    if (cache != nullptr) {
      AddCacheLifetimeStats(cache->Stats(), &telemetry.metrics);
    }
    std::unique_ptr<PairGenerator> generator =
        detector->plan().MakePairGenerator();
    telemetry.metrics.SetInfo("exec.reduction", generator->name());
    telemetry.metrics.SetInfo(
        "exec.streaming",
        generator->native_streaming() ? "native" : "adapter");
    if (cache_stats) std::cerr << RenderExecutionStats(telemetry);
    if (stream_candidates) std::cerr << RenderStreamDiagnostics(telemetry);
    if (!metrics_file.empty()) {
      std::ofstream out(metrics_file);
      if (!out) return Fail("cannot write '" + metrics_file + "'");
      out << (metrics_format == "prom" ? TelemetryToPrometheus(telemetry)
                                       : TelemetryToJson(telemetry));
      if (!out.good()) return Fail("error writing '" + metrics_file + "'");
    }
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

int RunLintPlan(const std::string& path) {
  Result<std::string> text = ReadFile(path);
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
  PlanSpec decision_subset;
  for (const auto& [key, value] : resolved.params().entries()) {
    if (!IsDecisionIrrelevantSpecKey(key)) {
      decision_subset.params().Set(key, value);
    }
  }
  std::cout << "plan lint: " << path << ": " << spec->params().size()
            << " keys, fingerprint " << FingerprintHex(resolved.Fingerprint())
            << ", decision fingerprint "
            << FingerprintHex(decision_subset.Fingerprint()) << "\n";
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
    return Fail("usage: pddcli <detect|stats|demo> [file] [options]");
  }
  std::string command = argv[1];
  if (command == "lint-plan" || command == "--lint-plan") {
    if (argc < 3) return Fail("lint-plan needs a plan file");
    return RunLintPlan(argv[2]);
  }
  if (command == "demo") {
    XRelation r34 = BuildR34();
    // Keep --print-plan output pipeable back into --plan: the plan
    // must be the only stdout output.
    bool print_plan = false;
    for (int i = 2; i < argc; ++i) {
      if (std::string(argv[i]) == "--print-plan") print_plan = true;
    }
    if (!print_plan) std::cout << ComputeStatistics(r34).ToString() << "\n";
    return RunDetect(r34, argc, argv, 2);
  }
  if (command == "index-build") {
    return RunIndexBuild(std::vector<std::string>(argv + 2, argv + argc));
  }
  if (command == "index-query") {
    if (argc < 3) {
      return Fail(
          "index-query needs <pair|cluster|members|inspect|verify|bench>");
    }
    return RunIndexQuery(argv[2],
                         std::vector<std::string>(argv + 3, argv + argc));
  }
  if (argc < 3) return Fail(command + " needs a relation file");
  Result<XRelation> rel = LoadRelation(argv[2]);
  if (!rel.ok()) return Fail(rel.status().ToString());
  if (command == "stats") {
    std::cout << "relation " << rel->name() << "\n"
              << ComputeStatistics(*rel).ToString();
    return 0;
  }
  if (command == "detect") {
    return RunDetect(*rel, argc, argv, 3);
  }
  if (command == "explain") {
    if (argc < 5) return Fail("explain needs <file> <id1> <id2>");
    const XTuple* t1 = nullptr;
    const XTuple* t2 = nullptr;
    for (const XTuple& t : rel->xtuples()) {
      if (t.id() == argv[3]) t1 = &t;
      if (t.id() == argv[4]) t2 = &t;
    }
    if (t1 == nullptr || t2 == nullptr) {
      return Fail("tuple id not found in relation");
    }
    DetectorConfig config;
    config.key.clear();
    config.key.emplace_back(rel->schema().attribute(0).name, 3);
    if (rel->schema().arity() > 1) {
      config.key.emplace_back(rel->schema().attribute(1).name, 2);
    }
    config.weights.assign(rel->schema().arity(),
                          1.0 / static_cast<double>(rel->schema().arity()));
    Result<DuplicateDetector> detector =
        DuplicateDetector::Make(config, rel->schema());
    if (!detector.ok()) return Fail(detector.status().ToString());
    PairExplanation explanation = ExplainPair(*detector, *t1, *t2);
    std::cout << explanation.ToString(rel->schema());
    return 0;
  }
  return Fail("unknown command '" + command + "'");
}
