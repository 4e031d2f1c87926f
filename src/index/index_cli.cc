#include "index/index_cli.h"

#include <chrono>
#include <iostream>
#include <utility>

#include "core/detector.h"
#include "core/entity_clusters.h"
#include "core/report_writer.h"
#include "core/tool_args.h"
#include "index/decision_index.h"
#include "index/index_builder.h"
#include "obs/export.h"
#include "obs/run_telemetry.h"
#include "pdb/text_format.h"
#include "pipeline/detection_plan.h"
#include "plan/plan_spec.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace pdd {

namespace {

int Fail(const std::string& message) {
  std::cerr << "pddquery: " << message << "\n";
  return 1;
}

/// The index's shape metrics (`exec.index.*`); the build time stays 0
/// and unrendered.
void AddIndexShapeMetrics(const DecisionIndex& index,
                          MetricsRegistry* metrics) {
  IndexBuildStats shape;
  shape.record_count = index.record_count();
  shape.pair_count = index.pair_count();
  shape.cluster_count = index.cluster_count();
  shape.bytes = index.bytes();
  AddIndexBuildMetrics(shape, metrics);
}

Result<DecisionIndex> OpenIndex(const std::string& path) {
  return DecisionIndex::Open(path);
}

int CmdPair(const DecisionIndex& index, const std::string& id1,
            const std::string& id2) {
  std::optional<uint32_t> a = index.FindRecord(id1);
  if (!a.has_value()) return Fail("unknown record id '" + id1 + "'");
  std::optional<uint32_t> b = index.FindRecord(id2);
  if (!b.has_value()) return Fail("unknown record id '" + id2 + "'");
  // The report's --csv row, so answers diff cleanly against a fresh
  // run's CSV. A pair the run never examined is an answer, not an error.
  std::optional<XPairDecision> answer;
  if (std::optional<IndexedDecision> decision = index.Lookup(*a, *b)) {
    answer = XPairDecision{decision->similarity, decision->match_class};
  }
  std::cout << DecisionCsvRow(id1, id2, answer) << "\n";
  return 0;
}

int CmdCluster(const DecisionIndex& index, const std::string& id) {
  std::optional<uint32_t> r = index.FindRecord(id);
  if (!r.has_value()) return Fail("unknown record id '" + id + "'");
  uint32_t cluster = *index.ClusterOf(*r);
  RecordSpan members = index.Members(cluster);
  std::cout << "record '" << id << "' (index " << *r << "): cluster "
            << cluster << " (" << members.size << " members):";
  for (uint32_t member : members) {
    std::cout << " " << index.RecordId(member);
  }
  std::cout << "\n";
  return 0;
}

int CmdMembers(const DecisionIndex& index, const std::string& cluster_arg) {
  size_t parsed = 0;
  if (!ParseSize(cluster_arg, &parsed) || parsed >= index.cluster_count()) {
    return Fail("cluster id '" + cluster_arg + "' out of range (index has " +
                std::to_string(index.cluster_count()) + " clusters)");
  }
  uint32_t cluster = static_cast<uint32_t>(parsed);
  RecordSpan members = index.Members(cluster);
  std::cout << "cluster " << cluster << " (" << members.size << " members):";
  for (uint32_t member : members) {
    std::cout << " " << index.RecordId(member);
  }
  std::cout << "\n";
  return 0;
}

int CmdInspect(const DecisionIndex& index, const std::string& path) {
  std::cout << "pdd.index.v1: " << path << "\n"
            << "  records:          " << index.record_count() << "\n"
            << "  pairs:            " << index.pair_count() << "\n"
            << "  clusters:         " << index.cluster_count() << "\n"
            << "  bytes:            " << index.bytes();
  if (index.pair_count() > 0) {
    std::cout << " ("
              << FormatDouble(static_cast<double>(index.bytes()) /
                                  static_cast<double>(index.pair_count()),
                              2)
              << " bytes/pair)";
  }
  std::cout << "\n"
            << "  plan fingerprint: "
            << FingerprintHex(index.plan_fingerprint()) << "\n"
            << "  source digest:    " << FingerprintHex(index.source_digest())
            << "\n"
            << "  mapping:          " << (index.is_mmap() ? "mmap" : "heap")
            << "\n";
  return 0;
}

int CmdVerify(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Fail("verify needs <index> <relation.pxr> [plan flags]");
  }
  Result<DecisionIndex> index = OpenIndex(args[0]);
  if (!index.ok()) return Fail(index.status().ToString());
  Result<ToolArgs> flags =
      ParseToolArgs({args.begin() + 1, args.end()}, kPlanFlags | kSidecarFlags);
  if (!flags.ok()) return Fail(flags.status().ToString());
  if (flags->positional.size() != 1) {
    return Fail("verify needs <index> <relation.pxr> [plan flags]");
  }
  Result<XRelation> rel = LoadXRelation(flags->positional[0]);
  if (!rel.ok()) return Fail(rel.status().ToString());
  Result<DetectorConfig> config = ResolveConfig(*flags, rel->schema());
  if (!config.ok()) return Fail(config.status().ToString());
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(*config, rel->schema());
  if (!detector.ok()) return Fail(detector.status().ToString());
  // Fast structural staleness check before paying for a pipeline run:
  // the plan fingerprint alone rejects an index built under another
  // plan.
  Status fresh_plan =
      index->VerifyPlanFingerprint(detector->plan().fingerprint());
  if (!fresh_plan.ok()) return Fail(fresh_plan.ToString());
  Result<DetectionResult> result = detector->Run(*rel);
  if (!result.ok()) return Fail(result.status().ToString());
  Status fresh_source = index->VerifySourceDigest(result->ContentDigest());
  if (!fresh_source.ok()) return Fail(fresh_source.ToString());
  // Digest equality already implies identical decisions; the explicit
  // sweep turns "should be" into "checked, answer by answer": the
  // index's row, rendered with its own ids, equals the fresh run's.
  for (const PairDecisionRecord& rec : result->decisions) {
    const std::string& id1 = result->id(rec.index1);
    const std::string& id2 = result->id(rec.index2);
    std::optional<IndexedDecision> decision =
        index->Lookup(rec.index1, rec.index2);
    if (!decision.has_value() ||
        decision->match_class != rec.match_class ||
        DecisionCsvRow(index->RecordId(rec.index1),
                       index->RecordId(rec.index2),
                       XPairDecision{decision->similarity,
                                     decision->match_class}) !=
            DecisionCsvRow(id1, id2,
                           XPairDecision{rec.similarity, rec.match_class})) {
      return Fail("indexed answer diverges for pair (" + id1 + ", " + id2 +
                  ")");
    }
  }
  std::vector<std::vector<size_t>> clusters =
      ClusterEntities(rel->size(), *result);
  if (clusters.size() != index->cluster_count()) {
    return Fail("cluster count diverges from the fresh run");
  }
  for (size_t c = 0; c < clusters.size(); ++c) {
    RecordSpan members = index->Members(static_cast<uint32_t>(c));
    if (members.size != clusters[c].size()) {
      return Fail("cluster " + std::to_string(c) +
                  " membership diverges from the fresh run");
    }
    for (size_t k = 0; k < members.size; ++k) {
      if (members[k] != clusters[c][k]) {
        return Fail("cluster " + std::to_string(c) +
                    " membership diverges from the fresh run");
      }
    }
  }
  // The fresh run's telemetry with the verified index's shape, as
  // `bench` reports it.
  RunTelemetry telemetry = *result->telemetry;
  AddIndexShapeMetrics(*index, &telemetry.metrics);
  Status sidecar = WriteSidecar(*flags, telemetry);
  if (!sidecar.ok()) return Fail(sidecar.ToString());
  std::cout << "index verify: OK — " << result->decisions.size()
            << " pair answers and " << index->cluster_count()
            << " clusters byte-identical to the fresh run (plan "
            << FingerprintHex(index->plan_fingerprint()) << ")\n";
  return 0;
}

int CmdBench(const std::vector<std::string>& args) {
  if (args.empty()) return Fail("bench needs <index> [--point N] ...");
  Result<DecisionIndex> opened = OpenIndex(args[0]);
  if (!opened.ok()) return Fail(opened.status().ToString());
  const DecisionIndex& index = *opened;
  size_t point_target = 2'000'000;
  size_t membership_target = 2'000'000;
  Result<ToolArgs> flags = ParseToolArgs(
      {args.begin() + 1, args.end()}, kSidecarFlags,
      {CountFlag("--point", &point_target),
       CountFlag("--membership", &membership_target)});
  if (!flags.ok()) return Fail(flags.status().ToString());
  if (!flags->positional.empty()) {
    return Fail("unknown option '" + flags->positional[0] + "'");
  }
  // The query load is every decided pair (in index order) repeated to
  // the target — deterministic, no RNG, covers every run and width.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(static_cast<size_t>(index.pair_count()));
  for (uint64_t r = 0; r < index.record_count(); ++r) {
    const uint32_t record = static_cast<uint32_t>(r);
    const size_t degree = index.RunLength(record);
    for (size_t k = 0; k < degree; ++k) {
      uint32_t neighbor = 0;
      IndexedDecision decision;
      if (index.RunEntry(record, k, &neighbor, &decision)) {
        pairs.emplace_back(record, neighbor);
      }
    }
  }
  RunTelemetry telemetry;
  telemetry.root.name = "index.bench";
  AddIndexShapeMetrics(index, &telemetry.metrics);
  uint64_t checksum = 0;
  if (!pairs.empty()) {
    size_t done = 0;
    const auto started = std::chrono::steady_clock::now();
    while (done < point_target) {
      for (const auto& [a, b] : pairs) {
        std::optional<IndexedDecision> decision = index.Lookup(a, b);
        checksum += decision.has_value()
                        ? static_cast<uint64_t>(decision->match_class) + 1
                        : 0;
        ++done;
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    telemetry.metrics.SetCounter("exec.index.point_queries", done);
    telemetry.metrics.SetGauge(
        "time.index.point_queries_per_sec",
        seconds > 0.0 ? static_cast<double>(done) / seconds : 0.0);
  }
  if (index.record_count() > 0) {
    size_t done = 0;
    const auto started = std::chrono::steady_clock::now();
    while (done < membership_target) {
      for (uint64_t r = 0; r < index.record_count() && done < membership_target;
           ++r) {
        const uint32_t record = static_cast<uint32_t>(r);
        const uint32_t cluster = *index.ClusterOf(record);
        RecordSpan members = index.Members(cluster);
        checksum += members.size + members[0];
        ++done;
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    telemetry.metrics.SetCounter("exec.index.membership_queries", done);
    telemetry.metrics.SetGauge(
        "time.index.membership_queries_per_sec",
        seconds > 0.0 ? static_cast<double>(done) / seconds : 0.0);
  }
  std::cout << RenderIndexStats(telemetry);
  // The checksum keeps the query loops observable (and honest).
  std::cout << "  checksum: " << checksum << "\n";
  Status written = WriteSidecar(*flags, telemetry);
  if (!written.ok()) return Fail(written.ToString());
  return 0;
}

}  // namespace

int RunIndexBuild(const std::vector<std::string>& args) {
  Result<ToolArgs> flags = ParseToolArgs(args, kPlanFlags | kSidecarFlags);
  if (!flags.ok()) return Fail(flags.status().ToString());
  if (flags->positional.size() != 2) {
    return Fail("build needs <relation.pxr> <out.pddindex>");
  }
  const std::string& image_path = flags->positional[1];
  Status usable = CheckOutputPath(image_path);
  if (!usable.ok()) return Fail(usable.ToString());
  Result<XRelation> rel = LoadXRelation(flags->positional[0]);
  if (!rel.ok()) return Fail(rel.status().ToString());
  Result<DetectorConfig> config = ResolveConfig(*flags, rel->schema());
  if (!config.ok()) return Fail(config.status().ToString());
  Result<DuplicateDetector> detector =
      DuplicateDetector::Make(*config, rel->schema());
  if (!detector.ok()) return Fail(detector.status().ToString());
  Result<DetectionResult> result = detector->Run(*rel);
  if (!result.ok()) return Fail(result.status().ToString());
  IndexBuildStats stats;
  Result<std::string> image = BuildDecisionIndexImage(*rel, *result, &stats);
  if (!image.ok()) return Fail(image.status().ToString());
  Status written = WriteDecisionIndexFile(image_path, *image);
  if (!written.ok()) return Fail(written.ToString());
  RunTelemetry telemetry = *result->telemetry;
  AddIndexBuildMetrics(stats, &telemetry.metrics);
  std::cout << "index: wrote " << image_path << " (plan "
            << FingerprintHex(result->plan_fingerprint) << ", source digest "
            << FingerprintHex(result->ContentDigest()) << ")\n"
            << RenderIndexStats(telemetry);
  Status sidecar = WriteSidecar(*flags, telemetry);
  if (!sidecar.ok()) return Fail(sidecar.ToString());
  return 0;
}

int RunIndexQuery(const std::string& mode,
                  const std::vector<std::string>& args) {
  if (mode == "verify") return CmdVerify(args);
  if (mode == "bench") return CmdBench(args);
  if (args.empty()) return Fail(mode + " needs an index file");
  Result<DecisionIndex> index = OpenIndex(args[0]);
  if (!index.ok()) return Fail(index.status().ToString());
  if (mode == "pair") {
    if (args.size() != 3) return Fail("pair needs <index> <id1> <id2>");
    return CmdPair(*index, args[1], args[2]);
  }
  if (mode == "cluster") {
    if (args.size() != 2) return Fail("cluster needs <index> <id>");
    return CmdCluster(*index, args[1]);
  }
  if (mode == "members") {
    if (args.size() != 2) return Fail("members needs <index> <cluster-id>");
    return CmdMembers(*index, args[1]);
  }
  if (mode == "inspect") {
    if (args.size() != 1) return Fail("inspect needs <index>");
    return CmdInspect(*index, args[0]);
  }
  return Fail("unknown index query mode '" + mode +
              "' (pair|cluster|members|inspect|verify|bench)");
}

}  // namespace pdd
