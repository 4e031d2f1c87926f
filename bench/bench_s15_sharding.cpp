// S15: sharded candidate streams — the candidate universe partitioned
// into per-shard sources (pipeline/sharded_stream.h) whose merged
// output must be bit-identical to the unsharded stream, while each
// shard holds only its own slice of the candidates. Gates:
//
//   1. byte-identical reports: the merged sharded drain produces the
//      same DetectionReport as the unsharded drain, bit for bit, for
//      every reduction family's partition strategy and shard count;
//   2. per-shard live-candidate high-water < the unsharded high-water
//      (a shard never holds more than the whole);
//   3. per-shard high-water < unsharded high-water / N * 1.5 (the
//      partition is balanced: every shard holds about 1/N of the
//      candidate residency, with 50% slack for boundary effects).
//
// The drain uses one huge executor batch, so the high-water mark IS the
// scenario's candidate residency — the number a node must provision
// for. That is the story sharding tells: N nodes, each ~1/N of the
// pairs live, same bytes out.

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/detector.h"
#include "core/report_writer.h"
#include "datagen/person_generator.h"
#include "pipeline/candidate_stream.h"
#include "pipeline/sharded_stream.h"
#include "pipeline/stage_executor.h"
#include "util/table_printer.h"

namespace {

using namespace pdd;

// One batch swallows any case's full candidate set: live candidates =
// candidate residency, for the unsharded baseline and every shard.
constexpr size_t kBatch = 1u << 20;

DetectorConfig BenchConfig(ReductionMethod method, size_t window,
                           size_t key_prefix) {
  DetectorConfig config;
  config.key = {{"name", key_prefix}, {"job", 2}};
  config.weights = {0.5, 0.3, 0.2};
  config.reduction = method;
  config.window = window;
  config.batch_size = kBatch;
  return config;
}

}  // namespace

int main() {
  pdd_bench::Banner(
      "S15 sharded candidate streams",
      "a shard holds ~1/N of the candidate residency while the merged "
      "result stays byte-identical to the unsharded run");

  PersonGenOptions big;
  big.num_entities = 1200;
  big.duplicate_rate = 0.6;
  big.seed = 150514;
  GeneratedData big_data = GeneratePersons(big);
  PersonGenOptions small = big;
  small.num_entities = 200;  // full pairs: quadratic, keep it honest
  GeneratedData small_data = GeneratePersons(small);

  struct Case {
    const char* label;
    ReductionMethod method;
    size_t window;
    size_t key_prefix;
    const GeneratedData* data;
  };
  const Case cases[] = {
      {"full", ReductionMethod::kFull, 3, 3, &small_data},
      {"snm_certain_keys", ReductionMethod::kSnmCertainKeys, 6, 3,
       &big_data},
      {"blocking_certain_keys", ReductionMethod::kBlockingCertainKeys, 3, 2,
       &big_data},
  };
  const size_t shard_counts[] = {2, 4, 8};

  pdd::TablePrinter table({"reduction", "strategy", "shards", "candidates",
                           "HW unsharded", "HW max shard", "share",
                           "report=="});
  bool ok = true;
  pdd_bench::BenchJsonWriter json("s15");
  json.Set("bench", "s15_sharding");
  for (const Case& c : cases) {
    auto detector = DuplicateDetector::Make(
        BenchConfig(c.method, c.window, c.key_prefix), PersonSchema());
    if (!detector.ok()) {
      std::cout << c.label << ": " << detector.status().ToString() << "\n";
      ok = false;
      continue;
    }
    const XRelation& rel = c.data->relation;
    auto unsharded_stream = MakeFullStream(detector->plan(), rel);
    if (!unsharded_stream.ok()) {
      std::cout << c.label << ": " << unsharded_stream.status().ToString()
                << "\n";
      ok = false;
      continue;
    }
    auto unsharded = detector->RunStream(**unsharded_stream);
    if (!unsharded.ok()) {
      std::cout << c.label << ": " << unsharded.status().ToString() << "\n";
      ok = false;
      continue;
    }
    const std::string report = DetectionReport(*unsharded, nullptr);
    const size_t hw_unsharded =
        unsharded->stream_stats.live_candidate_high_water;
    const ShardStrategy strategy =
        ResolveShardStrategy(ShardStrategy::kAuto, c.method);
    for (size_t shards : shard_counts) {
      auto stream = MakeFullStream(detector->plan(), rel,
                                   {shards, ShardStrategy::kAuto});
      if (!stream.ok()) {
        std::cout << c.label << ": " << stream.status().ToString() << "\n";
        ok = false;
        continue;
      }
      auto sharded = detector->RunStream(**stream);
      if (!sharded.ok()) {
        std::cout << c.label << ": " << sharded.status().ToString() << "\n";
        ok = false;
        continue;
      }
      const bool reports_equal =
          DetectionReport(*sharded, nullptr) == report;
      size_t hw_max_shard = 0;
      for (const StreamRunStats& stats : sharded->stream_stats.per_shard) {
        hw_max_shard = std::max(hw_max_shard,
                                stats.live_candidate_high_water);
      }
      table.AddRow(
          {c.label, ShardStrategyName(strategy), std::to_string(shards),
           std::to_string(sharded->candidate_count),
           std::to_string(hw_unsharded), std::to_string(hw_max_shard),
           pdd_bench::Fmt(100.0 * static_cast<double>(hw_max_shard) /
                              static_cast<double>(hw_unsharded),
                          1) +
               "%",
           reports_equal ? "yes" : "NO"});
      const std::string prefix =
          std::string(c.label) + ".x" + std::to_string(shards);
      json.Set(prefix + ".candidates",
               static_cast<double>(sharded->candidate_count));
      json.Set(prefix + ".unsharded_high_water",
               static_cast<double>(hw_unsharded));
      json.Set(prefix + ".max_shard_high_water",
               static_cast<double>(hw_max_shard));
      json.Set(prefix + ".reports_identical", reports_equal);
      // Gate 1: the merged report is the unsharded report, byte for
      // byte.
      ok = ok && reports_equal;
      // Gate 2: no shard ever holds more than the unsharded drain.
      if (hw_max_shard >= hw_unsharded) {
        std::cout << c.label << " x" << shards << ": shard high-water "
                  << hw_max_shard << " not below unsharded " << hw_unsharded
                  << "\n";
        ok = false;
      }
      // Gate 3: balance — every shard holds about 1/N, 50% slack.
      double bound = static_cast<double>(hw_unsharded) /
                     static_cast<double>(shards) * 1.5;
      if (static_cast<double>(hw_max_shard) >= bound) {
        std::cout << c.label << " x" << shards << ": shard high-water "
                  << hw_max_shard << " exceeds balance bound "
                  << pdd_bench::Fmt(bound, 1) << " (unsharded/"
                  << shards << "*1.5)\n";
        ok = false;
      }
    }
  }
  std::cout << table.ToString() << "\n";
  std::cout << "high-water = peak live candidate pairs of the drain (one "
               "huge batch, so it equals the candidate residency); 'share' "
               "= largest shard's residency vs the unsharded drain.\n";
  json.Write();
  return pdd_bench::Verdict(ok);
}
