// The serving step every workload ends with: compile the workload's
// final detection result into a pdd.index.v1 image, open it, and answer
// a fixed seeded mix of queries on one thread in a closed loop.
//
// The mix: three of four queries are pair lookups (half drawn from the
// run's decided pairs, half uniform over all record pairs, so reduced
// runs also answer "never examined"); one of four is a cluster query
// (ClusterOf plus the size of Members). Queries are timed in groups of
// kQueryGroup; each group is one latency sample.

#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "index/decision_index.h"
#include "pdb/xrelation.h"
#include "pipeline/detection_result.h"

namespace perfbench {

inline constexpr size_t kQueryGroup = 4096;

struct ServeTimes {
  double lookup_s = 0.0;
  uint64_t queries = 0;
  double index_bytes_per_pair = 0.0;
  /// Per-group latencies in milliseconds.
  std::vector<double> group_ms;
};

class IndexServer {
 public:
  struct Query {
    uint32_t a = 0;
    uint32_t b = 0;
    bool cluster = false;
  };

  /// Builds the index of `result` over `rel` and answers whole groups
  /// of the mix seeded by `seed` until `seconds` of query time add up.
  ServeTimes Serve(Trace* trace, const pdd::XRelation& rel,
                   const pdd::DetectionResult& result, uint64_t seed,
                   double seconds, Report* report);

  /// Checks the first `checked` answers of the mix against the run's
  /// decisions, and that matched pairs share a cluster. Call after
  /// Serve, outside the timed region.
  void Check(const pdd::DetectionResult& result, size_t checked,
             Report* report) const;

 private:
  std::optional<pdd::DecisionIndex> index_;
  std::vector<Query> mix_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
