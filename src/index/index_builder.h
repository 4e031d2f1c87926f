// Compiles one detection run into a decision-index image (the
// build-once half of the serving layer; index/format.h describes the
// bytes, index/decision_index.h reads them back). The builder compacts
// the run's pair decisions into per-record sorted adjacency runs
// (frame-of-reference delta coding + 2-bit packed classes + bit-exact
// similarities), derives entity clusters via union-find over the
// duplicate decisions, and lays the record-id -> cluster-id and
// cluster-id -> member-range tables out flat, so every query the
// reader answers is pointer arithmetic.
//
// Determinism: the image is a pure function of (record ids, report
// content). Serial, pooled and cached runs of one plan produce
// byte-identical reports, so they compile to byte-identical
// index files — gated by tests/decision_index_test.cc.

#ifndef PDD_INDEX_INDEX_BUILDER_H_
#define PDD_INDEX_INDEX_BUILDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pdb/xrelation.h"
#include "pipeline/detection_result.h"
#include "util/status.h"

namespace pdd {

class MetricsRegistry;

/// What one compile produced, for reports and the `exec.index.*`
/// metrics namespace.
struct IndexBuildStats {
  uint64_t record_count = 0;
  uint64_t pair_count = 0;
  uint64_t cluster_count = 0;
  /// Total file bytes (header + payload).
  uint64_t bytes = 0;
  /// Wall time of the compile (steady clock around Build).
  double build_seconds = 0.0;

  /// Index bytes per decided pair; 0 when the run decided none.
  double BytesPerPair() const {
    return pair_count == 0
               ? 0.0
               : static_cast<double>(bytes) / static_cast<double>(pair_count);
  }
};

/// Compiles `result` into a pdd.index.v1 image. `record_ids` is the
/// full record universe in tuple-index order (records without any
/// decision still get cluster/membership entries as singletons); the
/// result's id table must equal it and the decisions' indices must
/// address it. Fails on inconsistent or duplicate decisions rather than
/// guessing. `stats` (optional) receives the compile accounting.
Result<std::string> BuildDecisionIndexImage(
    const std::vector<std::string>& record_ids, const DetectionResult& result,
    IndexBuildStats* stats = nullptr);

/// Convenience form taking the record universe from the relation the
/// run examined (the result -> builder handoff used by the tools).
Result<std::string> BuildDecisionIndexImage(const XRelation& rel,
                                            const DetectionResult& result,
                                            IndexBuildStats* stats = nullptr);

/// Replaces `path` with an image through WriteFileAtomically.
Status WriteDecisionIndexFile(const std::string& path,
                              const std::string& image);

/// Records a compile into the registry: `exec.index.records/pairs/
/// clusters/bytes` counters, the `exec.index.bytes_per_pair` gauge and
/// the timing-namespace `time.index.build_seconds` gauge (obs
/// discipline: counts are deterministic, build time never is).
void AddIndexBuildMetrics(const IndexBuildStats& stats,
                          MetricsRegistry* metrics);

}  // namespace pdd

#endif  // PDD_INDEX_INDEX_BUILDER_H_
