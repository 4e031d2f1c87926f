// Export of detection results for downstream analysis: CSV (one row per
// examined pair) and a Markdown summary with verification metrics.

#ifndef PDD_CORE_REPORT_WRITER_H_
#define PDD_CORE_REPORT_WRITER_H_

#include <string>

#include "core/detector.h"
#include "verify/gold_standard.h"

namespace pdd {

/// CSV rendering of the pair decisions: header
/// `id1,id2,similarity,decision[,gold]`; the gold column appears when a
/// gold standard is supplied. Ids containing commas or quotes are
/// double-quoted per RFC 4180.
std::string DecisionsToCsv(const DetectionResult& result,
                           const GoldStandard* gold = nullptr);

/// Markdown report: run statistics, M/P/U counts, effectiveness and
/// reduction metrics when a gold standard is supplied, and the top
/// possible matches for clerical review. Deliberately excludes wall
/// times and cache counters (see ExecutionStatsReport) so reports of
/// identical runs stay byte-identical.
std::string DetectionReport(const DetectionResult& result,
                            const GoldStandard* gold = nullptr,
                            size_t max_review_rows = 10);

/// Markdown rendering of a run's execution statistics: the executor's
/// per-batch wall-time breakdown (pull / decide / commit, with the
/// batch decide p50 and p99) and, when a cache was attached, the run's
/// hit/miss/insert counts. Kept separate from DetectionReport because
/// these numbers vary between otherwise identical runs.
std::string ExecutionStatsReport(const DetectionResult& result);

}  // namespace pdd

#endif  // PDD_CORE_REPORT_WRITER_H_
