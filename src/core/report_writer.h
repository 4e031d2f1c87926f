// Export of detection results for downstream analysis: CSV (one row per
// examined pair) and a Markdown summary with verification metrics.

#ifndef PDD_CORE_REPORT_WRITER_H_
#define PDD_CORE_REPORT_WRITER_H_

#include <optional>
#include <string>
#include <string_view>

#include "core/detector.h"
#include "verify/gold_standard.h"

namespace pdd {

/// One CSV row without its newline: `id1,id2,similarity,decision`,
/// ids containing commas or quotes double-quoted per RFC 4180. A pair
/// the run did not examine (no `decision`) reads `id1,id2,,none`.
/// Every CSV surface renders its rows here: DecisionsToCsv, and
/// `pddquery pair` / `verify` over an index.
std::string DecisionCsvRow(std::string_view id1, std::string_view id2,
                           std::optional<XPairDecision> decision);

/// CSV rendering of the pair decisions: header
/// `id1,id2,similarity,decision[,gold]`, then one DecisionCsvRow per
/// record; the gold column appears when a gold standard is supplied.
std::string DecisionsToCsv(const DetectionResult& result,
                           const GoldStandard* gold = nullptr);

/// Markdown report: run statistics, M/P/U counts, effectiveness and
/// reduction metrics when a gold standard is supplied, and the top
/// possible matches for clerical review. Deliberately excludes wall
/// times and cache counters (RenderExecutionStats, obs/export.h) so
/// reports of identical runs stay byte-identical.
std::string DetectionReport(const DetectionResult& result,
                            const GoldStandard* gold = nullptr,
                            size_t max_review_rows = 10);

}  // namespace pdd

#endif  // PDD_CORE_REPORT_WRITER_H_
