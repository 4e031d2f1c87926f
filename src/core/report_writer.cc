#include "core/report_writer.h"

#include <algorithm>
#include <utility>

#include "plan/plan_spec.h"
#include "util/string_util.h"

namespace pdd {

namespace {

std::string CsvEscape(std::string_view field) {
  if (field.find_first_of(",\"\n") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string DecisionCsvRow(std::string_view id1, std::string_view id2,
                           std::optional<XPairDecision> decision) {
  std::string row = CsvEscape(id1) + "," + CsvEscape(id2) + ",";
  if (!decision.has_value()) return row + ",none";
  return row + FormatDouble(decision->similarity, 6) + "," +
         MatchClassName(decision->match_class);
}

std::string DecisionsToCsv(const DetectionResult& result,
                           const GoldStandard* gold) {
  std::string out = "id1,id2,similarity,decision";
  if (gold != nullptr) out += ",gold";
  out += "\n";
  for (const PairDecisionRecord& rec : result.decisions) {
    const std::string& id1 = result.id(rec.index1);
    const std::string& id2 = result.id(rec.index2);
    out += DecisionCsvRow(id1, id2, XPairDecision{rec.similarity,
                                                  rec.match_class});
    if (gold != nullptr) {
      out += gold->IsMatch(id1, id2) ? ",match" : ",non-match";
    }
    out += "\n";
  }
  return out;
}

std::string DetectionReport(const DetectionResult& result,
                            const GoldStandard* gold,
                            size_t max_review_rows) {
  std::string out = "# Duplicate detection report\n\n";
  if (result.plan_fingerprint != 0) {
    out += "- plan fingerprint: " + FingerprintHex(result.plan_fingerprint) +
           "\n";
  }
  out += "- pairs examined: " + std::to_string(result.candidate_count) +
         " of " + std::to_string(result.total_pairs) + "\n";
  // One scan counts the classes and collects the clerical review queue
  // (the possible matches).
  size_t matches = 0;
  size_t unmatches = 0;
  std::vector<const PairDecisionRecord*> review;
  for (const PairDecisionRecord& rec : result.decisions) {
    switch (rec.match_class) {
      case MatchClass::kMatch:
        ++matches;
        break;
      case MatchClass::kPossible:
        review.push_back(&rec);
        break;
      case MatchClass::kUnmatch:
        ++unmatches;
        break;
    }
  }
  out += "- matches (M): " + std::to_string(matches) + "\n";
  out += "- possible matches (P): " + std::to_string(review.size()) + "\n";
  out += "- non-matches (U): " + std::to_string(unmatches) + "\n";
  if (gold != nullptr) {
    EffectivenessMetrics strict = Evaluate(result, *gold);
    EffectivenessMetrics lenient = Evaluate(result, *gold,
                                            /*count_possible_as_match=*/true);
    ReductionMetrics reduction = EvaluateReduction(result, *gold);
    out += "\n## Verification\n\n";
    out += "- matches only: " + strict.ToString() + "\n";
    out += "- incl. possible: " + lenient.ToString() + "\n";
    out += "- reduction: " + reduction.ToString() + "\n";
  }
  // Clerical review queue: highest-similarity possible matches first.
  std::sort(review.begin(), review.end(),
            [](const PairDecisionRecord* a, const PairDecisionRecord* b) {
              return a->similarity > b->similarity;
            });
  if (!review.empty()) {
    out += "\n## Clerical review queue\n\n";
    out += "| pair | similarity |\n|---|---|\n";
    size_t rows = std::min(max_review_rows, review.size());
    for (size_t i = 0; i < rows; ++i) {
      out += "| " + result.id(review[i]->index1) + " ~ " +
             result.id(review[i]->index2) + " | " +
             FormatDouble(review[i]->similarity, 4) + " |\n";
    }
    if (review.size() > rows) {
      out += "\n(" + std::to_string(review.size() - rows) + " more)\n";
    }
  }
  return out;
}

}  // namespace pdd
