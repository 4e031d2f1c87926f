#include "reduction/pruning.h"

#include <algorithm>

namespace pdd {

bool IsMaxLengthNormalizedComparator(std::string_view name) {
  // exact / exact_nocase / prefix are bounded too: they score 1 only
  // for equal-length strings (bound 1) and prefix similarity is
  // |lcp| / max ≤ min / max = LengthBound.
  return name == "hamming" || name == "levenshtein" || name == "damerau" ||
         name == "lcs" || name == "exact" || name == "exact_nocase" ||
         name == "prefix";
}

double LengthBound(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  size_t diff = max_len - std::min(a.size(), b.size());
  return 1.0 - static_cast<double>(diff) / static_cast<double>(max_len);
}

double ValueLengthBound(const Value& a, const Value& b) {
  // ⊥ against ⊥ scores 1, so any shared ⊥ mass lifts the bound to 1.
  if (a.null_probability() > kProbEpsilon &&
      b.null_probability() > kProbEpsilon) {
    return 1.0;
  }
  double bound = 0.0;
  for (const Alternative& da : a.alternatives()) {
    for (const Alternative& db : b.alternatives()) {
      bound = std::max(bound, LengthBound(da.text, db.text));
      if (bound >= 1.0) return 1.0;
    }
  }
  return bound;
}

namespace {

/// Bounds `value` as the matcher compares it: a pattern by its
/// expansions. Pattern-free values (the common case) are not copied.
const Value& Comparable(const Value& value,
                        const std::vector<std::string>& vocabulary,
                        Value* expanded) {
  if (!value.has_pattern()) return value;
  *expanded = value.Expanded(vocabulary);
  return *expanded;
}

}  // namespace

double PruningFilter::PairBound(const XTuple& a, const XTuple& b,
                                const Schema& schema) const {
  // Weighted-sum bound over the attributes: every world's combined
  // similarity is at most Σ w_i · bound_i.
  size_t arity = std::min(a.arity(), b.arity());
  double total_weight = 0.0;
  double bound = 0.0;
  for (size_t i = 0; i < arity; ++i) {
    double w = i < options_.weights.size() ? options_.weights[i] : 1.0;
    total_weight += w;
    const std::vector<std::string>& vocabulary =
        schema.attribute(i).vocabulary;
    double attr_bound = 0.0;
    Value expanded_a;
    Value expanded_b;
    for (const AltTuple& alt_a : a.alternatives()) {
      const Value& va = Comparable(alt_a.values[i], vocabulary, &expanded_a);
      for (const AltTuple& alt_b : b.alternatives()) {
        const Value& vb =
            Comparable(alt_b.values[i], vocabulary, &expanded_b);
        attr_bound = std::max(attr_bound, ValueLengthBound(va, vb));
        if (attr_bound >= 1.0) break;
      }
      if (attr_bound >= 1.0) break;
    }
    bound += w * attr_bound;
  }
  if (options_.weights.empty() && total_weight > 0.0) {
    bound /= total_weight;  // uniform weights normalize to [0, 1]
  }
  return bound;
}

Result<std::vector<CandidatePair>> PruningFilter::Generate(
    const XRelation& rel) const {
  PDD_ASSIGN_OR_RETURN(std::vector<CandidatePair> candidates,
                       inner_->Generate(rel));
  std::vector<CandidatePair> kept;
  kept.reserve(candidates.size());
  for (const CandidatePair& pair : candidates) {
    if (PairBound(rel.xtuple(pair.first), rel.xtuple(pair.second),
                  rel.schema()) >= options_.threshold) {
      kept.push_back(pair);
    }
  }
  return kept;
}

Result<std::unique_ptr<PairBatchSource>> PruningFilter::Stream(
    const XRelation& rel) const {
  PDD_ASSIGN_OR_RETURN(std::unique_ptr<PairBatchSource> inner,
                       inner_->Stream(rel));
  // The filter borrows `rel` and this filter; the caller keeps both
  // alive for the source's lifetime (the Stream() contract).
  return std::unique_ptr<PairBatchSource>(
      std::make_unique<FilteringPairSource>(
          std::move(inner), [this, &rel](const CandidatePair& pair) {
            return PairBound(rel.xtuple(pair.first), rel.xtuple(pair.second),
                             rel.schema()) >= options_.threshold;
          }));
}

}  // namespace pdd
