#include "core/threshold_tuner.h"

#include <algorithm>
#include <cmath>

namespace pdd {

TuneResult TuneThresholds(const DetectionResult& result,
                          const GoldStandard& gold,
                          const TuneOptions& options) {
  // Label every examined pair and sort by similarity descending; the
  // confusion counts at a threshold then follow from a prefix scan.
  struct Labeled {
    double similarity;
    bool is_gold;
  };
  const ResolvedGold resolved(gold, result.ids.get());
  std::vector<Labeled> pairs;
  pairs.reserve(result.decisions.size());
  size_t gold_examined = 0;
  for (const PairDecisionRecord& rec : result.decisions) {
    bool is_gold = resolved.IsMatch(rec.index1, rec.index2);
    if (is_gold) ++gold_examined;
    double sim = std::isfinite(rec.similarity)
                     ? rec.similarity
                     : std::numeric_limits<double>::max();
    pairs.push_back({sim, is_gold});
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Labeled& a, const Labeled& b) {
              return a.similarity > b.similarity;
            });
  const size_t pruned_gold = gold.size() - gold_examined;

  // Candidate thresholds: midpoints below each distinct similarity (so
  // "similarity strictly above t" includes that prefix), subsampled to
  // max_candidates.
  std::vector<size_t> prefix_ends;  // prefix length ending at candidate
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i + 1 == pairs.size() ||
        pairs[i + 1].similarity < pairs[i].similarity) {
      prefix_ends.push_back(i + 1);
    }
  }
  if (options.max_candidates > 0 &&
      prefix_ends.size() > options.max_candidates) {
    std::vector<size_t> sampled;
    double stride = static_cast<double>(prefix_ends.size()) /
                    static_cast<double>(options.max_candidates);
    for (size_t k = 0; k < options.max_candidates; ++k) {
      sampled.push_back(
          prefix_ends[static_cast<size_t>(static_cast<double>(k) * stride)]);
    }
    if (sampled.back() != prefix_ends.back()) {
      sampled.push_back(prefix_ends.back());
    }
    prefix_ends = std::move(sampled);
  }

  TuneResult out;
  // Also consider the empty prefix (declare nothing a match).
  prefix_ends.insert(prefix_ends.begin(), 0);
  size_t tp = 0, fp = 0;
  size_t scanned = 0;
  double best_f1 = -1.0;
  for (size_t prefix : prefix_ends) {
    while (scanned < prefix) {
      if (pairs[scanned].is_gold) {
        ++tp;
      } else {
        ++fp;
      }
      ++scanned;
    }
    ConfusionCounts counts;
    counts.true_positives = tp;
    counts.false_positives = fp;
    counts.false_negatives = gold_examined - tp + pruned_gold;
    counts.true_negatives = result.total_pairs - counts.true_positives -
                            counts.false_positives - counts.false_negatives;
    ThresholdSweepPoint point;
    // Threshold below the last included similarity (or above the first
    // excluded one for the empty prefix).
    if (prefix == 0) {
      point.t_mu = pairs.empty() ? 1.0 : pairs[0].similarity;
    } else if (prefix < pairs.size()) {
      point.t_mu =
          (pairs[prefix - 1].similarity + pairs[prefix].similarity) / 2.0;
    } else {
      point.t_mu = pairs.back().similarity - 1e-9;
    }
    point.metrics = ComputeEffectiveness(counts);
    if (point.metrics.f1 > best_f1) {
      best_f1 = point.metrics.f1;
      out.best.t_mu = point.t_mu;
      out.best.t_lambda = std::max(0.0, point.t_mu - options.possible_band);
      out.best_metrics = point.metrics;
    }
    out.sweep.push_back(std::move(point));
  }
  return out;
}

}  // namespace pdd
