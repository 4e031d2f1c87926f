#include "core/config.h"

#include <string>

#include "reduction/pruning.h"

namespace pdd {

Status DetectorConfig::Validate() const {
  if (key.empty()) {
    return Status::InvalidArgument("config needs at least one key component");
  }
  bool needs_window = reduction == ReductionMethod::kSnmMultipassWorlds ||
                      reduction == ReductionMethod::kSnmCertainKeys ||
                      reduction == ReductionMethod::kSnmSortingAlternatives ||
                      reduction == ReductionMethod::kSnmUncertainRanking;
  if (needs_window && window < 2) {
    return Status::InvalidArgument("SNM window must be at least 2");
  }
  if (reduction == ReductionMethod::kCanopy && canopy.tight > canopy.loose) {
    return Status::InvalidArgument("canopy tight threshold exceeds loose");
  }
  PDD_RETURN_IF_ERROR(intermediate.Validate());
  PDD_RETURN_IF_ERROR(final_thresholds.Validate());
  for (double w : weights) {
    if (w < 0.0) return Status::InvalidArgument("negative combination weight");
  }
  if (combination == CombinationKind::kFellegiSunter &&
      fs_attributes.empty()) {
    return Status::InvalidArgument(
        "Fellegi-Sunter combination needs fs_attributes");
  }
  if (combination == CombinationKind::kRules && rules_text.empty()) {
    return Status::InvalidArgument("rule combination needs rules_text");
  }
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (workers > kMaxWorkers) {
    return Status::InvalidArgument("workers must be at most " +
                                   std::to_string(kMaxWorkers));
  }
  if (prune_threshold < 0.0 || prune_threshold > 1.0) {
    return Status::InvalidArgument("prune_threshold must be in [0, 1]");
  }
  if (prune && combination != CombinationKind::kWeightedSum) {
    // The filter's bound is Σ w_i · bound_i over the weighted-sum
    // weights; it bounds no other φ.
    return Status::InvalidArgument(
        std::string("prune requires the weighted_sum combination; '") +
        CombinationKindName(combination) + "' is not");
  }
  if (prune) {
    // The length-bound filter is only sound for comparators normalized
    // by max length (see reduction/pruning.h). Positions overridden by
    // a custom comparator instance are the caller's responsibility;
    // empty / "default" entries are checked against their per-type
    // resolution at plan compile time, when the schema is known.
    for (size_t i = 0; i < comparators.size(); ++i) {
      if (i < custom_comparators.size() && custom_comparators[i] != nullptr) {
        continue;
      }
      const std::string& name = comparators[i];
      if (name.empty() || name == "default" ||
          IsMaxLengthNormalizedComparator(name)) {
        continue;
      }
      return Status::InvalidArgument(
          "prune requires max-length-normalized comparators (hamming/"
          "levenshtein/damerau/lcs/exact/exact_nocase/prefix); '" +
          name + "' is not");
    }
  }
  return Status::OK();
}

}  // namespace pdd
