// SNM adaptation 3 (Section V-A.3, Fig. 11/12): every alternative gets
// its own key value; the alternatives' keys are sorted while keeping
// references to their tuples. Neighboring entries of the same tuple are
// omitted, and a matrix of executed matchings prevents matching a tuple
// pair twice.

#ifndef PDD_REDUCTION_SNM_SORTING_ALTERNATIVES_H_
#define PDD_REDUCTION_SNM_SORTING_ALTERNATIVES_H_

#include "keys/key_builder.h"
#include "reduction/pair_generator.h"
#include "reduction/snm_core.h"

namespace pdd {

/// Options of the sorting-alternatives method.
struct SnmAlternativesOptions {
  /// SNM window size (>= 2).
  size_t window = 3;
};

/// SNM over per-alternative keys with duplicate-matching suppression.
class SnmSortingAlternatives : public PairGenerator {
 public:
  SnmSortingAlternatives(KeySpec spec, SnmAlternativesOptions options)
      : spec_(std::move(spec)), options_(options) {}

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// Native streaming over the surviving entries; a tuple's live
  /// partners are bounded by its alternative count times the window.
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "snm_sorting_alternatives"; }

  /// The sorted entry list BEFORE the same-tuple omission (exposed for
  /// Fig. 11's left-to-right illustration).
  std::vector<KeyedEntry> SortedEntries(const XRelation& rel) const;

  /// The entry list after the omission rule (Fig. 11 right, surviving
  /// rows).
  std::vector<KeyedEntry> SurvivingEntries(const XRelation& rel) const;

 private:
  KeySpec spec_;
  SnmAlternativesOptions options_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_SNM_SORTING_ALTERNATIVES_H_
