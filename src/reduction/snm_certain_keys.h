// SNM adaptation 2 (Section V-A.2): certain key values via conflict
// resolution — each x-tuple is collapsed to one alternative (e.g. the
// most probable) before key creation, then a single SNM pass runs.
// The paper notes the resulting matchings are always a subset of the
// multi-pass matchings when the most-probable strategy is used.

#ifndef PDD_REDUCTION_SNM_CERTAIN_KEYS_H_
#define PDD_REDUCTION_SNM_CERTAIN_KEYS_H_

#include "keys/key_builder.h"
#include "reduction/pair_generator.h"
#include "reduction/snm_core.h"

namespace pdd {

/// Options of the certain-key method.
struct SnmCertainKeyOptions {
  /// SNM window size (>= 2).
  size_t window = 3;
  /// Conflict resolution strategy unifying alternatives.
  ConflictStrategy strategy = ConflictStrategy::kMostProbable;
};

/// Single-pass SNM over conflict-resolved certain keys.
class SnmCertainKeys : public PairGenerator {
 public:
  SnmCertainKeys(KeySpec spec, SnmCertainKeyOptions options)
      : spec_(std::move(spec)), options_(options) {}

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// Native streaming: one WindowPairSource pass over the sorted
  /// entries; live candidates are bounded by one tuple's window
  /// neighborhood (≤ 2(window-1)) instead of the full pair set.
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "snm_certain_keys"; }

  /// The key-sorted entry list (exposed for Fig. 10).
  std::vector<KeyedEntry> SortedEntries(const XRelation& rel) const;

 private:
  KeySpec spec_;
  SnmCertainKeyOptions options_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_SNM_CERTAIN_KEYS_H_
