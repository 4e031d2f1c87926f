// SNM adaptation 1 (Section V-A.1): multi-pass over possible worlds.
// Each selected world yields certain key values; one SNM pass runs per
// world and the candidate sets are unioned. Only worlds containing all
// tuples are considered (every tuple needs a key value).

#ifndef PDD_REDUCTION_SNM_MULTIPASS_WORLDS_H_
#define PDD_REDUCTION_SNM_MULTIPASS_WORLDS_H_

#include "keys/key_builder.h"
#include "pdb/world_selection.h"
#include "reduction/pair_generator.h"
#include "reduction/snm_core.h"

namespace pdd {

/// Options of the multi-pass method.
struct SnmMultipassOptions {
  /// SNM window size (>= 2).
  size_t window = 3;
  /// Which worlds the passes run over (top probable vs diverse).
  WorldSelectionOptions selection;
  /// Collapses value-level uncertainty inside a chosen alternative.
  ConflictStrategy value_strategy = ConflictStrategy::kMostProbable;
};

/// Multi-pass sorted neighborhood over selected possible worlds.
class SnmMultipassWorlds : public PairGenerator {
 public:
  SnmMultipassWorlds(KeySpec spec, SnmMultipassOptions options)
      : spec_(std::move(spec)), options_(options) {
    options_.selection.all_present_only = true;
  }

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// Native streaming: one pass per selected world feeds a shared
  /// WindowedEntryIndex; live candidates are bounded by
  /// O(worlds · window) per tuple instead of the unioned pair set.
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "snm_multipass_worlds"; }

  /// The key-sorted entry list of one world (exposed for Fig. 9).
  std::vector<KeyedEntry> SortedEntriesForWorld(const World& world,
                                                const XRelation& rel) const;

 private:
  KeySpec spec_;
  SnmMultipassOptions options_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_SNM_MULTIPASS_WORLDS_H_
