// Adaptive sorted neighborhood (after Yan et al.'s adaptive SNM),
// adapted to probabilistic keys: instead of a fixed window, the
// neighborhood around each entry extends while adjacent key values stay
// similar. Dense key regions (many near-duplicates) get wide windows,
// sparse regions narrow ones — removing the window-size guess the
// fixed-window methods of Section V-A require.

#ifndef PDD_REDUCTION_SNM_ADAPTIVE_H_
#define PDD_REDUCTION_SNM_ADAPTIVE_H_

#include "fusion/conflict_resolution.h"
#include "keys/key_builder.h"
#include "reduction/pair_generator.h"
#include "reduction/snm_core.h"
#include "sim/comparator.h"

namespace pdd {

/// Options of adaptive SNM.
struct SnmAdaptiveOptions {
  /// Neighboring keys with similarity >= this extend the window.
  double key_similarity_threshold = 0.6;
  /// Hard cap on the extended window (entries), >= 2.
  size_t max_window = 10;
  /// Key similarity measure (must outlive the generator); defaults to
  /// normalized Hamming when null.
  const Comparator* comparator = nullptr;
  /// Conflict resolution producing the certain sort keys.
  ConflictStrategy strategy = ConflictStrategy::kMostProbable;
};

/// SNM with a similarity-adaptive window over certain keys.
class SnmAdaptive : public PairGenerator {
 public:
  SnmAdaptive(KeySpec spec, SnmAdaptiveOptions options)
      : spec_(std::move(spec)), options_(options) {}

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// Native streaming: the adjacent-link similarities are precomputed
  /// once (O(n) comparator calls, same calls the materialized pass
  /// makes), then each tuple's partners are the entries reachable over
  /// unbroken similar links within max_window — O(max_window) live.
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "snm_adaptive"; }

 private:
  KeySpec spec_;
  SnmAdaptiveOptions options_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_SNM_ADAPTIVE_H_
