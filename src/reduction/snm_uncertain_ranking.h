// SNM adaptation 4 (Section V-A.4, Fig. 13): tuples keep uncertain key
// values and are ordered by a probabilistic ranking function; the window
// then slides over the ranked tuples. The paper calls this the most
// promising approach w.r.t. effectiveness and requires O(n log n)
// ranking complexity.

#ifndef PDD_REDUCTION_SNM_UNCERTAIN_RANKING_H_
#define PDD_REDUCTION_SNM_UNCERTAIN_RANKING_H_

#include "keys/key_builder.h"
#include "reduction/pair_generator.h"
#include "reduction/snm_core.h"

namespace pdd {

/// Which ranking function orders the uncertain keys.
enum class RankingMethod {
  /// Exact expected rank, O(n²) — reference quality.
  kExpectedRank = 0,
  /// Positional approximation, O(n log n) — the paper's complexity target.
  kPositional = 1,
};

/// Options of the uncertain-key method.
struct SnmRankingOptions {
  /// SNM window size (>= 2), measured in tuples.
  size_t window = 3;
  RankingMethod method = RankingMethod::kPositional;
  /// Renormalize key distributions by p(t) before ranking (Fig. 13 keeps
  /// raw masses; ranking normalizes internally either way).
  bool conditioned = false;
};

/// SNM over rank-ordered tuples with probabilistic key values.
class SnmUncertainRanking : public PairGenerator {
 public:
  SnmUncertainRanking(KeySpec spec, SnmRankingOptions options)
      : spec_(std::move(spec)), options_(options) {}

  Result<std::vector<CandidatePair>> Generate(
      const XRelation& rel) const override;
  /// Native streaming: the window slides over the ranked order, which
  /// is a single entry pass of the shared windowed index.
  Result<std::unique_ptr<PairBatchSource>> Stream(
      const XRelation& rel) const override;
  std::string name() const override { return "snm_uncertain_ranking"; }

  /// The ranked tuple order (exposed for Fig. 13).
  std::vector<size_t> RankedOrder(const XRelation& rel) const;

  /// The per-tuple key distributions (exposed for Fig. 13's key column).
  std::vector<KeyDistribution> Distributions(const XRelation& rel) const;

 private:
  KeySpec spec_;
  SnmRankingOptions options_;
};

}  // namespace pdd

#endif  // PDD_REDUCTION_SNM_UNCERTAIN_RANKING_H_
