// Configuration of the end-to-end duplicate detection pipeline.

#ifndef PDD_CORE_CONFIG_H_
#define PDD_CORE_CONFIG_H_

#include <optional>
#include <string>
#include <vector>

#include "decision/classifier.h"
#include "decision/fellegi_sunter.h"
#include "fusion/conflict_resolution.h"
#include "pdb/world_selection.h"
#include "plan/plan_spec.h"
#include "prep/standardizer.h"
#include "reduction/blocking_clustered.h"
#include "reduction/canopy.h"
#include "reduction/qgram_index.h"
#include "reduction/snm_adaptive.h"
#include "reduction/snm_uncertain_ranking.h"
#include "sim/comparator.h"
#include "util/status.h"

namespace pdd {

/// Which search space reduction method feeds the decision model.
enum class ReductionMethod {
  kFull = 0,
  kSnmMultipassWorlds = 1,
  kSnmCertainKeys = 2,
  kSnmSortingAlternatives = 3,
  kSnmUncertainRanking = 4,
  kBlockingCertainKeys = 5,
  kBlockingAlternatives = 6,
  kBlockingMultipassWorlds = 7,
  kBlockingClustered = 8,
  kCanopy = 9,
  kSnmAdaptive = 10,
  kQGramIndex = 11,
};

/// Stable name of a reduction method. The name tables of the plan's
/// enums live in plan/registry.cc.
const char* ReductionMethodName(ReductionMethod method);

/// How comparison vectors collapse into a similarity degree (Step 1 of
/// Fig. 6).
enum class CombinationKind {
  /// Weighted sum with `weights` (normalized certainty-style degree).
  kWeightedSum = 0,
  /// Fellegi-Sunter matching weight (unnormalized likelihood ratio).
  kFellegiSunter = 1,
  /// Knowledge-based identification rules (Fig. 1): φ(c⃗) is the
  /// combined certainty factor of the firing rules from `rules_text`.
  kRules = 2,
};

/// Stable name of a combination kind ("weighted_sum", "fellegi_sunter",
/// "rules").
const char* CombinationKindName(CombinationKind kind);

/// Which derivation function ϑ aggregates alternative pair scores
/// (Step 2 of Fig. 6).
enum class DerivationKind {
  /// Eq. 6 conditional expected similarity (similarity-based).
  kExpectedSimilarity = 0,
  /// Eq. 7-9 matching weight P(m)/P(u) (decision-based).
  kMatchingWeight = 1,
  /// Expected matching result E[η], η ∈ {m=2, p=1, u=0} (decision-based).
  kExpectedMatching = 2,
  /// Max / min / mode similarity-based variants.
  kMaxSimilarity = 3,
  kMinSimilarity = 4,
  kModeSimilarity = 5,
};

/// Stable name of a derivation kind.
const char* DerivationKindName(DerivationKind kind);

/// Most worker threads one executor starts. A larger worker count is
/// InvalidArgument (DetectorConfig::Validate, StageExecutor::Execute)
/// before any thread starts, so the operating system never gets to
/// refuse a thread halfway through a pool.
inline constexpr size_t kMaxWorkers = 1024;

/// Full pipeline configuration. Defaults reproduce the paper's running
/// setup: key = name[3] + job[2], weighted sum φ with (0.8, 0.2),
/// expected-similarity derivation, thresholds Tλ=0.4, Tμ=0.7.
struct DetectorConfig {
  /// Key components: (attribute name, prefix length; 0 = whole value).
  std::vector<std::pair<std::string, size_t>> key = {{"name", 3}, {"job", 2}};

  ReductionMethod reduction = ReductionMethod::kFull;
  /// SNM window size (methods 1-4).
  size_t window = 3;
  /// World selection for multi-pass methods.
  WorldSelectionOptions world_selection;
  /// Conflict resolution for certain-key methods.
  ConflictStrategy conflict_strategy = ConflictStrategy::kMostProbable;
  /// Ranking function for uncertain-key SNM.
  RankingMethod ranking_method = RankingMethod::kPositional;
  /// Clustered blocking parameters.
  ClusteredBlockingOptions clustering;
  /// Canopy reduction parameters.
  CanopyOptions canopy;
  /// Adaptive SNM parameters.
  SnmAdaptiveOptions adaptive;
  /// Q-gram index parameters.
  QGramIndexOptions qgram;
  /// Optional data preparation (Section III-A) applied to the input
  /// relation before reduction and matching.
  std::optional<DataPreparation> preparation;
  /// Wrap the reduction method in the length-bound pruning filter
  /// (Section III-B's third heuristic). Sound only for
  /// max-length-normalized comparators (hamming/levenshtein/damerau/lcs)
  /// under the weighted-sum φ, whose weights the bound uses.
  bool prune = false;
  /// Pruning threshold; pairs whose upper-bound combined similarity is
  /// below it are discarded. Use the pipeline's Tλ.
  double prune_threshold = 0.4;

  /// Per-attribute comparator registry names; empty selects defaults by
  /// attribute type (hamming for strings — the paper's choice — and
  /// numeric_rel for numerics).
  std::vector<std::string> comparators;
  /// Per-attribute comparator instances overriding `comparators` when
  /// non-empty (for trained comparators like SoftTFIDF that cannot live
  /// in the registry). Entries may be null to fall back to the named /
  /// default comparator for that attribute. Pointees must outlive the
  /// detector.
  std::vector<const Comparator*> custom_comparators;

  CombinationKind combination = CombinationKind::kWeightedSum;
  /// Weighted-sum weights (empty = uniform 1/n).
  std::vector<double> weights = {0.8, 0.2};
  /// Fellegi-Sunter parameters (combination == kFellegiSunter).
  std::vector<FsAttribute> fs_attributes;
  /// Use the Winkler-interpolated FS weight instead of the binarized one
  /// (continuous comparator evidence reaches the likelihood ratio).
  bool fs_interpolated = false;
  /// Identification rules, one per line (combination == kRules); parsed
  /// against the schema at Make() (see decision/rule_parser.h).
  std::string rules_text;

  DerivationKind derivation = DerivationKind::kExpectedSimilarity;
  /// Intermediate thresholds classifying alternative pairs
  /// (decision-based derivations).
  Thresholds intermediate{0.4, 0.7};
  /// Final thresholds classifying the derived similarity. For
  /// unnormalized derivations (matching weight), choose weight-scale
  /// thresholds, e.g. {0.8, 1.2}.
  Thresholds final_thresholds{0.4, 0.7};

  /// Stage executor tuning: candidates per batch handed to the stage
  /// pipeline, and worker threads deciding batches (0 or 1 = serial on
  /// the calling thread; at most kMaxWorkers). Results are identical
  /// for any worker count.
  size_t batch_size = 256;
  size_t workers = 0;

  /// Basic sanity validation (window, thresholds, weight count, a
  /// canopy plan's tight threshold at most its loose one, a positive
  /// batch size, at most kMaxWorkers workers, pruning soundness:
  /// `prune_threshold` must lie in [0, 1] and `prune` requires the
  /// weighted-sum combination and every named comparator to be
  /// max-length-normalized).
  Status Validate() const;

  // --- declarative form (src/plan/) ---------------------------------
  // DetectorConfig is a thin bidirectional translator over PlanSpec:
  // the spec is the canonical, text-representable, fingerprintable
  // form; this struct is its C++-native projection. Implemented in
  // plan/translate.cc.

  /// The declarative spec of this config. Prints only the parameters
  /// the selected components read; pointer-valued fields (custom
  /// comparators, token-map standardizers) appear as "custom" markers
  /// that FromSpec refuses to resolve.
  PlanSpec ToSpec() const;

  /// Builds a config from a spec, applying the spec's assignments over
  /// `base` (absent keys keep the base value; the no-base overload
  /// starts from a default-constructed config). Component names resolve
  /// through the ComponentRegistry; unknown names and unknown parameter
  /// keys are InvalidArgument.
  static Result<DetectorConfig> FromSpec(const PlanSpec& spec);
  static Result<DetectorConfig> FromSpec(const PlanSpec& spec,
                                         DetectorConfig base);
};

}  // namespace pdd

#endif  // PDD_CORE_CONFIG_H_
