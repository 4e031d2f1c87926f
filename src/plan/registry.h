// ComponentRegistry: string-keyed factories for every pipeline
// component family. It replaces the enum switches that used to live in
// DetectionPlan::Compile / MakeReductionGenerator: a plan names its
// components ("snm_certain_keys", "weighted_sum", ...) and the registry
// resolves the name to an entry that knows how to
//
//   * configure — consume the component's `family.*` parameters from a
//     ParamMap into a DetectorConfig (unknown keys stay unconsumed and
//     are rejected by the spec translator),
//   * print     — emit those parameters back, canonically formatted,
//     so DetectorConfig::ToSpec round-trips losslessly, and
//   * make      — build the runtime component from a resolved config.
//
// Unknown names fail with an InvalidArgument that lists the registered
// names of the family and the nearest match by edit distance.
//
// Families: 12 reduction methods, 3 combination kinds, 6 derivation
// kinds, plus the enum vocabularies they reference (conflict
// strategies, ranking methods, world-selection strategies, clustering
// algorithms).

#ifndef PDD_PLAN_REGISTRY_H_
#define PDD_PLAN_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "decision/combination.h"
#include "derive/derivation.h"
#include "keys/key_spec.h"
#include "plan/param_map.h"
#include "reduction/pair_generator.h"
#include "util/status.h"

namespace pdd {

/// Stable name of a combination kind ("weighted_sum", "fellegi_sunter",
/// "rules").
const char* CombinationKindName(CombinationKind kind);

/// Stable name of a ranking method ("expected_rank", "positional").
const char* RankingMethodName(RankingMethod method);

/// Stable name of a world-selection strategy ("top_probable",
/// "diverse").
const char* WorldStrategyName(WorldSelectionStrategy strategy);

/// Stable name of a clustered-blocking algorithm ("leader",
/// "kmedoids").
const char* ClusterAlgorithmName(ClusteredBlockingOptions::Algorithm a);

class ComponentRegistry {
 public:
  struct ReductionEntry {
    ReductionMethod method;
    /// Consumes this method's `reduction.*` parameters into `*config`.
    Status (*configure)(const ParamMap& params, DetectorConfig* config);
    /// Emits this method's parameters from `config` (full, canonical).
    void (*print)(const DetectorConfig& config, ParamMap* params);
    /// Builds the pair generator from a resolved config.
    std::unique_ptr<PairGenerator> (*make)(const DetectorConfig& config,
                                           const KeySpec& key_spec);
  };

  struct CombinationEntry {
    CombinationKind kind;
    Status (*configure)(const ParamMap& params, DetectorConfig* config);
    void (*print)(const DetectorConfig& config, ParamMap* params);
    /// Builds the combination function φ (may fail: weight arity,
    /// rule parsing).
    Result<std::unique_ptr<CombinationFunction>> (*make)(
        const DetectorConfig& config, const Schema& schema);
  };

  struct DerivationEntry {
    DerivationKind kind;
    Status (*configure)(const ParamMap& params, DetectorConfig* config);
    void (*print)(const DetectorConfig& config, ParamMap* params);
    /// Builds the derivation function ϑ.
    std::unique_ptr<DerivationFunction> (*make)(const DetectorConfig& config);
  };

  /// The process-wide registry of built-in components.
  static const ComponentRegistry& Global();

  /// Name lookups. Unknown names return InvalidArgument listing the
  /// family's registered names and the nearest match.
  Result<const ReductionEntry*> FindReduction(std::string_view name) const;
  Result<const CombinationEntry*> FindCombination(std::string_view name) const;
  Result<const DerivationEntry*> FindDerivation(std::string_view name) const;
  Result<ConflictStrategy> FindConflictStrategy(std::string_view name) const;
  Result<RankingMethod> FindRankingMethod(std::string_view name) const;
  Result<WorldSelectionStrategy> FindWorldStrategy(
      std::string_view name) const;
  Result<ClusteredBlockingOptions::Algorithm> FindClusterAlgorithm(
      std::string_view name) const;

  /// Registered names per family, sorted.
  std::vector<std::string> ReductionNames() const;
  std::vector<std::string> CombinationNames() const;
  std::vector<std::string> DerivationNames() const;
  std::vector<std::string> ConflictStrategyNames() const;
  std::vector<std::string> RankingMethodNames() const;

 private:
  ComponentRegistry();

  std::map<std::string, ReductionEntry, std::less<>> reductions_;
  std::map<std::string, CombinationEntry, std::less<>> combinations_;
  std::map<std::string, DerivationEntry, std::less<>> derivations_;
  std::map<std::string, ConflictStrategy, std::less<>> conflicts_;
  std::map<std::string, RankingMethod, std::less<>> rankings_;
  std::map<std::string, WorldSelectionStrategy, std::less<>>
      world_strategies_;
  std::map<std::string, ClusteredBlockingOptions::Algorithm, std::less<>>
      cluster_algorithms_;
};

/// InvalidArgument for an unresolved component name: names the family,
/// suggests the nearest registered name by edit distance and lists the
/// registered names. Exposed for families living outside the registry.
Status UnknownComponentError(std::string_view family, std::string_view name,
                             const std::vector<std::string>& registered);

}  // namespace pdd

#endif  // PDD_PLAN_REGISTRY_H_
