// ComponentRegistry: string-keyed factories for every pipeline
// component family. A plan names its components ("snm_certain_keys",
// "weighted_sum", ...) and the registry resolves the name to an entry
// that
//
//   * declares the component's `family.*` plan keys, once, next to the
//     DetectorConfig fields they set (plan/params.h): the same
//     declaration reads them (DetectorConfig::FromSpec), prints them
//     (ToSpec) and lists them (the keys a spec may name, and the
//     spec-closure lint's read set), and
//   * makes the runtime component from a resolved config.
//
// Unknown names fail with an InvalidArgument that lists the registered
// names of the family and the nearest match by edit distance.
//
// Families: 12 reduction methods, 3 combination kinds, 6 derivation
// kinds. The name tables of their enums and of the enums their keys
// take (conflict strategies, ranking methods, world-selection
// strategies, clustering algorithms) are declared here too, one
// Vocabulary per enum.

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
#include "plan/params.h"
#include "reduction/pair_generator.h"
#include "util/status.h"

namespace pdd {

/// The name table of each enum a plan key takes.
const Vocabulary<ReductionMethod>& ReductionMethods();
const Vocabulary<CombinationKind>& CombinationKinds();
const Vocabulary<DerivationKind>& DerivationKinds();
const Vocabulary<ConflictStrategy>& ConflictStrategies();
const Vocabulary<RankingMethod>& RankingMethods();
const Vocabulary<WorldSelectionStrategy>& WorldStrategies();
const Vocabulary<ClusteredBlockingOptions::Algorithm>& ClusterAlgorithms();

class ComponentRegistry {
 public:
  /// Declares one component's plan keys (see plan/params.h).
  using DeclareParams = void (*)(ParamVisitor& v, DetectorConfig& config);

  struct ReductionEntry {
    ReductionMethod method;
    /// This method's `reduction.*` keys.
    DeclareParams params;
    /// Builds the pair generator from a resolved config.
    std::unique_ptr<PairGenerator> (*make)(const DetectorConfig& config,
                                           const KeySpec& key_spec);
  };

  struct CombinationEntry {
    CombinationKind kind;
    DeclareParams params;
    /// Builds the combination function φ (may fail: weight arity,
    /// rule parsing).
    Result<std::unique_ptr<CombinationFunction>> (*make)(
        const DetectorConfig& config, const Schema& schema);
  };

  struct DerivationEntry {
    DerivationKind kind;
    DeclareParams params;
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

  /// Registered names per family, sorted.
  std::vector<std::string> ReductionNames() const;
  std::vector<std::string> CombinationNames() const;
  std::vector<std::string> DerivationNames() const;

 private:
  ComponentRegistry();

  std::map<std::string, ReductionEntry, std::less<>> reductions_;
  std::map<std::string, CombinationEntry, std::less<>> combinations_;
  std::map<std::string, DerivationEntry, std::less<>> derivations_;
};

}  // namespace pdd

#endif  // PDD_PLAN_REGISTRY_H_
