#include "plan/registry.h"

#include <algorithm>

#include "decision/rule_engine.h"
#include "decision/rule_parser.h"
#include "derive/decision_based.h"
#include "derive/similarity_based.h"
#include "reduction/blocking.h"
#include "reduction/blocking_alternatives.h"
#include "reduction/blocking_clustered.h"
#include "reduction/canopy.h"
#include "reduction/full_pairs.h"
#include "reduction/qgram_index.h"
#include "reduction/snm_adaptive.h"
#include "reduction/snm_certain_keys.h"
#include "reduction/snm_multipass_worlds.h"
#include "reduction/snm_sorting_alternatives.h"
#include "reduction/snm_uncertain_ranking.h"
#include "sim/edit_distance.h"
#include "sim/registry.h"
#include "util/string_util.h"

namespace pdd {

const char* CombinationKindName(CombinationKind kind) {
  switch (kind) {
    case CombinationKind::kWeightedSum:
      return "weighted_sum";
    case CombinationKind::kFellegiSunter:
      return "fellegi_sunter";
    case CombinationKind::kRules:
      return "rules";
  }
  return "unknown";
}

const char* RankingMethodName(RankingMethod method) {
  switch (method) {
    case RankingMethod::kExpectedRank:
      return "expected_rank";
    case RankingMethod::kPositional:
      return "positional";
  }
  return "unknown";
}

const char* WorldStrategyName(WorldSelectionStrategy strategy) {
  switch (strategy) {
    case WorldSelectionStrategy::kTopProbable:
      return "top_probable";
    case WorldSelectionStrategy::kDiverse:
      return "diverse";
  }
  return "unknown";
}

const char* ClusterAlgorithmName(ClusteredBlockingOptions::Algorithm a) {
  switch (a) {
    case ClusteredBlockingOptions::Algorithm::kLeader:
      return "leader";
    case ClusteredBlockingOptions::Algorithm::kKMedoids:
      return "kmedoids";
  }
  return "unknown";
}

Status UnknownComponentError(std::string_view family, std::string_view name,
                             const std::vector<std::string>& registered) {
  std::string message =
      "unknown " + std::string(family) + " '" + std::string(name) + "'";
  const std::string* nearest = nullptr;
  size_t nearest_distance = 0;
  for (const std::string& candidate : registered) {
    size_t distance = LevenshteinDistance(name, candidate);
    if (nearest == nullptr || distance < nearest_distance) {
      nearest = &candidate;
      nearest_distance = distance;
    }
  }
  if (nearest != nullptr &&
      nearest_distance <= std::max<size_t>(2, name.size() / 2)) {
    message += "; did you mean '" + *nearest + "'?";
  }
  message += " registered: " + Join(registered, ", ");
  return Status::InvalidArgument(std::move(message));
}

namespace {

template <typename Map>
std::vector<std::string> KeysOf(const Map& map) {
  std::vector<std::string> names;
  names.reserve(map.size());
  for (const auto& [name, entry] : map) names.push_back(name);
  return names;
}

// --- shared parameter handlers --------------------------------------

Status NoParams(const ParamMap&, DetectorConfig*) { return Status::OK(); }
void PrintNothing(const DetectorConfig&, ParamMap*) {}

Status ConfigureWindow(const ParamMap& params, DetectorConfig* config) {
  PDD_ASSIGN_OR_RETURN(config->window,
                       params.GetSize("reduction.window", config->window));
  return Status::OK();
}

void PrintWindow(const DetectorConfig& config, ParamMap* params) {
  params->SetSize("reduction.window", config.window);
}

Status ConfigureConflict(const ParamMap& params, DetectorConfig* config) {
  std::string name = params.GetString(
      "reduction.conflict", ConflictStrategyName(config->conflict_strategy));
  PDD_ASSIGN_OR_RETURN(
      config->conflict_strategy,
      ComponentRegistry::Global().FindConflictStrategy(name));
  return Status::OK();
}

void PrintConflict(const DetectorConfig& config, ParamMap* params) {
  params->Set("reduction.conflict",
              ConflictStrategyName(config.conflict_strategy));
}

Status ConfigureWorlds(const ParamMap& params, DetectorConfig* config) {
  WorldSelectionOptions& w = config->world_selection;
  PDD_ASSIGN_OR_RETURN(w.count, params.GetSize("reduction.worlds", w.count));
  std::string strategy = params.GetString("reduction.world_strategy",
                                          WorldStrategyName(w.strategy));
  PDD_ASSIGN_OR_RETURN(
      w.strategy, ComponentRegistry::Global().FindWorldStrategy(strategy));
  PDD_ASSIGN_OR_RETURN(w.lambda,
                       params.GetDouble("reduction.world_lambda", w.lambda));
  PDD_ASSIGN_OR_RETURN(
      w.candidate_pool,
      params.GetSize("reduction.world_pool", w.candidate_pool));
  PDD_ASSIGN_OR_RETURN(
      w.all_present_only,
      params.GetBool("reduction.all_present", w.all_present_only));
  return Status::OK();
}

void PrintWorlds(const DetectorConfig& config, ParamMap* params) {
  const WorldSelectionOptions& w = config.world_selection;
  params->SetSize("reduction.worlds", w.count);
  params->Set("reduction.world_strategy", WorldStrategyName(w.strategy));
  params->SetDouble("reduction.world_lambda", w.lambda);
  params->SetSize("reduction.world_pool", w.candidate_pool);
  params->SetBool("reduction.all_present", w.all_present_only);
}

/// Key-distance comparator used by clustered blocking / canopy /
/// adaptive SNM. Spec values are registry comparator names; "overlap"
/// selects the distribution-overlap default (null pointer). Absent keys
/// keep the base config's pointer.
Status ConfigureDistance(const ParamMap& params, std::string_view key,
                         const Comparator** slot) {
  std::string name = params.GetString(key, "");
  if (name.empty()) return Status::OK();
  if (name == "overlap") {
    *slot = nullptr;
    return Status::OK();
  }
  if (name == "custom") {
    return Status::InvalidArgument(
        "plan specs cannot resolve a 'custom' " + std::string(key) +
        " comparator — set the option struct's comparator "
        "programmatically");
  }
  PDD_ASSIGN_OR_RETURN(*slot, GetComparator(name));
  return Status::OK();
}

void PrintDistance(const Comparator* comparator, std::string key,
                   ParamMap* params) {
  if (comparator == nullptr) return;
  // Only a comparator that IS the registry instance of its name prints
  // as that name; a caller-installed subclass that happens to share a
  // name must not silently alias the stock one on reload.
  auto registered = GetComparator(comparator->name());
  bool is_registry_instance = registered.ok() && *registered == comparator;
  params->Set(std::move(key),
              is_registry_instance ? comparator->name() : "custom");
}

// --- reduction entries ----------------------------------------------

Status ConfigureSnmMultipass(const ParamMap& params, DetectorConfig* config) {
  PDD_RETURN_IF_ERROR(ConfigureWindow(params, config));
  PDD_RETURN_IF_ERROR(ConfigureConflict(params, config));
  return ConfigureWorlds(params, config);
}

void PrintSnmMultipass(const DetectorConfig& config, ParamMap* params) {
  PrintWindow(config, params);
  PrintConflict(config, params);
  PrintWorlds(config, params);
}

Status ConfigureSnmCertain(const ParamMap& params, DetectorConfig* config) {
  PDD_RETURN_IF_ERROR(ConfigureWindow(params, config));
  return ConfigureConflict(params, config);
}

void PrintSnmCertain(const DetectorConfig& config, ParamMap* params) {
  PrintWindow(config, params);
  PrintConflict(config, params);
}

Status ConfigureSnmRanking(const ParamMap& params, DetectorConfig* config) {
  PDD_RETURN_IF_ERROR(ConfigureWindow(params, config));
  std::string ranking = params.GetString(
      "reduction.ranking", RankingMethodName(config->ranking_method));
  PDD_ASSIGN_OR_RETURN(config->ranking_method,
                       ComponentRegistry::Global().FindRankingMethod(ranking));
  return Status::OK();
}

void PrintSnmRanking(const DetectorConfig& config, ParamMap* params) {
  PrintWindow(config, params);
  params->Set("reduction.ranking", RankingMethodName(config.ranking_method));
}

Status ConfigureClustered(const ParamMap& params, DetectorConfig* config) {
  ClusteredBlockingOptions& o = config->clustering;
  std::string algorithm = params.GetString(
      "reduction.algorithm", ClusterAlgorithmName(o.algorithm));
  PDD_ASSIGN_OR_RETURN(
      o.algorithm,
      ComponentRegistry::Global().FindClusterAlgorithm(algorithm));
  PDD_ASSIGN_OR_RETURN(
      o.leader_threshold,
      params.GetDouble("reduction.leader_threshold", o.leader_threshold));
  PDD_ASSIGN_OR_RETURN(o.kmedoids.k,
                       params.GetSize("reduction.clusters", o.kmedoids.k));
  PDD_ASSIGN_OR_RETURN(
      o.kmedoids.max_iterations,
      params.GetSize("reduction.max_iterations", o.kmedoids.max_iterations));
  PDD_ASSIGN_OR_RETURN(
      o.kmedoids.seed,
      params.GetSize("reduction.cluster_seed", o.kmedoids.seed));
  PDD_ASSIGN_OR_RETURN(
      o.conditioned, params.GetBool("reduction.conditioned", o.conditioned));
  return ConfigureDistance(params, "reduction.distance", &o.comparator);
}

void PrintClustered(const DetectorConfig& config, ParamMap* params) {
  const ClusteredBlockingOptions& o = config.clustering;
  params->Set("reduction.algorithm", ClusterAlgorithmName(o.algorithm));
  params->SetDouble("reduction.leader_threshold", o.leader_threshold);
  params->SetSize("reduction.clusters", o.kmedoids.k);
  params->SetSize("reduction.max_iterations", o.kmedoids.max_iterations);
  params->SetSize("reduction.cluster_seed", o.kmedoids.seed);
  params->SetBool("reduction.conditioned", o.conditioned);
  PrintDistance(o.comparator, "reduction.distance", params);
}

Status ConfigureCanopy(const ParamMap& params, DetectorConfig* config) {
  CanopyOptions& o = config->canopy;
  PDD_ASSIGN_OR_RETURN(o.loose, params.GetDouble("reduction.loose", o.loose));
  PDD_ASSIGN_OR_RETURN(o.tight, params.GetDouble("reduction.tight", o.tight));
  PDD_ASSIGN_OR_RETURN(
      o.conditioned, params.GetBool("reduction.conditioned", o.conditioned));
  return ConfigureDistance(params, "reduction.distance", &o.comparator);
}

void PrintCanopy(const DetectorConfig& config, ParamMap* params) {
  const CanopyOptions& o = config.canopy;
  params->SetDouble("reduction.loose", o.loose);
  params->SetDouble("reduction.tight", o.tight);
  params->SetBool("reduction.conditioned", o.conditioned);
  PrintDistance(o.comparator, "reduction.distance", params);
}

Status ConfigureAdaptive(const ParamMap& params, DetectorConfig* config) {
  SnmAdaptiveOptions& o = config->adaptive;
  PDD_ASSIGN_OR_RETURN(
      o.key_similarity_threshold,
      params.GetDouble("reduction.key_similarity",
                       o.key_similarity_threshold));
  PDD_ASSIGN_OR_RETURN(o.max_window,
                       params.GetSize("reduction.max_window", o.max_window));
  // Adaptive SNM has its own strategy field; default from it (not from
  // the global conflict_strategy) so absent keys keep the base value.
  std::string conflict = params.GetString("reduction.conflict",
                                          ConflictStrategyName(o.strategy));
  PDD_ASSIGN_OR_RETURN(
      o.strategy, ComponentRegistry::Global().FindConflictStrategy(conflict));
  return ConfigureDistance(params, "reduction.key_comparator", &o.comparator);
}

void PrintAdaptive(const DetectorConfig& config, ParamMap* params) {
  const SnmAdaptiveOptions& o = config.adaptive;
  params->SetDouble("reduction.key_similarity", o.key_similarity_threshold);
  params->SetSize("reduction.max_window", o.max_window);
  params->Set("reduction.conflict", ConflictStrategyName(o.strategy));
  PrintDistance(o.comparator, "reduction.key_comparator", params);
}

Status ConfigureQGram(const ParamMap& params, DetectorConfig* config) {
  QGramIndexOptions& o = config->qgram;
  PDD_ASSIGN_OR_RETURN(o.q, params.GetSize("reduction.q", o.q));
  PDD_ASSIGN_OR_RETURN(
      o.min_shared_grams,
      params.GetSize("reduction.min_shared_grams", o.min_shared_grams));
  PDD_ASSIGN_OR_RETURN(o.max_posting_fraction,
                       params.GetDouble("reduction.max_posting_fraction",
                                        o.max_posting_fraction));
  PDD_ASSIGN_OR_RETURN(
      o.stop_gram_floor,
      params.GetSize("reduction.stop_gram_floor", o.stop_gram_floor));
  return Status::OK();
}

void PrintQGram(const DetectorConfig& config, ParamMap* params) {
  const QGramIndexOptions& o = config.qgram;
  params->SetSize("reduction.q", o.q);
  params->SetSize("reduction.min_shared_grams", o.min_shared_grams);
  params->SetDouble("reduction.max_posting_fraction", o.max_posting_fraction);
  params->SetSize("reduction.stop_gram_floor", o.stop_gram_floor);
}

std::unique_ptr<PairGenerator> MakeFull(const DetectorConfig&,
                                        const KeySpec&) {
  return std::make_unique<FullPairs>();
}

std::unique_ptr<PairGenerator> MakeSnmMultipass(const DetectorConfig& config,
                                                const KeySpec& key_spec) {
  SnmMultipassOptions options;
  options.window = config.window;
  options.selection = config.world_selection;
  options.value_strategy = config.conflict_strategy;
  return std::make_unique<SnmMultipassWorlds>(key_spec, options);
}

std::unique_ptr<PairGenerator> MakeSnmCertain(const DetectorConfig& config,
                                              const KeySpec& key_spec) {
  SnmCertainKeyOptions options;
  options.window = config.window;
  options.strategy = config.conflict_strategy;
  return std::make_unique<SnmCertainKeys>(key_spec, options);
}

std::unique_ptr<PairGenerator> MakeSnmAlternatives(
    const DetectorConfig& config, const KeySpec& key_spec) {
  SnmAlternativesOptions options;
  options.window = config.window;
  return std::make_unique<SnmSortingAlternatives>(key_spec, options);
}

std::unique_ptr<PairGenerator> MakeSnmRanking(const DetectorConfig& config,
                                              const KeySpec& key_spec) {
  SnmRankingOptions options;
  options.window = config.window;
  options.method = config.ranking_method;
  return std::make_unique<SnmUncertainRanking>(key_spec, options);
}

std::unique_ptr<PairGenerator> MakeBlockingCertain(
    const DetectorConfig& config, const KeySpec& key_spec) {
  return std::make_unique<BlockingCertainKeys>(key_spec,
                                               config.conflict_strategy);
}

std::unique_ptr<PairGenerator> MakeBlockingAlternatives(
    const DetectorConfig&, const KeySpec& key_spec) {
  return std::make_unique<BlockingAlternatives>(key_spec);
}

std::unique_ptr<PairGenerator> MakeBlockingMultipass(
    const DetectorConfig& config, const KeySpec& key_spec) {
  return std::make_unique<BlockingMultipassWorlds>(key_spec,
                                                   config.world_selection);
}

std::unique_ptr<PairGenerator> MakeBlockingClustered(
    const DetectorConfig& config, const KeySpec& key_spec) {
  return std::make_unique<BlockingClustered>(key_spec, config.clustering);
}

std::unique_ptr<PairGenerator> MakeCanopy(const DetectorConfig& config,
                                          const KeySpec& key_spec) {
  return std::make_unique<CanopyReduction>(key_spec, config.canopy);
}

std::unique_ptr<PairGenerator> MakeSnmAdaptive(const DetectorConfig& config,
                                               const KeySpec& key_spec) {
  return std::make_unique<SnmAdaptive>(key_spec, config.adaptive);
}

std::unique_ptr<PairGenerator> MakeQGram(const DetectorConfig& config,
                                         const KeySpec& key_spec) {
  return std::make_unique<QGramIndexReduction>(key_spec, config.qgram);
}

// --- combination entries --------------------------------------------

Status ConfigureWeightedSum(const ParamMap& params, DetectorConfig* config) {
  if (!params.Has("combination.weights")) return Status::OK();
  std::string text = params.GetString("combination.weights", "");
  std::vector<double> weights;
  if (!Trim(text).empty()) {
    for (const std::string& piece : Split(text, ',')) {
      double w = 0.0;
      if (!ParseDouble(Trim(piece), &w)) {
        return Status::InvalidArgument("bad weight '" + piece +
                                       "' in combination.weights");
      }
      weights.push_back(w);
    }
  }
  config->weights = std::move(weights);
  return Status::OK();
}

void PrintWeightedSum(const DetectorConfig& config, ParamMap* params) {
  std::vector<std::string> pieces;
  pieces.reserve(config.weights.size());
  for (double w : config.weights) pieces.push_back(FormatDouble(w));
  params->Set("combination.weights", Join(pieces, ","));
}

Result<std::unique_ptr<CombinationFunction>> MakeWeightedSum(
    const DetectorConfig& config, const Schema& schema) {
  std::vector<double> weights = config.weights;
  if (weights.empty()) {
    weights.assign(schema.arity(), 1.0 / static_cast<double>(schema.arity()));
  }
  if (weights.size() != schema.arity()) {
    return Status::InvalidArgument("weight count must match schema arity");
  }
  PDD_ASSIGN_OR_RETURN(WeightedSumCombination sum,
                       WeightedSumCombination::Make(std::move(weights)));
  return std::unique_ptr<CombinationFunction>(
      std::make_unique<WeightedSumCombination>(std::move(sum)));
}

Status ConfigureFellegiSunter(const ParamMap& params,
                              DetectorConfig* config) {
  if (params.Has("combination.fs")) {
    std::string text = params.GetString("combination.fs", "");
    std::vector<FsAttribute> attributes;
    if (!Trim(text).empty()) {
      for (const std::string& piece : Split(text, ',')) {
        std::vector<std::string> fields = Split(piece, ':');
        FsAttribute attr;
        if (fields.size() != 3 ||
            !ParseDouble(Trim(fields[0]), &attr.m) ||
            !ParseDouble(Trim(fields[1]), &attr.u) ||
            !ParseDouble(Trim(fields[2]), &attr.agreement_threshold)) {
          return Status::InvalidArgument(
              "bad Fellegi-Sunter attribute '" + piece +
              "' in combination.fs (want m:u:agreement_threshold)");
        }
        attributes.push_back(attr);
      }
    }
    config->fs_attributes = std::move(attributes);
  }
  PDD_ASSIGN_OR_RETURN(
      config->fs_interpolated,
      params.GetBool("combination.interpolated", config->fs_interpolated));
  return Status::OK();
}

void PrintFellegiSunter(const DetectorConfig& config, ParamMap* params) {
  std::vector<std::string> pieces;
  pieces.reserve(config.fs_attributes.size());
  for (const FsAttribute& attr : config.fs_attributes) {
    pieces.push_back(FormatDouble(attr.m) + ":" + FormatDouble(attr.u) + ":" +
                     FormatDouble(attr.agreement_threshold));
  }
  params->Set("combination.fs", Join(pieces, ","));
  params->SetBool("combination.interpolated", config.fs_interpolated);
}

Result<std::unique_ptr<CombinationFunction>> MakeFellegiSunter(
    const DetectorConfig& config, const Schema&) {
  PDD_ASSIGN_OR_RETURN(
      FellegiSunterModel fs,
      FellegiSunterModel::Make(config.fs_attributes, config.fs_interpolated));
  return std::unique_ptr<CombinationFunction>(
      std::make_unique<FellegiSunterModel>(std::move(fs)));
}

Status ConfigureRules(const ParamMap& params, DetectorConfig* config) {
  config->rules_text =
      params.GetString("combination.rules", config->rules_text);
  return Status::OK();
}

void PrintRules(const DetectorConfig& config, ParamMap* params) {
  params->Set("combination.rules", config.rules_text);
}

Result<std::unique_ptr<CombinationFunction>> MakeRules(
    const DetectorConfig& config, const Schema& schema) {
  PDD_ASSIGN_OR_RETURN(std::vector<IdentificationRule> rules,
                       ParseRules(config.rules_text, schema));
  PDD_ASSIGN_OR_RETURN(RuleEngine engine,
                       RuleEngine::Make(std::move(rules), schema));
  return std::unique_ptr<CombinationFunction>(
      std::make_unique<RuleCombination>(std::move(engine)));
}

// --- derivation entries ---------------------------------------------

Status ConfigureIntermediate(const ParamMap& params, DetectorConfig* config) {
  PDD_ASSIGN_OR_RETURN(config->intermediate.t_lambda,
                       params.GetDouble("derivation.t_lambda",
                                        config->intermediate.t_lambda));
  PDD_ASSIGN_OR_RETURN(
      config->intermediate.t_mu,
      params.GetDouble("derivation.t_mu", config->intermediate.t_mu));
  return Status::OK();
}

void PrintIntermediate(const DetectorConfig& config, ParamMap* params) {
  params->SetDouble("derivation.t_lambda", config.intermediate.t_lambda);
  params->SetDouble("derivation.t_mu", config.intermediate.t_mu);
}

std::unique_ptr<DerivationFunction> MakeExpectedSimilarity(
    const DetectorConfig&) {
  return std::make_unique<ExpectedSimilarityDerivation>();
}

std::unique_ptr<DerivationFunction> MakeMatchingWeight(
    const DetectorConfig& config) {
  return std::make_unique<MatchingWeightDerivation>(config.intermediate);
}

std::unique_ptr<DerivationFunction> MakeExpectedMatching(
    const DetectorConfig& config) {
  return std::make_unique<ExpectedMatchingDerivation>(config.intermediate,
                                                      /*normalize=*/true);
}

std::unique_ptr<DerivationFunction> MakeMaxSimilarity(const DetectorConfig&) {
  return std::make_unique<MaxSimilarityDerivation>();
}

std::unique_ptr<DerivationFunction> MakeMinSimilarity(const DetectorConfig&) {
  return std::make_unique<MinSimilarityDerivation>();
}

std::unique_ptr<DerivationFunction> MakeModeSimilarity(const DetectorConfig&) {
  return std::make_unique<ModeSimilarityDerivation>();
}

}  // namespace

ComponentRegistry::ComponentRegistry() {
  // `streams` mirrors the generator's native_streaming() override; the
  // streaming test suite asserts the two stay in sync per entry.
  auto reduction = [this](ReductionMethod method, bool streams,
                          Status (*configure)(const ParamMap&,
                                              DetectorConfig*),
                          void (*print)(const DetectorConfig&, ParamMap*),
                          std::unique_ptr<PairGenerator> (*make)(
                              const DetectorConfig&, const KeySpec&)) {
    reductions_[ReductionMethodName(method)] = {method, streams, configure,
                                                print, make};
  };
  reduction(ReductionMethod::kFull, true, NoParams, PrintNothing, MakeFull);
  reduction(ReductionMethod::kSnmMultipassWorlds, true, ConfigureSnmMultipass,
            PrintSnmMultipass, MakeSnmMultipass);
  reduction(ReductionMethod::kSnmCertainKeys, true, ConfigureSnmCertain,
            PrintSnmCertain, MakeSnmCertain);
  reduction(ReductionMethod::kSnmSortingAlternatives, true, ConfigureWindow,
            PrintWindow, MakeSnmAlternatives);
  reduction(ReductionMethod::kSnmUncertainRanking, true, ConfigureSnmRanking,
            PrintSnmRanking, MakeSnmRanking);
  reduction(ReductionMethod::kBlockingCertainKeys, true, ConfigureConflict,
            PrintConflict, MakeBlockingCertain);
  reduction(ReductionMethod::kBlockingAlternatives, true, NoParams,
            PrintNothing, MakeBlockingAlternatives);
  reduction(ReductionMethod::kBlockingMultipassWorlds, true, ConfigureWorlds,
            PrintWorlds, MakeBlockingMultipass);
  reduction(ReductionMethod::kBlockingClustered, true, ConfigureClustered,
            PrintClustered, MakeBlockingClustered);
  reduction(ReductionMethod::kCanopy, false, ConfigureCanopy, PrintCanopy,
            MakeCanopy);
  reduction(ReductionMethod::kSnmAdaptive, true, ConfigureAdaptive,
            PrintAdaptive, MakeSnmAdaptive);
  reduction(ReductionMethod::kQGramIndex, false, ConfigureQGram, PrintQGram,
            MakeQGram);

  combinations_[CombinationKindName(CombinationKind::kWeightedSum)] = {
      CombinationKind::kWeightedSum, ConfigureWeightedSum, PrintWeightedSum,
      MakeWeightedSum};
  combinations_[CombinationKindName(CombinationKind::kFellegiSunter)] = {
      CombinationKind::kFellegiSunter, ConfigureFellegiSunter,
      PrintFellegiSunter, MakeFellegiSunter};
  combinations_[CombinationKindName(CombinationKind::kRules)] = {
      CombinationKind::kRules, ConfigureRules, PrintRules, MakeRules};

  auto derivation = [this](DerivationKind kind,
                           Status (*configure)(const ParamMap&,
                                               DetectorConfig*),
                           void (*print)(const DetectorConfig&, ParamMap*),
                           std::unique_ptr<DerivationFunction> (*make)(
                               const DetectorConfig&)) {
    derivations_[DerivationKindName(kind)] = {kind, configure, print, make};
  };
  derivation(DerivationKind::kExpectedSimilarity, NoParams, PrintNothing,
             MakeExpectedSimilarity);
  derivation(DerivationKind::kMatchingWeight, ConfigureIntermediate,
             PrintIntermediate, MakeMatchingWeight);
  derivation(DerivationKind::kExpectedMatching, ConfigureIntermediate,
             PrintIntermediate, MakeExpectedMatching);
  derivation(DerivationKind::kMaxSimilarity, NoParams, PrintNothing,
             MakeMaxSimilarity);
  derivation(DerivationKind::kMinSimilarity, NoParams, PrintNothing,
             MakeMinSimilarity);
  derivation(DerivationKind::kModeSimilarity, NoParams, PrintNothing,
             MakeModeSimilarity);

  for (ConflictStrategy strategy :
       {ConflictStrategy::kMostProbable, ConflictStrategy::kFirst,
        ConflictStrategy::kLongest, ConflictStrategy::kShortest,
        ConflictStrategy::kLexicographicMin}) {
    conflicts_[ConflictStrategyName(strategy)] = strategy;
  }
  for (RankingMethod method :
       {RankingMethod::kExpectedRank, RankingMethod::kPositional}) {
    rankings_[RankingMethodName(method)] = method;
  }
  for (WorldSelectionStrategy strategy : {WorldSelectionStrategy::kTopProbable,
                                          WorldSelectionStrategy::kDiverse}) {
    world_strategies_[WorldStrategyName(strategy)] = strategy;
  }
  for (ClusteredBlockingOptions::Algorithm algorithm :
       {ClusteredBlockingOptions::Algorithm::kLeader,
        ClusteredBlockingOptions::Algorithm::kKMedoids}) {
    cluster_algorithms_[ClusterAlgorithmName(algorithm)] = algorithm;
  }
}

const ComponentRegistry& ComponentRegistry::Global() {
  static const ComponentRegistry* registry = new ComponentRegistry();
  return *registry;
}

Result<const ComponentRegistry::ReductionEntry*>
ComponentRegistry::FindReduction(std::string_view name) const {
  auto it = reductions_.find(name);
  if (it == reductions_.end()) {
    return UnknownComponentError("reduction", name, KeysOf(reductions_));
  }
  return &it->second;
}

Result<const ComponentRegistry::CombinationEntry*>
ComponentRegistry::FindCombination(std::string_view name) const {
  auto it = combinations_.find(name);
  if (it == combinations_.end()) {
    return UnknownComponentError("combination", name, KeysOf(combinations_));
  }
  return &it->second;
}

Result<const ComponentRegistry::DerivationEntry*>
ComponentRegistry::FindDerivation(std::string_view name) const {
  auto it = derivations_.find(name);
  if (it == derivations_.end()) {
    return UnknownComponentError("derivation", name, KeysOf(derivations_));
  }
  return &it->second;
}

Result<ConflictStrategy> ComponentRegistry::FindConflictStrategy(
    std::string_view name) const {
  auto it = conflicts_.find(name);
  if (it == conflicts_.end()) {
    return UnknownComponentError("conflict strategy", name,
                                 KeysOf(conflicts_));
  }
  return it->second;
}

Result<RankingMethod> ComponentRegistry::FindRankingMethod(
    std::string_view name) const {
  auto it = rankings_.find(name);
  if (it == rankings_.end()) {
    return UnknownComponentError("ranking method", name, KeysOf(rankings_));
  }
  return it->second;
}

Result<WorldSelectionStrategy> ComponentRegistry::FindWorldStrategy(
    std::string_view name) const {
  auto it = world_strategies_.find(name);
  if (it == world_strategies_.end()) {
    return UnknownComponentError("world-selection strategy", name,
                                 KeysOf(world_strategies_));
  }
  return it->second;
}

Result<ClusteredBlockingOptions::Algorithm>
ComponentRegistry::FindClusterAlgorithm(std::string_view name) const {
  auto it = cluster_algorithms_.find(name);
  if (it == cluster_algorithms_.end()) {
    return UnknownComponentError("clustering algorithm", name,
                                 KeysOf(cluster_algorithms_));
  }
  return it->second;
}

std::vector<std::string> ComponentRegistry::ReductionNames() const {
  return KeysOf(reductions_);
}

std::vector<std::string> ComponentRegistry::CombinationNames() const {
  return KeysOf(combinations_);
}

std::vector<std::string> ComponentRegistry::DerivationNames() const {
  return KeysOf(derivations_);
}

std::vector<std::string> ComponentRegistry::ConflictStrategyNames() const {
  return KeysOf(conflicts_);
}

std::vector<std::string> ComponentRegistry::RankingMethodNames() const {
  return KeysOf(rankings_);
}

}  // namespace pdd
