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

namespace pdd {

const Vocabulary<ReductionMethod>& ReductionMethods() {
  static const Vocabulary<ReductionMethod> kVocabulary(
      "reduction",
      {{ReductionMethod::kFull, "full"},
       {ReductionMethod::kSnmMultipassWorlds, "snm_multipass_worlds"},
       {ReductionMethod::kSnmCertainKeys, "snm_certain_keys"},
       {ReductionMethod::kSnmSortingAlternatives, "snm_sorting_alternatives"},
       {ReductionMethod::kSnmUncertainRanking, "snm_uncertain_ranking"},
       {ReductionMethod::kBlockingCertainKeys, "blocking_certain_keys"},
       {ReductionMethod::kBlockingAlternatives, "blocking_alternatives"},
       {ReductionMethod::kBlockingMultipassWorlds,
        "blocking_multipass_worlds"},
       {ReductionMethod::kBlockingClustered, "blocking_clustered"},
       {ReductionMethod::kCanopy, "canopy"},
       {ReductionMethod::kSnmAdaptive, "snm_adaptive"},
       {ReductionMethod::kQGramIndex, "qgram_index"}});
  return kVocabulary;
}

const Vocabulary<CombinationKind>& CombinationKinds() {
  static const Vocabulary<CombinationKind> kVocabulary(
      "combination", {{CombinationKind::kWeightedSum, "weighted_sum"},
                      {CombinationKind::kFellegiSunter, "fellegi_sunter"},
                      {CombinationKind::kRules, "rules"}});
  return kVocabulary;
}

const Vocabulary<DerivationKind>& DerivationKinds() {
  static const Vocabulary<DerivationKind> kVocabulary(
      "derivation",
      {{DerivationKind::kExpectedSimilarity, "expected_similarity"},
       {DerivationKind::kMatchingWeight, "matching_weight"},
       {DerivationKind::kExpectedMatching, "expected_matching"},
       {DerivationKind::kMaxSimilarity, "max_similarity"},
       {DerivationKind::kMinSimilarity, "min_similarity"},
       {DerivationKind::kModeSimilarity, "mode_similarity"}});
  return kVocabulary;
}

const Vocabulary<ConflictStrategy>& ConflictStrategies() {
  static const Vocabulary<ConflictStrategy> kVocabulary(
      "conflict strategy",
      {{ConflictStrategy::kMostProbable, "most_probable"},
       {ConflictStrategy::kFirst, "first"},
       {ConflictStrategy::kLongest, "longest"},
       {ConflictStrategy::kShortest, "shortest"},
       {ConflictStrategy::kLexicographicMin, "lex_min"}});
  return kVocabulary;
}

const Vocabulary<RankingMethod>& RankingMethods() {
  static const Vocabulary<RankingMethod> kVocabulary(
      "ranking method", {{RankingMethod::kExpectedRank, "expected_rank"},
                         {RankingMethod::kPositional, "positional"}});
  return kVocabulary;
}

const Vocabulary<WorldSelectionStrategy>& WorldStrategies() {
  static const Vocabulary<WorldSelectionStrategy> kVocabulary(
      "world-selection strategy",
      {{WorldSelectionStrategy::kTopProbable, "top_probable"},
       {WorldSelectionStrategy::kDiverse, "diverse"}});
  return kVocabulary;
}

const Vocabulary<ClusteredBlockingOptions::Algorithm>& ClusterAlgorithms() {
  static const Vocabulary<ClusteredBlockingOptions::Algorithm> kVocabulary(
      "clustering algorithm",
      {{ClusteredBlockingOptions::Algorithm::kLeader, "leader"},
       {ClusteredBlockingOptions::Algorithm::kKMedoids, "kmedoids"}});
  return kVocabulary;
}

const char* ReductionMethodName(ReductionMethod method) {
  return ReductionMethods().Name(method);
}

const char* CombinationKindName(CombinationKind kind) {
  return CombinationKinds().Name(kind);
}

const char* DerivationKindName(DerivationKind kind) {
  return DerivationKinds().Name(kind);
}

namespace {

template <typename Map>
std::vector<std::string> KeysOf(const Map& map) {
  std::vector<std::string> names;
  names.reserve(map.size());
  for (const auto& [name, entry] : map) names.push_back(name);
  return names;
}

// --- shared key declarations ----------------------------------------

void NoParams(ParamVisitor&, DetectorConfig&) {}

void WindowParams(ParamVisitor& v, DetectorConfig& c) {
  v("reduction.window", c.window);
}

void ConflictParams(ParamVisitor& v, DetectorConfig& c) {
  v("reduction.conflict", c.conflict_strategy, ConflictStrategies());
}

void WorldsParams(ParamVisitor& v, DetectorConfig& c) {
  WorldSelectionOptions& w = c.world_selection;
  v("reduction.worlds", w.count);
  v("reduction.world_strategy", w.strategy, WorldStrategies());
  v("reduction.world_lambda", w.lambda);
  v("reduction.world_pool", w.candidate_pool);
  v("reduction.all_present", w.all_present_only);
}

// --- reduction entries ----------------------------------------------

void SnmMultipassParams(ParamVisitor& v, DetectorConfig& c) {
  WindowParams(v, c);
  ConflictParams(v, c);
  WorldsParams(v, c);
}

void SnmCertainParams(ParamVisitor& v, DetectorConfig& c) {
  WindowParams(v, c);
  ConflictParams(v, c);
}

void SnmRankingParams(ParamVisitor& v, DetectorConfig& c) {
  WindowParams(v, c);
  v("reduction.ranking", c.ranking_method, RankingMethods());
}

void ClusteredParams(ParamVisitor& v, DetectorConfig& c) {
  ClusteredBlockingOptions& o = c.clustering;
  v("reduction.algorithm", o.algorithm, ClusterAlgorithms());
  v("reduction.leader_threshold", o.leader_threshold);
  v("reduction.clusters", o.kmedoids.k);
  v("reduction.max_iterations", o.kmedoids.max_iterations);
  v("reduction.cluster_seed", o.kmedoids.seed);
  v("reduction.conditioned", o.conditioned);
  v("reduction.distance", o.comparator);
}

void CanopyParams(ParamVisitor& v, DetectorConfig& c) {
  CanopyOptions& o = c.canopy;
  v("reduction.loose", o.loose);
  v("reduction.tight", o.tight);
  v("reduction.conditioned", o.conditioned);
  v("reduction.distance", o.comparator);
}

void AdaptiveParams(ParamVisitor& v, DetectorConfig& c) {
  SnmAdaptiveOptions& o = c.adaptive;
  v("reduction.key_similarity", o.key_similarity_threshold);
  v("reduction.max_window", o.max_window);
  // Adaptive SNM has its own strategy field, so an absent key keeps
  // the base value of that field, not of conflict_strategy.
  v("reduction.conflict", o.strategy, ConflictStrategies());
  v("reduction.key_comparator", o.comparator);
}

void QGramParams(ParamVisitor& v, DetectorConfig& c) {
  QGramIndexOptions& o = c.qgram;
  v("reduction.q", o.q);
  v("reduction.min_shared_grams", o.min_shared_grams);
  v("reduction.max_posting_fraction", o.max_posting_fraction);
  v("reduction.stop_gram_floor", o.stop_gram_floor);
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

void WeightedSumParams(ParamVisitor& v, DetectorConfig& c) {
  v("combination.weights", c.weights);
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

void FellegiSunterParams(ParamVisitor& v, DetectorConfig& c) {
  v("combination.fs", c.fs_attributes);
  v("combination.interpolated", c.fs_interpolated);
}

Result<std::unique_ptr<CombinationFunction>> MakeFellegiSunter(
    const DetectorConfig& config, const Schema&) {
  PDD_ASSIGN_OR_RETURN(
      FellegiSunterModel fs,
      FellegiSunterModel::Make(config.fs_attributes, config.fs_interpolated));
  return std::unique_ptr<CombinationFunction>(
      std::make_unique<FellegiSunterModel>(std::move(fs)));
}

void RulesParams(ParamVisitor& v, DetectorConfig& c) {
  v("combination.rules", c.rules_text);
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

void IntermediateParams(ParamVisitor& v, DetectorConfig& c) {
  v("derivation.t_lambda", c.intermediate.t_lambda);
  v("derivation.t_mu", c.intermediate.t_mu);
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
  auto reduction = [this](ReductionMethod method, DeclareParams params,
                          std::unique_ptr<PairGenerator> (*make)(
                              const DetectorConfig&, const KeySpec&)) {
    reductions_[ReductionMethodName(method)] = {method, params, make};
  };
  reduction(ReductionMethod::kFull, NoParams, MakeFull);
  reduction(ReductionMethod::kSnmMultipassWorlds, SnmMultipassParams,
            MakeSnmMultipass);
  reduction(ReductionMethod::kSnmCertainKeys, SnmCertainParams,
            MakeSnmCertain);
  reduction(ReductionMethod::kSnmSortingAlternatives, WindowParams,
            MakeSnmAlternatives);
  reduction(ReductionMethod::kSnmUncertainRanking, SnmRankingParams,
            MakeSnmRanking);
  reduction(ReductionMethod::kBlockingCertainKeys, ConflictParams,
            MakeBlockingCertain);
  reduction(ReductionMethod::kBlockingAlternatives, NoParams,
            MakeBlockingAlternatives);
  reduction(ReductionMethod::kBlockingMultipassWorlds, WorldsParams,
            MakeBlockingMultipass);
  reduction(ReductionMethod::kBlockingClustered, ClusteredParams,
            MakeBlockingClustered);
  reduction(ReductionMethod::kCanopy, CanopyParams, MakeCanopy);
  reduction(ReductionMethod::kSnmAdaptive, AdaptiveParams, MakeSnmAdaptive);
  reduction(ReductionMethod::kQGramIndex, QGramParams, MakeQGram);

  combinations_[CombinationKindName(CombinationKind::kWeightedSum)] = {
      CombinationKind::kWeightedSum, WeightedSumParams, MakeWeightedSum};
  combinations_[CombinationKindName(CombinationKind::kFellegiSunter)] = {
      CombinationKind::kFellegiSunter, FellegiSunterParams,
      MakeFellegiSunter};
  combinations_[CombinationKindName(CombinationKind::kRules)] = {
      CombinationKind::kRules, RulesParams, MakeRules};

  auto derivation = [this](DerivationKind kind, DeclareParams params,
                           std::unique_ptr<DerivationFunction> (*make)(
                               const DetectorConfig&)) {
    derivations_[DerivationKindName(kind)] = {kind, params, make};
  };
  derivation(DerivationKind::kExpectedSimilarity, NoParams,
             MakeExpectedSimilarity);
  derivation(DerivationKind::kMatchingWeight, IntermediateParams,
             MakeMatchingWeight);
  derivation(DerivationKind::kExpectedMatching, IntermediateParams,
             MakeExpectedMatching);
  derivation(DerivationKind::kMaxSimilarity, NoParams, MakeMaxSimilarity);
  derivation(DerivationKind::kMinSimilarity, NoParams, MakeMinSimilarity);
  derivation(DerivationKind::kModeSimilarity, NoParams, MakeModeSimilarity);
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

std::vector<std::string> ComponentRegistry::ReductionNames() const {
  return KeysOf(reductions_);
}

std::vector<std::string> ComponentRegistry::CombinationNames() const {
  return KeysOf(combinations_);
}

std::vector<std::string> ComponentRegistry::DerivationNames() const {
  return KeysOf(derivations_);
}

}  // namespace pdd
