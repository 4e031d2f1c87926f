// DetectorConfig ↔ PlanSpec translation. DetectorConfig stays the
// C++-native struct form; PlanSpec is the declarative string-keyed
// form. ToSpec prints the *selected* components' parameters only (a
// canopy plan carries no SNM window), so the fingerprint of a plan is
// invariant to config fields the plan never reads. FromSpec resolves
// component names through the ComponentRegistry and rejects unknown
// parameter keys.
//
// Two config features are not representable in text: custom comparator
// instances (ToSpec marks them "custom"; FromSpec refuses to resolve
// the marker) and token-map standardizers ("prepare = custom",
// likewise refused). Executor tuning (`executor.batch`,
// `executor.workers`) is accepted by FromSpec as a convenience but
// never printed by ToSpec: it does not change decisions, so it is kept
// out of the fingerprint (and reports stay byte-identical across batch
// sizes and worker counts).

#include "plan/translate.h"

#include <algorithm>

#include "core/config.h"
#include "plan/plan_spec.h"
#include "plan/registry.h"
#include "prep/standardizer.h"
#include "sim/registry.h"
#include "util/string_util.h"

namespace pdd {

namespace {

/// Parses the `key` value "attr:len[,attr:len...]" into
/// DetectorConfig::key components.
Result<std::vector<std::pair<std::string, size_t>>> ParseKeyComponents(
    std::string_view text) {
  std::vector<std::pair<std::string, size_t>> key;
  for (const std::string& piece : Split(text, ',')) {
    std::vector<std::string> parts = Split(piece, ':');
    if (parts.size() != 2) {
      return Status::InvalidArgument("key component '" + piece +
                                     "' is not attr:len");
    }
    double len = 0.0;
    if (!ParseDouble(Trim(parts[1]), &len) || len < 0 ||
        len != static_cast<double>(static_cast<size_t>(len))) {
      return Status::InvalidArgument("bad prefix length in '" + piece + "'");
    }
    key.emplace_back(std::string(Trim(parts[0])), static_cast<size_t>(len));
  }
  if (key.empty()) {
    return Status::InvalidArgument("empty key spec");
  }
  return key;
}

}  // namespace

std::string FormatKeyComponents(
    const std::vector<std::pair<std::string, size_t>>& key) {
  std::vector<std::string> pieces;
  pieces.reserve(key.size());
  for (const auto& [attribute, prefix] : key) {
    pieces.push_back(attribute + ":" + std::to_string(prefix));
  }
  return Join(pieces, ",");
}

PlanSpec DetectorConfig::ToSpec() const {
  PlanSpec spec;
  ParamMap& params = spec.params();
  const ComponentRegistry& registry = ComponentRegistry::Global();

  params.Set("key", FormatKeyComponents(key));

  const char* reduction_name = ReductionMethodName(reduction);
  params.Set("reduction", reduction_name);
  if (auto entry = registry.FindReduction(reduction_name); entry.ok()) {
    (*entry)->print(*this, &params);
  }

  const char* combination_name = CombinationKindName(combination);
  params.Set("combination", combination_name);
  if (auto entry = registry.FindCombination(combination_name); entry.ok()) {
    (*entry)->print(*this, &params);
  }

  const char* derivation_name = DerivationKindName(derivation);
  params.Set("derivation", derivation_name);
  if (auto entry = registry.FindDerivation(derivation_name); entry.ok()) {
    (*entry)->print(*this, &params);
  }

  params.SetDouble("classify.t_lambda", final_thresholds.t_lambda);
  params.SetDouble("classify.t_mu", final_thresholds.t_mu);

  if (prune) {
    params.SetBool("prune", true);
    params.SetDouble("prune.threshold", prune_threshold);
  }

  size_t comparator_count =
      std::max(comparators.size(), custom_comparators.size());
  if (comparator_count > 0) {
    std::vector<std::string> pieces(comparator_count);
    for (size_t i = 0; i < comparator_count; ++i) {
      if (i < custom_comparators.size() && custom_comparators[i] != nullptr) {
        pieces[i] = "custom";
      } else if (i < comparators.size() && !comparators[i].empty()) {
        pieces[i] = comparators[i];
      } else {
        pieces[i] = "default";
      }
    }
    params.Set("comparators", Join(pieces, ","));
  }

  if (preparation.has_value()) {
    // UniformAll prints as its step description; a per-attribute list
    // whose standardizers are all identical prints the same way plus
    // the attribute count it covers (so Uniform(std, n) round-trips).
    // Anything else (mixed steps, token maps) is opaque "custom".
    std::string description;
    if (preparation->uniform().has_value()) {
      description = preparation->uniform()->Description();
    } else if (!preparation->per_attribute().empty()) {
      description = preparation->per_attribute().front().Description();
      for (const Standardizer& standardizer : preparation->per_attribute()) {
        if (standardizer.Description() != description) {
          description = "custom";
          break;
        }
      }
      if (description != "custom") {
        params.SetSize("prepare.attributes",
                       preparation->per_attribute().size());
      }
    } else {
      description = "none";
    }
    if (description.empty()) description = "none";
    params.Set("prepare", description);
  }

  return spec;
}

Result<DetectorConfig> DetectorConfig::FromSpec(const PlanSpec& spec) {
  return FromSpec(spec, DetectorConfig());
}

Result<DetectorConfig> DetectorConfig::FromSpec(const PlanSpec& spec,
                                                DetectorConfig base) {
  // Read from a private copy: getters record key consumption in the
  // map itself, so reading the caller's (possibly shared) spec would
  // race when two threads translate the same spec concurrently.
  const ParamMap params = spec.params();
  params.ResetConsumption();
  DetectorConfig config = std::move(base);
  const ComponentRegistry& registry = ComponentRegistry::Global();

  std::string key_text = params.GetString("key", "");
  if (!key_text.empty()) {
    PDD_ASSIGN_OR_RETURN(config.key, ParseKeyComponents(key_text));
  }

  // Component configure() always runs — for the named component when
  // the spec selects one, else for the base config's component — so
  // bare parameter overrides ("--set reduction.window=5") apply.
  std::string reduction_name =
      params.GetString("reduction", ReductionMethodName(config.reduction));
  PDD_ASSIGN_OR_RETURN(const ComponentRegistry::ReductionEntry* reduction,
                       registry.FindReduction(reduction_name));
  config.reduction = reduction->method;
  PDD_RETURN_IF_ERROR(reduction->configure(params, &config));

  std::string combination_name =
      params.GetString("combination", CombinationKindName(config.combination));
  PDD_ASSIGN_OR_RETURN(const ComponentRegistry::CombinationEntry* combination,
                       registry.FindCombination(combination_name));
  config.combination = combination->kind;
  PDD_RETURN_IF_ERROR(combination->configure(params, &config));

  std::string derivation_name =
      params.GetString("derivation", DerivationKindName(config.derivation));
  PDD_ASSIGN_OR_RETURN(const ComponentRegistry::DerivationEntry* derivation,
                       registry.FindDerivation(derivation_name));
  config.derivation = derivation->kind;
  PDD_RETURN_IF_ERROR(derivation->configure(params, &config));

  PDD_ASSIGN_OR_RETURN(config.final_thresholds.t_lambda,
                       params.GetDouble("classify.t_lambda",
                                        config.final_thresholds.t_lambda));
  PDD_ASSIGN_OR_RETURN(
      config.final_thresholds.t_mu,
      params.GetDouble("classify.t_mu", config.final_thresholds.t_mu));

  PDD_ASSIGN_OR_RETURN(config.prune, params.GetBool("prune", config.prune));
  PDD_ASSIGN_OR_RETURN(
      config.prune_threshold,
      params.GetDouble("prune.threshold", config.prune_threshold));

  if (params.Has("comparators")) {
    std::string text = params.GetString("comparators", "");
    std::vector<std::string> names;
    if (!Trim(text).empty()) {
      for (const std::string& piece : Split(text, ',')) {
        std::string name(Trim(piece));
        if (name == "custom") {
          return Status::InvalidArgument(
              "plan specs cannot resolve 'custom' comparators — set "
              "DetectorConfig::custom_comparators programmatically");
        }
        if (name != "default") {
          auto comparator = GetComparator(name);
          if (!comparator.ok()) return comparator.status();
        }
        names.push_back(std::move(name));
      }
    }
    config.comparators = std::move(names);
    config.custom_comparators.clear();
  }

  if (params.Has("prepare")) {
    std::string description = params.GetString("prepare", "");
    // `prepare.attributes = n` limits the preparation to the first n
    // attributes (the Uniform(standardizer, n) form); 0 / absent means
    // every attribute.
    PDD_ASSIGN_OR_RETURN(size_t prepare_attributes,
                         params.GetSize("prepare.attributes", 0));
    if (description.empty() || description == "none") {
      config.preparation.reset();
    } else if (description == "custom") {
      return Status::InvalidArgument(
          "plan specs cannot resolve 'custom' preparation — set "
          "DetectorConfig::preparation programmatically");
    } else {
      PDD_ASSIGN_OR_RETURN(Standardizer standardizer,
                           Standardizer::FromDescription(description));
      config.preparation =
          prepare_attributes > 0
              ? DataPreparation::Uniform(std::move(standardizer),
                                         prepare_attributes)
              : DataPreparation::UniformAll(std::move(standardizer));
    }
  }

  PDD_ASSIGN_OR_RETURN(config.batch_size,
                       params.GetSize("executor.batch", config.batch_size));
  PDD_ASSIGN_OR_RETURN(config.workers,
                       params.GetSize("executor.workers", config.workers));

  PDD_RETURN_IF_ERROR(params.ExpectFullyConsumed(
      "plan spec (for reduction '" + reduction_name + "', combination '" +
      combination_name + "', derivation '" + derivation_name + "')"));
  return config;
}

}  // namespace pdd
