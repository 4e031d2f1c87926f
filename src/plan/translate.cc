// DetectorConfig ↔ PlanSpec translation. DetectorConfig stays the
// C++-native struct form; PlanSpec is the declarative string-keyed
// form. Every plain key is declared once (VisitPlanParams and the
// registry's component declarations, see plan/params.h), and that one
// declaration is read by FromSpec, printed by ToSpec and listed as the
// keys a spec may name. ToSpec prints the *selected* components' keys
// only (a canopy plan carries no SNM window), so the fingerprint of a
// plan is invariant to config fields the plan never reads. FromSpec
// resolves component names through their name tables and rejects
// every key that neither the base plan nor a selected component
// declares.
//
// Two config features are not representable in text: custom comparator
// instances (ToSpec marks them "custom"; FromSpec refuses to resolve
// the marker) and token-map standardizers ("prepare = custom",
// likewise refused); `comparators`, `prepare` and `prepare.attributes`
// are read and printed by hand below. Executor tuning
// (`executor.batch`, `executor.workers`) is accepted by FromSpec as a
// convenience but never printed by ToSpec: it does not change
// decisions, so it is kept out of the fingerprint (and reports stay
// byte-identical across batch sizes and worker counts).

#include "plan/translate.h"

#include <algorithm>
#include <set>

#include "plan/plan_spec.h"
#include "plan/registry.h"
#include "prep/standardizer.h"
#include "sim/registry.h"
#include "util/string_util.h"

namespace pdd {

void VisitPlanParams(ParamVisitor& v, DetectorConfig& c) {
  const ComponentRegistry& registry = ComponentRegistry::Global();
  v("key", c.key);
  v("reduction", c.reduction, ReductionMethods());
  if (auto entry = registry.FindReduction(ReductionMethodName(c.reduction));
      entry.ok()) {
    (*entry)->params(v, c);
  }
  v("combination", c.combination, CombinationKinds());
  if (auto entry =
          registry.FindCombination(CombinationKindName(c.combination));
      entry.ok()) {
    (*entry)->params(v, c);
  }
  v("derivation", c.derivation, DerivationKinds());
  if (auto entry = registry.FindDerivation(DerivationKindName(c.derivation));
      entry.ok()) {
    (*entry)->params(v, c);
  }
  v("classify.t_lambda", c.final_thresholds.t_lambda);
  v("classify.t_mu", c.final_thresholds.t_mu);
  // Unpruned plans print no prune keys, so their fingerprints do not
  // depend on prune_threshold.
  if (c.prune || !v.printing()) {
    v("prune", c.prune);
    v("prune.threshold", c.prune_threshold);
  }
  v.Accept("comparators");
  v.Accept("prepare");
  v.Accept("prepare.attributes");
  // Executor tuning changes no decision: read, never printed.
  if (!v.printing()) {
    v("executor.batch", c.batch_size);
    v("executor.workers", c.workers);
  }
}

PlanSpec DetectorConfig::ToSpec() const {
  PlanSpec spec;
  ParamMap& params = spec.params();
  // The declaration takes a mutable config; printing only reads it.
  DetectorConfig config = *this;
  ParamVisitor printer = ParamVisitor::Printing(&params);
  VisitPlanParams(printer, config);

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
  const ParamMap& params = spec.params();
  DetectorConfig config = std::move(base);
  // Absent keys keep the base value, so bare parameter overrides
  // ("--set reduction.window=5") apply to the base config's components.
  ParamVisitor reader = ParamVisitor::Reading(params);
  VisitPlanParams(reader, config);
  PDD_RETURN_IF_ERROR(reader.status());

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

  std::set<std::string> declared;
  ParamVisitor lister = ParamVisitor::Listing(&declared);
  VisitPlanParams(lister, config);
  // A step count qualifies a prepare step; alone it is unknown.
  if (!params.Has("prepare")) declared.erase("prepare.attributes");
  std::vector<std::string> unknown;
  for (const auto& [key, value] : params.entries()) {
    if (declared.count(key) == 0) unknown.push_back(key);
  }
  if (!unknown.empty()) {
    return Status::InvalidArgument(
        "unknown parameter" + std::string(unknown.size() > 1 ? "s" : "") +
        " in plan spec (for reduction '" +
        ReductionMethodName(config.reduction) + "', combination '" +
        CombinationKindName(config.combination) + "', derivation '" +
        DerivationKindName(config.derivation) + "'): " + Join(unknown, ", "));
  }
  return config;
}

}  // namespace pdd
