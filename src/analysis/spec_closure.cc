#include "analysis/spec_closure.h"

#include "core/config.h"
#include "plan/plan_spec.h"
#include "plan/registry.h"
#include "plan/translate.h"
#include "prep/standardizer.h"
#include "sim/registry.h"

namespace pdd {

namespace {

/// Collects the keys a ToSpec of `config` prints.
void CollectKeys(const DetectorConfig& config, std::set<std::string>* keys) {
  PlanSpec spec = config.ToSpec();
  for (const auto& [key, value] : spec.params().entries()) {
    keys->insert(key);
  }
}

/// A config that triggers every conditionally-printed base key:
/// pruning, named comparators and a per-attribute uniform preparation
/// (prints `prepare.attributes`).
DetectorConfig FullyPrintingConfig() {
  DetectorConfig config;
  config.prune = true;
  config.comparators = {"jaro"};
  Standardizer standardizer;
  standardizer.LowerCase().TrimWhitespace();
  config.preparation = DataPreparation::Uniform(std::move(standardizer), 2);
  return config;
}

std::set<std::string> CollectPrintedSpecKeys() {
  std::set<std::string> keys;
  const ComponentRegistry& registry = ComponentRegistry::Global();
  CollectKeys(FullyPrintingConfig(), &keys);
  for (const std::string& name : registry.ReductionNames()) {
    DetectorConfig config;
    config.reduction = (*registry.FindReduction(name))->method;
    // Key-distance comparators print only when set.
    config.clustering.comparator = *GetComparator("jaro");
    config.canopy.comparator = *GetComparator("jaro");
    config.adaptive.comparator = *GetComparator("jaro");
    CollectKeys(config, &keys);
  }
  for (const std::string& name : registry.CombinationNames()) {
    DetectorConfig config;
    config.combination = (*registry.FindCombination(name))->kind;
    CollectKeys(config, &keys);
  }
  for (const std::string& name : registry.DerivationNames()) {
    DetectorConfig config;
    config.derivation = (*registry.FindDerivation(name))->kind;
    CollectKeys(config, &keys);
  }
  return keys;
}

/// Every declared key: the base plan's and each registered
/// component's.
std::set<std::string> CollectReadSpecKeys() {
  std::set<std::string> keys;
  ParamVisitor lister = ParamVisitor::Listing(&keys);
  DetectorConfig config;
  VisitPlanParams(lister, config);
  const ComponentRegistry& registry = ComponentRegistry::Global();
  for (const std::string& name : registry.ReductionNames()) {
    (*registry.FindReduction(name))->params(lister, config);
  }
  for (const std::string& name : registry.CombinationNames()) {
    (*registry.FindCombination(name))->params(lister, config);
  }
  for (const std::string& name : registry.DerivationNames()) {
    (*registry.FindDerivation(name))->params(lister, config);
  }
  return keys;
}

}  // namespace

const std::set<std::string>& FingerprintIrrelevantSpecKeys() {
  // executor.* resize batches and worker pools (output gated
  // byte-identical for any value in pipeline_test).
  static const std::set<std::string> kKeys = {
      "executor.batch",
      "executor.workers",
  };
  return kKeys;
}

SpecClosureReport CheckSpecClosure() {
  SpecClosureReport report;
  report.read_keys = CollectReadSpecKeys();
  report.printed_keys = CollectPrintedSpecKeys();

  const std::set<std::string>& irrelevant = FingerprintIrrelevantSpecKeys();
  auto add = [&report](const std::string& key, std::string message) {
    report.findings.push_back(LintFinding{"src/plan/translate.cc", 0,
                                          "spec-closure",
                                          "key '" + key + "' " +
                                              std::move(message)});
  };
  for (const std::string& key : report.read_keys) {
    if (report.printed_keys.count(key) == 0 && irrelevant.count(key) == 0) {
      add(key,
          "is read by FromSpec but never printed by ToSpec and is not on "
          "the documented fingerprint-irrelevant list — it silently "
          "escapes the plan fingerprint");
    }
  }
  for (const std::string& key : irrelevant) {
    if (report.printed_keys.count(key) > 0) {
      add(key,
          "is documented fingerprint-irrelevant but printed by ToSpec — "
          "the documentation and the fingerprint contradict");
    }
    if (report.read_keys.count(key) == 0) {
      add(key,
          "is documented fingerprint-irrelevant but FromSpec no longer "
          "reads it — stale list entry");
    }
  }
  for (const std::string& key : report.printed_keys) {
    if (report.read_keys.count(key) == 0) {
      add(key,
          "is printed by ToSpec but never read by FromSpec — canonical "
          "plan output would fail to reparse (undeclared-key rejection)");
    }
  }
  return report;
}

}  // namespace pdd
