#include "analysis/spec_closure.h"

#include <filesystem>

#include "core/config.h"
#include "plan/param_map.h"
#include "plan/plan_spec.h"
#include "plan/registry.h"
#include "plan/translate.h"
#include "prep/standardizer.h"
#include "util/file_util.h"

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

/// Scans `content` for spec-key string literals consumed by ParamMap
/// getters: Get{String,Double,Size,Bool}("key"... and Has("key"...
/// (whitespace-tolerant across line wraps).
void ScanReadKeys(std::string_view content, std::set<std::string>* keys) {
  static constexpr std::string_view kGetters[] = {
      "GetString(", "GetDouble(", "GetSize(", "GetBool(", "Has(",
  };
  for (std::string_view getter : kGetters) {
    size_t pos = content.find(getter);
    while (pos != std::string_view::npos) {
      size_t cursor = pos + getter.size();
      while (cursor < content.size() &&
             (content[cursor] == ' ' || content[cursor] == '\n' ||
              content[cursor] == '\t')) {
        ++cursor;
      }
      if (cursor < content.size() && content[cursor] == '"') {
        size_t end = content.find('"', cursor + 1);
        if (end != std::string_view::npos) {
          keys->insert(std::string(content.substr(cursor + 1,
                                                  end - cursor - 1)));
        }
      }
      pos = content.find(getter, pos + 1);
    }
  }
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

Result<SpecClosureReport> CheckSpecClosure(const std::string& source_root) {
  namespace fs = std::filesystem;
  SpecClosureReport report;
  static constexpr std::string_view kReaderFiles[] = {
      "src/plan/translate.cc",
      "src/plan/registry.cc",
  };
  for (std::string_view rel : kReaderFiles) {
    PDD_ASSIGN_OR_RETURN(
        std::string text,
        ReadFileToString((fs::path(source_root) / rel).string()));
    ScanReadKeys(text, &report.read_keys);
  }
  if (report.read_keys.empty()) {
    return Status::Internal(
        "spec-closure: no ParamMap reads found under '" + source_root +
        "/src/plan' — wrong source root?");
  }
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
          "plan output would fail to reparse (unconsumed-key rejection)");
    }
  }
  return report;
}

}  // namespace pdd
