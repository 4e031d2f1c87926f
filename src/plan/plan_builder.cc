#include "plan/plan_builder.h"

#include "plan/params.h"
#include "util/string_util.h"

namespace pdd {

PlanBuilder& PlanBuilder::Key(
    std::vector<std::pair<std::string, size_t>> key) {
  key_ = std::move(key);
  return *this;
}

PlanBuilder& PlanBuilder::AddKey(std::string attribute, size_t prefix) {
  key_.emplace_back(std::move(attribute), prefix);
  return *this;
}

PlanBuilder& PlanBuilder::Reduction(std::string name) {
  spec_.params().Set("reduction", std::move(name));
  return *this;
}

PlanBuilder& PlanBuilder::Combination(std::string name) {
  spec_.params().Set("combination", std::move(name));
  return *this;
}

PlanBuilder& PlanBuilder::Derivation(std::string name) {
  spec_.params().Set("derivation", std::move(name));
  return *this;
}

PlanBuilder& PlanBuilder::Weights(const std::vector<double>& weights) {
  std::vector<std::string> pieces;
  pieces.reserve(weights.size());
  for (double w : weights) pieces.push_back(FormatDouble(w));
  spec_.params().Set("combination.weights", Join(pieces, ","));
  return *this;
}

PlanBuilder& PlanBuilder::Thresholds(double t_lambda, double t_mu) {
  spec_.params().SetDouble("classify.t_lambda", t_lambda);
  spec_.params().SetDouble("classify.t_mu", t_mu);
  return *this;
}

PlanBuilder& PlanBuilder::IntermediateThresholds(double t_lambda,
                                                 double t_mu) {
  spec_.params().SetDouble("derivation.t_lambda", t_lambda);
  spec_.params().SetDouble("derivation.t_mu", t_mu);
  return *this;
}

PlanBuilder& PlanBuilder::Comparators(const std::vector<std::string>& names) {
  spec_.params().Set("comparators", Join(names, ","));
  return *this;
}

PlanBuilder& PlanBuilder::Prepare(std::string description) {
  spec_.params().Set("prepare", std::move(description));
  return *this;
}

PlanBuilder& PlanBuilder::Prune(double threshold) {
  spec_.params().SetBool("prune", true);
  spec_.params().SetDouble("prune.threshold", threshold);
  return *this;
}

PlanBuilder& PlanBuilder::Set(std::string key, std::string value) {
  spec_.params().Set(std::move(key), std::move(value));
  return *this;
}

PlanBuilder& PlanBuilder::Set(std::string key, const char* value) {
  spec_.params().Set(std::move(key), value);
  return *this;
}

PlanBuilder& PlanBuilder::Set(std::string key, double value) {
  spec_.params().SetDouble(std::move(key), value);
  return *this;
}

PlanBuilder& PlanBuilder::Set(std::string key, size_t value) {
  spec_.params().SetSize(std::move(key), value);
  return *this;
}

PlanBuilder& PlanBuilder::Set(std::string key, int value) {
  spec_.params().Set(std::move(key), std::to_string(value));
  return *this;
}

PlanBuilder& PlanBuilder::Set(std::string key, bool value) {
  spec_.params().SetBool(std::move(key), value);
  return *this;
}

PlanSpec PlanBuilder::Build() const {
  PlanSpec spec = spec_;
  if (!key_.empty()) {
    spec.params().Set("key", FormatKeyComponents(key_));
  }
  return spec;
}

}  // namespace pdd
