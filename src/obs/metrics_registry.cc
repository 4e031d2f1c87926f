#include "obs/metrics_registry.h"

#include <utility>

#include "util/string_util.h"

namespace pdd {

bool IsIdentityMetricName(std::string_view name) {
  return !StartsWith(name, kTimingNamespace) &&
         !StartsWith(name, kExecNamespace);
}

void MetricsRegistry::SetCounter(const std::string& name, uint64_t value) {
  counters_[name] = value;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  gauges_[name] = value;
}

void MetricsRegistry::SetInfo(const std::string& name, std::string value) {
  infos_[name] = std::move(value);
}

LogHistogram* MetricsRegistry::MutableHistogram(const std::string& name) {
  return &histograms_[name];
}

uint64_t MetricsRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

std::string MetricsRegistry::info(const std::string& name) const {
  auto it = infos_.find(name);
  return it == infos_.end() ? std::string() : it->second;
}

const LogHistogram* MetricsRegistry::histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

}  // namespace pdd
