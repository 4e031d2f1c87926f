// MetricsRegistry: the one queryable telemetry surface of a detection
// run. TelemetryFromResult fills it once from the run's stat fields
// and the tools add their own families (exec.ingest.*, exec.index.*,
// exec.cache.lifetime.*); the renderers and exporters only read it.
// Four metric kinds, all stored in sorted (std::map) order so every
// export path iterates deterministically:
//
//   counters    uint64 event counts
//   gauges      last-written double readings
//   infos       string-valued annotations (reduction name, fingerprints)
//   histograms  log2-bucketed value distributions (obs/log_histogram.h)
//
// Namespace discipline (metric names are dotted paths):
//
//   time.*      timing-derived: wall-clock seconds, latency histograms.
//               Nondeterministic by nature — NEVER identity-gated.
//   exec.*      execution-shape diagnostics: batch/worker counts,
//               cache hit/miss traffic, live high-water marks. These
//               are honest counts, but they legitimately vary across
//               execution knobs (worker count, batch size, cache
//               warmth) and — for the pooled high-water — across
//               runs, so they are excluded from identity gating
//               alongside time.*.
//   (rest)      identity metrics: counts and annotations that must be
//               bit-identical across serial/pooled/cached runs of the
//               same plan and input (pairs examined, decisions per
//               class, the similarity distribution, the plan
//               fingerprint). The obs_test ctest and the CI metrics
//               smoke gate exactly this subset.

#ifndef PDD_OBS_METRICS_REGISTRY_H_
#define PDD_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/log_histogram.h"

namespace pdd {

/// Prefix of timing-derived (always nondeterministic) metrics.
inline constexpr std::string_view kTimingNamespace = "time.";
/// Prefix of execution-shape metrics (vary across placement knobs).
inline constexpr std::string_view kExecNamespace = "exec.";

/// Whether `name` belongs to the identity subset (neither time.* nor
/// exec.*): the metrics gated bit-identical across run shapes.
bool IsIdentityMetricName(std::string_view name);

class MetricsRegistry {
 public:
  // --- writers ------------------------------------------------------

  /// Sets the counter `name` to an absolute value.
  void SetCounter(const std::string& name, uint64_t value);
  void SetGauge(const std::string& name, double value);
  void SetInfo(const std::string& name, std::string value);
  /// The histogram `name`, created empty if absent, to record or merge
  /// into.
  LogHistogram* MutableHistogram(const std::string& name);

  // --- readers ------------------------------------------------------

  /// Counter value, 0 when absent.
  uint64_t counter(const std::string& name) const;
  /// Gauge value, 0.0 when absent.
  double gauge(const std::string& name) const;
  /// Info value, "" when absent.
  std::string info(const std::string& name) const;
  /// Histogram, nullptr when absent.
  const LogHistogram* histogram(const std::string& name) const;

  const std::map<std::string, uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, std::string>& infos() const { return infos_; }
  const std::map<std::string, LogHistogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, std::string> infos_;
  std::map<std::string, LogHistogram> histograms_;
};

}  // namespace pdd

#endif  // PDD_OBS_METRICS_REGISTRY_H_
