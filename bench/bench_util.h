// Shared helpers for the figure-reproduction benchmark binaries.

#ifndef PDD_BENCH_BENCH_UTIL_H_
#define PDD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "obs/export.h"
#include "obs/run_telemetry.h"

namespace pdd_bench {

/// Fixed-precision formatting for table cells.
inline std::string Fmt(double v, int digits = 4) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// Section banner naming the reproduced figure and the paper's claim.
inline void Banner(const std::string& experiment, const std::string& claim) {
  std::cout << "==================================================\n"
            << experiment << "\n"
            << "paper: " << claim << "\n"
            << "==================================================\n";
}

/// PASS/FAIL trailer so `for b in build/bench/*` output is scannable.
inline int Verdict(bool ok) {
  std::cout << (ok ? "[REPRODUCED]" : "[MISMATCH]") << "\n\n";
  return ok ? 0 : 1;
}

/// Machine-readable metrics sidecar for a bench run, written to
/// `BENCH_<name>.json` in the working directory so CI can archive
/// numbers next to the human-readable table output. The sidecar is a
/// pdd.telemetry.v1 document (the same schema `pddcli --metrics`
/// writes): Set() with a double lands in the telemetry's gauges,
/// strings and bools land in its info section, and export iterates in
/// sorted key order. tools/bench_compare.py flattens both sections
/// back into the flat key space the regression gate classifies on.
///
///   BenchJsonWriter json("fig03");
///   json.Set("scalar_pairs_per_sec", scalar_rate);
///   json.Set("kernel", "columnar");
///   json.Write();   // -> BENCH_fig03.json
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string name) : name_(std::move(name)) {
    telemetry_.root.name = "bench." + name_;
  }

  void Set(const std::string& key, double value) {
    telemetry_.metrics.SetGauge(key, value);
  }
  void Set(const std::string& key, const std::string& value) {
    telemetry_.metrics.SetInfo(key, value);
  }
  void Set(const std::string& key, const char* value) {
    Set(key, std::string(value));
  }
  void Set(const std::string& key, bool value) {
    telemetry_.metrics.SetInfo(key, value ? "true" : "false");
  }

  /// The underlying telemetry, for benches that fold in a run's full
  /// registry (histograms, counters) rather than scalar summaries.
  pdd::RunTelemetry& telemetry() { return telemetry_; }

  /// Replaces `BENCH_<name>.json` atomically and echoes the path;
  /// returns false (without aborting the bench) if it can't be written.
  bool Write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    if (!pdd::WriteTelemetrySidecar(telemetry_, path, "json").ok()) {
      std::cout << "(could not write " << path << ")\n";
      return false;
    }
    std::cout << "metrics: " << path << "\n";
    return true;
  }

 private:
  std::string name_;
  pdd::RunTelemetry telemetry_;
};

}  // namespace pdd_bench

#endif  // PDD_BENCH_BENCH_UTIL_H_
