// Shared plumbing of the end-to-end benchmark: clocks, sample
// statistics, process memory readings, the benchmark's own span
// recorder, and the result accumulator every workload fills.
//
// The span recorder is the benchmark's trace: each span has a name, a
// start and end on the steady clock, the span that was open when it
// began (its parent) and the id of the workload iteration it belongs
// to. Spans stay in memory until the process exits. With tracing off
// nothing is recorded; the clock is still read around each phase
// because the end-to-end metrics are built from those readings.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double Now();

/// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);

/// Inclusive-method percentile `p` in [0, 100] of `values` (linear
/// interpolation between closest ranks; 0 for an empty vector).
double Percentile(std::vector<double> values, double p);

/// Resident set size of this process right now, in bytes.
uint64_t CurrentRssBytes();

/// Restarts peak-RSS accounting (Linux clear_refs), so PeakRssMiB()
/// reports the peak since this call. Without kernel support the peak
/// stays the process-lifetime peak.
void ResetPeakRss();

/// Peak resident set size since the last ResetPeakRss() (else since the
/// process started), in MiB.
double PeakRssMiB();

/// FNV-1a 64-bit digest of a byte string.
uint64_t Fnv1a(const std::string& bytes);

/// Formats a 64-bit value as 16 lowercase hex digits.
std::string Hex64(uint64_t value);

class Trace {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /// Index of the enclosing span in spans(), -1 at top level.
    int parent = -1;
    /// Iteration the span belongs to.
    int run = 0;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Starts attributing new spans to iteration `run`.
  void set_run(int run) { run_ = run; }

  /// Opens a span and returns its handle (-1 when disabled).
  int Begin(const std::string& name);
  /// Closes the span opened by Begin.
  void End(int handle);

  /// Self time per span name for iteration `run`: each span's duration
  /// minus the time its direct children cover, summed per name.
  std::map<std::string, double> SelfSeconds(int run) const;

  /// Duration of iteration `run`'s root span (named `root`) minus the
  /// durations of its direct children: the time no span accounts for.
  double Unattributed(int run, const std::string& root) const;

 private:
  bool enabled_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Runs `fn` inside a span named `name` and returns its wall seconds
/// (measured whether or not the trace records).
template <typename Fn>
double Timed(Trace* trace, const std::string& name, Fn&& fn) {
  const int handle = trace->Begin(name);
  const double start = Now();
  fn();
  const double seconds = Now() - start;
  trace->End(handle);
  return seconds;
}

/// What a workload run reports: per-iteration samples of every metric
/// (reduced to medians at the end), the correctness tally and the
/// human-readable lines printed above the result.
class Report {
 public:
  /// Appends one sample of metric `name` (unit recorded on first use).
  void Add(const std::string& name, const std::string& unit, double value);

  /// Replaces metric `name` with a single value.
  void Set(const std::string& name, const std::string& unit, double value);

  /// Records `count` attempted checks of which `failures` failed.
  void Check(uint64_t count, uint64_t failures, const std::string& what);
  /// One attempted check.
  void Expect(bool ok, const std::string& what) { Check(1, ok ? 0 : 1, what); }

  /// Prints a human-readable line (stdout, before the result line).
  void Note(const std::string& line);

  /// Folds the trace of traced iteration `run` in: self time per span
  /// name as `<name>_s` plus `unattributed_s`.
  void AddTraceRun(const Trace& trace, int run, const std::string& root);

  /// One metric of the result line.
  struct Def {
    std::string name;
    std::string unit;
    /// Required metrics without samples count as a failed check;
    /// optional ones (a layer this workload does not exercise) print 0.
    bool required = true;
  };

  /// Prints the final JSON line with the median of each metric in
  /// `defs`, in that order.
  void PrintResult(const std::vector<Def>& defs);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  struct Metric {
    std::string unit;
    std::vector<double> samples;
  };
  std::map<std::string, Metric> samples_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
