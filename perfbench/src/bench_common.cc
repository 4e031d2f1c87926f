#include "bench_common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// ------------------------------------------------------------- Trace

int Trace::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  span.start = Now();
  spans_.push_back(std::move(span));
  const int handle = static_cast<int>(spans_.size() - 1);
  open_.push_back(handle);
  return handle;
}

void Trace::End(int handle) {
  if (handle < 0) return;
  spans_[static_cast<size_t>(handle)].end = Now();
  // Spans close in LIFO order (Timed nests them lexically).
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

std::map<std::string, double> Trace::SelfSeconds(int run) const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.run == run && span.parent >= 0) {
      child_seconds[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.run != run) continue;
    self[span.name] += (span.end - span.start) - child_seconds[i];
  }
  return self;
}

double Trace::Unattributed(int run, const std::string& root) const {
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.run != run || span.name != root || span.parent != -1) continue;
    total += span.end - span.start;
    for (const Span& child : spans_) {
      if (child.parent == static_cast<int>(i)) {
        total -= child.end - child.start;
      }
    }
  }
  return total;
}

// ------------------------------------------------------------ Report

void Report::Add(const std::string& name, const std::string& unit,
                 double value) {
  Metric& metric = samples_[name];
  if (metric.unit.empty()) metric.unit = unit;
  metric.samples.push_back(value);
}

void Report::Set(const std::string& name, const std::string& unit,
                 double value) {
  Metric& metric = samples_[name];
  metric.unit = unit;
  metric.samples.assign(1, value);
}

void Report::Check(uint64_t count, uint64_t failures, const std::string& what) {
  attempted_ += count;
  failed_ += failures;
  if (failures > 0) {
    std::cout << "CHECK FAILED: " << what << " (" << failures << " of "
              << count << ")\n";
  }
}

void Report::Note(const std::string& line) { std::cout << line << "\n"; }

void Report::AddTraceRun(const Trace& trace, int run, const std::string& root) {
  for (const auto& [name, seconds] : trace.SelfSeconds(run)) {
    if (name == root) continue;
    Add(name + "_s", "s", seconds);
  }
  Add("unattributed_s", "s", trace.Unattributed(run, root));
}

void Report::PrintResult(const std::vector<Def>& defs) {
  std::ostringstream metrics;
  metrics.precision(17);
  bool first = true;
  for (const Def& def : defs) {
    auto it = samples_.find(def.name);
    double value = 0.0;
    if (it == samples_.end() || it->second.samples.empty()) {
      if (def.required) Check(1, 1, "metric " + def.name + " was not measured");
    } else {
      value = Median(it->second.samples);
    }
    if (!std::isfinite(value)) {
      Check(1, 1, "metric " + def.name + " is not finite");
      value = 0.0;
    }
    metrics << (first ? "" : ", ") << "\"" << def.name
            << "\": {\"value\": " << value << ", \"unit\": \"" << def.unit
            << "\"}";
    first = false;
  }
  std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
            << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
            << ", \"failed\": " << failed_ << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
}

}  // namespace perfbench
