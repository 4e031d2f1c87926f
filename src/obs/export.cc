#include "obs/export.h"

#include "cache/decision_cache.h"
#include "obs/json.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace pdd {

namespace {

/// Uniform filter over metric names: the full export keeps everything,
/// the identity export keeps only the identity namespace.
using NameFilter = bool (*)(std::string_view);

bool KeepAll(std::string_view) { return true; }

void AppendHistogramJson(const std::string& indent, const LogHistogram& h,
                         std::string* out) {
  *out += "{\n";
  const std::string inner = indent + "  ";
  *out += inner + "\"count\": " + std::to_string(h.count()) + ",\n";
  *out += inner + "\"max\": " + std::to_string(h.max()) + ",\n";
  *out += inner + "\"min\": " + std::to_string(h.min()) + ",\n";
  *out += inner + "\"p50\": " + std::to_string(h.Quantile(0.50)) + ",\n";
  *out += inner + "\"p95\": " + std::to_string(h.Quantile(0.95)) + ",\n";
  *out += inner + "\"p99\": " + std::to_string(h.Quantile(0.99)) + ",\n";
  *out += inner + "\"sum\": " + std::to_string(h.sum()) + ",\n";
  *out += inner + "\"buckets\": [";
  bool first = true;
  for (size_t i = 0; i < LogHistogram::kBucketCount; ++i) {
    if (h.buckets()[i] == 0) continue;
    if (!first) *out += ", ";
    first = false;
    *out += "[" + std::to_string(LogHistogram::BucketUpperBound(i)) + ", " +
            std::to_string(h.buckets()[i]) + "]";
  }
  *out += "]\n" + indent + "}";
}

void AppendSpanJson(const std::string& indent, const TelemetrySpan& span,
                    std::string* out) {
  *out += "{\n";
  const std::string inner = indent + "  ";
  *out += inner + "\"name\": " + JsonQuote(span.name) + ",\n";
  *out += inner + "\"seconds\": " + JsonNumber(span.seconds) + ",\n";
  *out += inner + "\"counts\": {";
  bool first = true;
  for (const auto& [name, value] : span.counts) {
    *out += first ? "\n" : ",\n";
    first = false;
    *out += inner + "  " + JsonQuote(name) + ": " + std::to_string(value);
  }
  *out += first ? "},\n" : "\n" + inner + "},\n";
  *out += inner + "\"children\": [";
  first = true;
  for (const TelemetrySpan& child : span.children) {
    *out += first ? "\n" : ",\n";
    first = false;
    *out += inner + "  ";
    AppendSpanJson(inner + "  ", child, out);
  }
  *out += first ? "]\n" : "\n" + inner + "]\n";
  *out += indent + "}";
}

std::string ToJsonFiltered(const RunTelemetry& telemetry, NameFilter keep,
                           bool include_spans) {
  const MetricsRegistry& m = telemetry.metrics;
  std::string out = "{\n";
  out += "  \"schema\": " +
         JsonQuote(RunTelemetry::kSchemaVersion) + ",\n";

  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : m.counters()) {
    if (!keep(name)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonQuote(name) + ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : m.gauges()) {
    if (!keep(name)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonQuote(name) + ": " + JsonNumber(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : m.histograms()) {
    if (!keep(name)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonQuote(name) + ": ";
    AppendHistogramJson("    ", histogram, &out);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"info\": {";
  first = true;
  for (const auto& [name, value] : m.infos()) {
    if (!keep(name)) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + JsonQuote(name) + ": " + JsonQuote(value);
  }
  out += first ? "}" : "\n  }";

  if (include_spans) {
    out += ",\n  \"spans\": [\n    ";
    AppendSpanJson("    ", telemetry.root, &out);
    out += "\n  ]\n";
  } else {
    out += "\n";
  }
  out += "}\n";
  return out;
}

std::string PrometheusName(std::string_view name) {
  std::string out = "pdd_";
  for (char c : name) {
    bool alnum = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9');
    out += alnum ? c : '_';
  }
  return out;
}

}  // namespace

std::string TelemetryToJson(const RunTelemetry& telemetry) {
  return ToJsonFiltered(telemetry, KeepAll, /*include_spans=*/true);
}

std::string IdentityMetricsJson(const RunTelemetry& telemetry) {
  return ToJsonFiltered(telemetry, IsIdentityMetricName,
                        /*include_spans=*/false);
}

std::string TelemetryToPrometheus(const RunTelemetry& telemetry) {
  const MetricsRegistry& m = telemetry.metrics;
  std::string out = "# " + std::string(RunTelemetry::kSchemaVersion) + "\n";
  for (const auto& [name, value] : m.counters()) {
    std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : m.gauges()) {
    std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + JsonNumber(value) + "\n";
  }
  for (const auto& [name, histogram] : m.histograms()) {
    std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < LogHistogram::kBucketCount; ++i) {
      if (histogram.buckets()[i] == 0) continue;
      cumulative += histogram.buckets()[i];
      out += prom + "_bucket{le=\"" +
             std::to_string(LogHistogram::BucketUpperBound(i)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(histogram.count()) +
           "\n";
    out += prom + "_sum " + std::to_string(histogram.sum()) + "\n";
    out += prom + "_count " + std::to_string(histogram.count()) + "\n";
  }
  for (const auto& [name, value] : m.infos()) {
    out += "pdd_info{name=\"" + name + "\",value=\"" + value + "\"} 1\n";
  }
  return out;
}

Status WriteTelemetrySidecar(const RunTelemetry& telemetry,
                             const std::string& path,
                             std::string_view format) {
  return WriteFileAtomically(path, format == "prom"
                                       ? TelemetryToPrometheus(telemetry)
                                       : TelemetryToJson(telemetry));
}

std::string RenderExecutionStats(const RunTelemetry& telemetry) {
  const MetricsRegistry& m = telemetry.metrics;
  std::string out = "# Execution statistics\n\n## Batch timings\n\n";
  const LogHistogram* decide = m.histogram(kMetricBatchDecideMicros);
  if (decide == nullptr) {
    // A hand-assembled result: no executor drained it.
    out += "(no executor timings)\n";
  } else {
    auto span_seconds = [&](std::string_view name) {
      const TelemetrySpan* span = telemetry.root.FindChild(name);
      return span == nullptr ? 0.0 : span->seconds;
    };
    const std::pair<const char*, double> rows[] = {
        {"pull", span_seconds("generate")},
        {"decide", span_seconds("drain")},
        {"commit", span_seconds("commit")},
    };
    double total = 0.0;
    for (const auto& [name, seconds] : rows) total += seconds;
    out += "| phase | seconds | share |\n|---|---|---|\n";
    for (const auto& [name, seconds] : rows) {
      const double share = total > 0.0 ? 100.0 * seconds / total : 0.0;
      out += std::string("| ") + name + " | " + FormatDouble(seconds, 6) +
             " | " + FormatDouble(share, 1) + "% |\n";
    }
    out += "| total | " + FormatDouble(total, 6) + " | 100.0% |\n";
    out += "\n- batch decide latency (us): p50 " +
           std::to_string(decide->Quantile(0.50)) + ", p99 " +
           std::to_string(decide->Quantile(0.99)) + " over " +
           std::to_string(decide->count()) + " batches\n";
  }
  if (m.counter(kMetricCacheAttached) != 0) {
    const uint64_t lookups = m.counter(kMetricCacheLookups);
    const uint64_t hits = m.counter(kMetricCacheHits);
    const double hit_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(lookups);
    out += "\n## Decision cache\n\n";
    out += "- cache: " + std::to_string(hits) + " hits / " +
           std::to_string(lookups) + " lookups (" +
           FormatDouble(hit_rate * 100.0, 1) + "% hit rate), " +
           std::to_string(m.counter(kMetricCacheInserts)) + " inserts\n";
    if (m.counters().count("exec.cache.lifetime.hits") > 0) {
      DecisionCacheStats lifetime;
      lifetime.hits = m.counter("exec.cache.lifetime.hits");
      lifetime.misses = m.counter("exec.cache.lifetime.misses");
      lifetime.inserts = m.counter("exec.cache.lifetime.inserts");
      lifetime.evictions = m.counter("exec.cache.lifetime.evictions");
      lifetime.size = m.counter("exec.cache.lifetime.size");
      out += "- cache lifetime: " + lifetime.ToString() + "\n";
    }
  }
  out += "\n## Candidate stream\n\n- stream:";
  if (std::string reduction = m.info("exec.reduction"); !reduction.empty()) {
    out += " reduction " + reduction + ",";
  }
  out += " " + std::to_string(m.counter(kMetricCandidatePairs)) +
         " candidates in " + std::to_string(m.counter(kMetricStreamBatches)) +
         " batches, live high-water " +
         std::to_string(m.counter(kMetricStreamHighWater)) + " candidates\n";
  // Standing-ingest runs (pddserve) carry the exec.ingest.* family;
  // batch runs don't.
  if (m.counters().count(kMetricIngestArrivals) > 0) {
    out += "\n## Standing ingest\n\n";
    out += "- arrivals: " + std::to_string(m.counter(kMetricIngestArrivals)) +
           " (" + std::to_string(m.counter(kMetricIngestAdmitted)) +
           " admitted, " + std::to_string(m.counter(kMetricIngestDropped)) +
           " queue drops, " +
           std::to_string(m.counter(kMetricIngestDuplicateIds)) +
           " duplicate ids, " + std::to_string(m.counter(kMetricIngestInvalid)) +
           " invalid, " +
           std::to_string(m.counter(kMetricIngestRejectedCapacity)) +
           " beyond capacity)\n";
    out += "- queue: capacity " +
           std::to_string(m.counter(kMetricIngestQueueCapacity)) +
           ", high-water " +
           std::to_string(static_cast<uint64_t>(
               m.gauge(kGaugeIngestQueueHighWater))) +
           ", final depth " +
           std::to_string(static_cast<uint64_t>(
               m.gauge(kGaugeIngestQueueDepth))) + "\n";
    if (m.counter(kMetricIngestCacheSnapshots) > 0 ||
        m.counter(kMetricIngestIndexBuilds) > 0) {
      out += "- maintenance: " +
             std::to_string(m.counter(kMetricIngestCacheSnapshots)) +
             " cache snapshots, " +
             std::to_string(m.counter(kMetricIngestIndexBuilds)) +
             " index builds\n";
    }
    if (const LogHistogram* lat =
            m.histogram(kMetricIngestAdmitToDecideMicros);
        lat != nullptr && lat->count() > 0) {
      out += "- admit-to-decide latency (us): p50 " +
             std::to_string(lat->Quantile(0.50)) + ", p95 " +
             std::to_string(lat->Quantile(0.95)) + ", p99 " +
             std::to_string(lat->Quantile(0.99)) + ", max " +
             std::to_string(lat->max()) + " over " +
             std::to_string(lat->count()) + " tuples\n";
    }
  }
  return out;
}

std::string RenderIndexStats(const RunTelemetry& telemetry) {
  const MetricsRegistry& m = telemetry.metrics;
  std::string out;
  if (m.counter("exec.index.records") != 0 ||
      m.counter("exec.index.bytes") != 0) {
    out += "decision index: " + std::to_string(m.counter("exec.index.records")) +
           " records, " + std::to_string(m.counter("exec.index.pairs")) +
           " pairs, " + std::to_string(m.counter("exec.index.clusters")) +
           " clusters, " + std::to_string(m.counter("exec.index.bytes")) +
           " bytes (" + FormatDouble(m.gauge("exec.index.bytes_per_pair"), 2) +
           " bytes/pair)\n";
  }
  if (double seconds = m.gauge("time.index.build_seconds"); seconds > 0.0) {
    out += "  build: " + FormatDouble(seconds, 4) + " s\n";
  }
  if (double rate = m.gauge("time.index.point_queries_per_sec"); rate > 0.0) {
    out += "  point queries: " +
           std::to_string(m.counter("exec.index.point_queries")) + " at " +
           FormatDouble(rate / 1e6, 2) + " M/s\n";
  }
  if (double rate = m.gauge("time.index.membership_queries_per_sec");
      rate > 0.0) {
    out += "  membership queries: " +
           std::to_string(m.counter("exec.index.membership_queries")) +
           " at " + FormatDouble(rate / 1e6, 2) + " M/s\n";
  }
  return out;
}

}  // namespace pdd
