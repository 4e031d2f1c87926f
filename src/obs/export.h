// Telemetry exporters: every machine- and human-readable rendering of
// a RunTelemetry lives here, so there is exactly one code path per
// format and all of them iterate the registry's sorted maps — no
// export ever observes unordered iteration (pddlint's rule holds with
// zero allowlist entries). The obs layer only writes: sidecars are
// read back and validated in Python (tools/telemetry_check.py,
// tools/bench_compare.py).
//
//   TelemetryToJson         schema-versioned JSON sidecar (sorted
//                           keys; superseded bench_util.h's ad-hoc
//                           BenchJsonWriter format — bench sidecars
//                           and `pddcli --metrics` emit this schema)
//   IdentityMetricsJson     the identity subset only (no time.*/
//                           exec.*, no spans): the byte-comparable
//                           form the determinism gates diff
//   TelemetryToPrometheus   Prometheus text exposition
//   WriteTelemetrySidecar   one of the two above, replacing a file
//                           atomically (`--metrics FILE`)
//   RenderExecutionStats    the Markdown execution-statistics report
//                           (`--stats` on stderr)

#ifndef PDD_OBS_EXPORT_H_
#define PDD_OBS_EXPORT_H_

#include <string>
#include <string_view>

#include "obs/run_telemetry.h"
#include "util/status.h"

namespace pdd {

/// Schema-versioned JSON export: `schema`, `counters`, `gauges`,
/// `histograms` (count/sum/min/max, bucket-resolution p50/p95/p99 and
/// the non-empty [upper_bound, count] buckets), `info` and the nested
/// `spans` tree. Every object level is emitted in sorted key order;
/// spans keep their (deterministic) insertion order.
std::string TelemetryToJson(const RunTelemetry& telemetry);

/// The identity-namespace subset of TelemetryToJson (drops every
/// time.* / exec.* metric and all spans). Byte-identical across
/// serial/pooled/cached runs of the same plan + input.
std::string IdentityMetricsJson(const RunTelemetry& telemetry);

/// Prometheus text exposition: counters, gauges, cumulative histogram
/// buckets (+Inf included) with _sum/_count, and infos as
/// `pdd_info{name=...,value=...} 1` series. Metric names are
/// dot→underscore sanitized and prefixed `pdd_`.
std::string TelemetryToPrometheus(const RunTelemetry& telemetry);

/// Replaces `path` with TelemetryToPrometheus(telemetry) when `format`
/// is "prom" and with TelemetryToJson(telemetry) otherwise, through
/// WriteFileAtomically: a symbolic link is written through, and a path
/// that is no regular file (a directory, /dev/null, a FIFO) is refused
/// with InvalidArgument before anything is created.
Status WriteTelemetrySidecar(const RunTelemetry& telemetry,
                             const std::string& path,
                             std::string_view format);

/// The Markdown execution-statistics report: the batch timing table
/// (pull / decide / commit seconds from the generate / drain / commit
/// spans, and the batch decide p50 and p99; "(no executor timings)"
/// for a hand-assembled result), decision-cache run and lifetime
/// counters when a cache was attached, and the candidate-stream drain
/// accounting, whose line names the reduction when the exec.reduction
/// info is set.
/// Reads the metric names of run_telemetry.h.
std::string RenderExecutionStats(const RunTelemetry& telemetry);

/// The decision-index diagnostics block (`pddquery` / `pddcli
/// index-build` stderr): records/pairs/clusters/bytes from the
/// `exec.index.*` counters, bytes/pair, build seconds and — when a
/// query sweep ran — point/membership query rates from the
/// `time.index.*` gauges. Renders only what is present, so build-only
/// and query-only registries both produce a coherent block.
std::string RenderIndexStats(const RunTelemetry& telemetry);

}  // namespace pdd

#endif  // PDD_OBS_EXPORT_H_
