#!/usr/bin/env python3
"""Validate and diff pdd.telemetry.v1 sidecars (``pddcli --metrics``).

Subcommands:

* ``validate FILE...`` -- structural check of each sidecar: schema tag,
  section types, sorted key order in every object section (the C++
  exporters iterate sorted maps; an unsorted file means a export-path
  regression), non-negative integer counters, well-formed histograms
  (bucket counts sum to ``count``, monotone bucket upper bounds, p50 <=
  p95 <= p99 <= max), and a well-typed span tree. Sidecars carrying the
  standing-ingest family additionally get the accounting invariant
  (``exec.ingest.arrivals`` equals admitted + duplicate_ids + invalid +
  rejected_capacity + dropped + queue_depth), the queue bound
  (high-water <= capacity), and the namespace contract (ingest
  latencies live under ``time.ingest.``, counts under
  ``exec.ingest.``).

* ``diff A B`` -- compare the identity-metric subset of two sidecars:
  every counter/gauge/histogram/info entry whose name does NOT start
  with ``exec.`` or ``time.``. Identity metrics are the repo's
  determinism promise made machine-checkable: they must be
  byte-identical across serial/pooled/cached runs of one plan + input,
  while ``exec.*`` (execution shape) and ``time.*`` (wall clock)
  legitimately vary. Spans are never diffed.

Exit status: 0 clean, 1 validation/diff failure, 2 usage/IO error.
"""

import json
import sys

SCHEMA = "pdd.telemetry.v1"
NONDETERMINISTIC_PREFIXES = ("exec.", "time.")


def fail(errors, message):
    errors.append(message)


def check_sorted(errors, where, keys):
    if list(keys) != sorted(keys):
        fail(errors, f"{where}: keys not in sorted order")


def check_histogram(errors, name, hist):
    where = f"histograms[{name}]"
    if not isinstance(hist, dict):
        fail(errors, f"{where}: not an object")
        return
    for stat in ("count", "sum", "min", "max", "p50", "p95", "p99"):
        value = hist.get(stat)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            fail(errors, f"{where}.{stat}: not a non-negative integer")
            return
    buckets = hist.get("buckets")
    if not isinstance(buckets, list):
        fail(errors, f"{where}.buckets: not a list")
        return
    total = 0
    last_upper = -1
    for pair in buckets:
        if (not isinstance(pair, list) or len(pair) != 2 or
                not all(isinstance(v, int) and not isinstance(v, bool)
                        and v >= 0 for v in pair)):
            fail(errors, f"{where}.buckets: malformed [upper, count] pair")
            return
        upper, count = pair
        if upper <= last_upper:
            fail(errors, f"{where}.buckets: upper bounds not increasing")
        if count == 0:
            fail(errors, f"{where}.buckets: empty bucket exported")
        last_upper = upper
        total += count
    if total != hist["count"]:
        fail(errors, f"{where}: bucket counts sum to {total}, "
                     f"count says {hist['count']}")
    if hist["count"] > 0:
        if hist["min"] > hist["max"]:
            fail(errors, f"{where}: min > max")
        if not hist["p50"] <= hist["p95"] <= hist["p99"]:
            fail(errors, f"{where}: quantiles not monotone")
        if hist["p99"] > 0 and last_upper >= 0 and hist["p99"] > last_upper:
            fail(errors, f"{where}: p99 beyond last bucket upper bound")


def check_span(errors, where, span):
    if not isinstance(span, dict):
        fail(errors, f"{where}: not an object")
        return
    if not isinstance(span.get("name"), str):
        fail(errors, f"{where}.name: not a string")
    if not isinstance(span.get("seconds"), (int, float)):
        fail(errors, f"{where}.seconds: not a number")
    counts = span.get("counts")
    if not isinstance(counts, dict):
        fail(errors, f"{where}.counts: not an object")
    else:
        check_sorted(errors, f"{where}.counts", counts.keys())
        for key, value in counts.items():
            if not isinstance(value, int) or isinstance(value, bool) or \
                    value < 0:
                fail(errors, f"{where}.counts[{key}]: not a non-negative "
                             f"integer")
    children = span.get("children")
    if not isinstance(children, list):
        fail(errors, f"{where}.children: not a list")
    else:
        for i, child in enumerate(children):
            check_span(errors, f"{where}.children[{i}]", child)


def check_ingest(errors, doc):
    """Standing-ingest family invariants (exec.ingest.* present)."""
    counters = doc.get("counters", {})
    gauges = doc.get("gauges", {})
    histograms = doc.get("histograms", {})
    ingest_keys = [key for section in (counters, gauges, histograms)
                   for key in section if key.startswith("exec.ingest.")]
    if not ingest_keys:
        return

    def count(name):
        value = counters.get(f"exec.ingest.{name}", 0)
        return value if isinstance(value, int) and \
            not isinstance(value, bool) else 0

    def gauge(name):
        value = gauges.get(f"exec.ingest.{name}")
        return value if isinstance(value, (int, float)) and \
            not isinstance(value, bool) else None

    # Every arrival is accounted for exactly once: admitted into the
    # standing relation, rejected by admission (dup/invalid/capacity),
    # dropped at the queue, or still queued.
    depth = gauge("queue_depth")
    accounted = (count("admitted") + count("duplicate_ids") +
                 count("invalid") + count("rejected_capacity") +
                 count("dropped") + (int(depth) if depth is not None else 0))
    if count("arrivals") != accounted:
        fail(errors, f"ingest accounting: arrivals {count('arrivals')} != "
                     f"admitted + duplicate_ids + invalid + "
                     f"rejected_capacity + dropped + queue_depth "
                     f"({accounted})")
    high_water = gauge("queue_high_water")
    capacity = counters.get("exec.ingest.queue_capacity")
    if high_water is not None and isinstance(capacity, int) and \
            not isinstance(capacity, bool) and high_water > capacity:
        fail(errors, f"ingest queue: high_water {high_water} exceeds "
                     f"capacity {capacity}")
    # Namespace contract: latency distributions are wall clock and live
    # under time.ingest.; exec.ingest. entries are shape counts/gauges.
    for name in histograms:
        if name.startswith("exec.ingest."):
            fail(errors, f"histograms[{name}]: ingest latency histograms "
                         f"belong under time.ingest., not exec.ingest.")
    for section_name, section in (("counters", counters), ("gauges", gauges)):
        for name in section:
            if name.startswith("time.ingest."):
                fail(errors, f"{section_name}[{name}]: time.ingest. is "
                             f"reserved for latency histograms")


def validate(doc):
    errors = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != SCHEMA:
        fail(errors, f"schema: want {SCHEMA}, got {doc.get('schema')!r}")
    for section, value_check in (
            ("counters", lambda v: isinstance(v, int) and
                not isinstance(v, bool) and v >= 0),
            ("gauges", lambda v: v is None or (
                isinstance(v, (int, float)) and not isinstance(v, bool))),
            ("info", lambda v: isinstance(v, str))):
        body = doc.get(section)
        if not isinstance(body, dict):
            fail(errors, f"{section}: missing or not an object")
            continue
        check_sorted(errors, section, body.keys())
        for key, value in body.items():
            if not value_check(value):
                fail(errors, f"{section}[{key}]: ill-typed value {value!r}")
    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        fail(errors, "histograms: missing or not an object")
    else:
        check_sorted(errors, "histograms", histograms.keys())
        for name, hist in histograms.items():
            check_histogram(errors, name, hist)
    if "spans" in doc:
        spans = doc["spans"]
        if not isinstance(spans, list):
            fail(errors, "spans: not a list")
        else:
            for i, span in enumerate(spans):
                check_span(errors, f"spans[{i}]", span)
    check_ingest(errors, doc)
    return errors


def is_identity(name):
    return not name.startswith(NONDETERMINISTIC_PREFIXES)


def identity_subset(doc):
    subset = {}
    for section in ("counters", "gauges", "histograms", "info"):
        subset[section] = {
            key: value for key, value in doc.get(section, {}).items()
            if is_identity(key)}
    return subset


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"telemetry_check: cannot read {path}: {error}",
              file=sys.stderr)
        sys.exit(2)


def main(argv):
    if len(argv) >= 2 and argv[0] == "validate":
        status = 0
        for path in argv[1:]:
            errors = validate(load(path))
            for error in errors:
                print(f"telemetry_check: {path}: {error}", file=sys.stderr)
                status = 1
            if not errors:
                print(f"telemetry_check: {path}: valid")
        return status
    if len(argv) == 3 and argv[0] == "diff":
        a, b = identity_subset(load(argv[1])), identity_subset(load(argv[2]))
        status = 0
        for section in ("counters", "gauges", "histograms", "info"):
            for key in sorted(a[section].keys() | b[section].keys()):
                left = a[section].get(key)
                right = b[section].get(key)
                if left != right:
                    print(f"telemetry_check: identity mismatch "
                          f"{section}[{key}]: {left!r} != {right!r}",
                          file=sys.stderr)
                    status = 1
        if status == 0:
            print(f"telemetry_check: identity metrics of {argv[1]} and "
                  f"{argv[2]} match")
        return status
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
