#!/usr/bin/env python3
"""Regression-gate bench metrics against committed baselines.

The benches emit machine-readable ``BENCH_*.json`` sidecars (pairs/sec,
batch timings, cache hit rates, stream high-water marks). CI archives
them per run; this script closes the loop by diffing the current run's
sidecars against the baselines committed in ``bench/baselines/`` and
failing on throughput regressions beyond a tolerance.

Sidecars are ``pdd.telemetry.v1`` documents (gauges/counters/info/
histograms sections, sorted keys — the schema ``pddcli --metrics``
writes). ``flatten`` merges gauges + counters + info (info ``"true"``/
``"false"`` strings become booleans) and per-histogram summary stats
back into the flat key space the classifier below operates on; legacy
flat sidecars pass through unchanged, so pre-migration baselines keep
comparing.

Metric classes (selected by key name):

* throughput  -- keys ending in ``_per_sec`` or containing ``speedup``
  (but ``columnar_speedup``): timing-derived and therefore machine- and
  run-dependent (a cache hit-vs-miss speedup swings 2x between quiet
  runs), so the default tolerance is generous (fail only when the
  current value drops more than ``--throughput-tolerance`` below
  baseline). The benches themselves gate the hard ratio floors
  (columnar >= scalar, hit >= 5x miss) in-process where both sides
  share one run's conditions.
* ratio       -- keys containing ``hit_rate``, count-derived and
  deterministic (a warm run's hit rate is exactly 1.0), and
  ``columnar_speedup``, the columnar over scalar decide rate of one
  process on one input: the tighter ``--ratio-tolerance`` applies, so
  losing the value memo or the fused derivation (which takes the
  ratio from about 4.6 to about 3.3) fails against the 4.85 floor.
* invariant   -- boolean keys containing ``identical``: must stay true
  (the benches also gate these themselves; this catches a silently
  skipped bench).

A gated (throughput, ratio or invariant) key the baseline has but the
current sidecar lacks is a regression that names the key: renaming or
dropping a metric must not silently remove its gate. Re-baseline with
``--update`` when a rename is deliberate.

Everything else (record counts, seconds, high-water marks) is
informational: counts are exact-gated inside the benches and wall
times are too noisy to gate here.

Usage:
  tools/bench_compare.py [--run-dir DIR] [--baselines DIR]
                         [--runner NAME] [--throughput-tolerance F]
                         [--ratio-tolerance F] [--update]

``--update`` rewrites the baselines from the current run (commit the
result when a deliberate perf change moves the floor).

``--runner NAME`` (or the ``BENCH_RUNNER`` environment variable)
selects a per-runner baseline family: baselines are read from
``bench/baselines/<NAME>/`` first, falling back to the shared root
files, and ``--update`` writes into the runner's directory. Absolute
throughput differs by an order of magnitude between a laptop and a CI
container; per-runner families let each machine gate against its own
floor instead of the weakest shared one.

A sidecar with no committed baseline is a hard failure (exit 3), not a
skip: a silently unbaselined bench is an ungated bench. Run with
``--update`` and commit the result to enroll it.

Exit status: 0 clean, 1 regression, 2 usage/IO error, 3 missing
baseline.
"""

import argparse
import json
import os
import pathlib
import sys


def classify(key, value):
    """Metric class for a sidecar entry, or None if informational."""
    if isinstance(value, bool):
        return "invariant" if "identical" in key else None
    if not isinstance(value, (int, float)):
        return None
    if key == "columnar_speedup" or "hit_rate" in key:
        return "ratio"
    if key.endswith("_per_sec") or "speedup" in key:
        return "throughput"
    return None


def flatten(doc):
    """Flat key space of a sidecar (telemetry.v1 or legacy flat)."""
    if not isinstance(doc, dict) or doc.get("schema") != "pdd.telemetry.v1":
        return doc
    flat = {}
    for section in ("counters", "gauges"):
        flat.update(doc.get(section, {}))
    for key, value in doc.get("info", {}).items():
        if value == "true":
            flat[key] = True
        elif value == "false":
            flat[key] = False
        else:
            flat[key] = value
    for name, hist in doc.get("histograms", {}).items():
        for stat in ("count", "sum", "min", "max", "p50", "p95", "p99"):
            if stat in hist:
                flat[f"{name}.{stat}"] = hist[stat]
    return flat


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench_compare: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(
        description="diff BENCH_*.json against committed baselines")
    parser.add_argument("--run-dir", default=".",
                        help="directory holding this run's BENCH_*.json")
    parser.add_argument("--baselines", default=None,
                        help="baseline directory (default: "
                             "<script>/../bench/baselines)")
    parser.add_argument("--throughput-tolerance", type=float, default=0.60,
                        help="allowed fractional drop for *_per_sec metrics "
                             "(default 0.60: fail below 40%% of baseline; "
                             "absolute throughput varies across runners)")
    parser.add_argument("--ratio-tolerance", type=float, default=0.25,
                        help="allowed fractional drop for deterministic "
                             "hit-rate metrics and columnar_speedup "
                             "(default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite baselines from the current run")
    parser.add_argument("--runner", default=os.environ.get("BENCH_RUNNER"),
                        help="per-runner baseline family: read baselines "
                             "from <baselines>/<runner>/ first (fall back "
                             "to the shared root files); --update writes "
                             "there (default: $BENCH_RUNNER)")
    args = parser.parse_args()

    run_dir = pathlib.Path(args.run_dir)
    baseline_dir = (pathlib.Path(args.baselines) if args.baselines else
                    pathlib.Path(__file__).resolve().parent.parent /
                    "bench" / "baselines")
    runner_dir = baseline_dir / args.runner if args.runner else None

    def baseline_for(name):
        """The baseline file for a sidecar: runner family first."""
        if runner_dir is not None and (runner_dir / name).exists():
            return runner_dir / name
        return baseline_dir / name

    run_files = sorted(run_dir.glob("BENCH_*.json"))
    if not run_files:
        print(f"bench_compare: no BENCH_*.json under {run_dir}",
              file=sys.stderr)
        return 2

    if args.update:
        update_dir = runner_dir if runner_dir is not None else baseline_dir
        update_dir.mkdir(parents=True, exist_ok=True)
        for run_file in run_files:
            target = update_dir / run_file.name
            target.write_text(json.dumps(load(run_file), indent=2) + "\n")
            print(f"bench_compare: baseline updated: {target}")
        return 0

    tolerances = {"throughput": args.throughput_tolerance,
                  "ratio": args.ratio_tolerance}
    regressions = []
    missing = []
    compared = 0
    for run_file in run_files:
        baseline_file = baseline_for(run_file.name)
        if not baseline_file.exists():
            print(f"bench_compare: missing baseline for {run_file.name} "
                  f"— run with --update to create one", file=sys.stderr)
            missing.append(run_file.name)
            continue
        current = flatten(load(run_file))
        baseline = flatten(load(baseline_file))
        for key, base_value in sorted(baseline.items()):
            metric_class = classify(key, base_value)
            if metric_class is None:
                continue
            compared += 1
            name = f"{run_file.name}:{key}"
            if key not in current:
                print(f"  {'REGRESSION':>10}  {name}: missing from the "
                      f"current sidecar")
                regressions.append(f"{name}: gated {metric_class} key "
                                   f"missing from the current sidecar")
                continue
            value = current[key]
            if metric_class == "invariant":
                if value is not True:
                    regressions.append(f"{name}: expected true, got {value}")
                continue
            floor = base_value * (1.0 - tolerances[metric_class])
            delta = ((value - base_value) / base_value * 100.0
                     if base_value else 0.0)
            marker = "REGRESSION" if value < floor else "ok"
            print(f"  {marker:>10}  {name}: {value:.6g} vs baseline "
                  f"{base_value:.6g} ({delta:+.1f}%)")
            if value < floor:
                regressions.append(
                    f"{name}: {value:.6g} fell below {floor:.6g} "
                    f"({delta:+.1f}% vs baseline, tolerance "
                    f"{tolerances[metric_class]:.0%})")

    print(f"bench_compare: {compared} metrics compared against "
          f"{baseline_dir}")
    if regressions:
        print("bench_compare: REGRESSIONS:", file=sys.stderr)
        for regression in regressions:
            print(f"  {regression}", file=sys.stderr)
        return 1
    if missing:
        print(f"bench_compare: {len(missing)} sidecar(s) without a "
              f"committed baseline", file=sys.stderr)
        return 3
    if compared == 0:
        print("bench_compare: nothing compared — missing baselines?",
              file=sys.stderr)
        return 2
    print("bench_compare: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
