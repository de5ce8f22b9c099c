#!/usr/bin/env python3
"""Step-count trend gate for the BENCH_*.json artifacts.

Compares the `essential_steps_per_op` metrics of the current benchmark run
against the previous CI run's uploaded `bench-json` artifact, and fails
(exit 1) when any configuration regressed beyond the tolerance.

Only step counts are gated: they are schedule-driven and reproducible on
shared CI runners, unlike wall-clock (mops/ns) columns, which this script
deliberately ignores (see EXPERIMENTS.md).

Matching is schema-agnostic: each entry of a file's "configs" array is
flattened, every non-float scalar field (layout, reclaimer, workload,
threads, ...) becomes part of the configuration's identity, and
every field named `essential_steps_per_op` (at any nesting depth, e.g. the
per-phase objects of BENCH_memory_layout.json) is compared. Provenance
fields (IGNORED_FIELDS below: git SHA, hostname, timestamps, toolchain
strings) are excluded from the identity — they change on every run, so
folding them in would make every configuration look brand-new and silently
disable the gate. Configurations present on only one side — new
benchmarks, renamed axes — are reported and skipped, so evolving a bench
never fails the gate by itself.

Informational metrics (the E14 resilience gauges `retire_backlog` /
`quarantine_depth`) are REPORTED but never gated: they count survivor
churn during a wall-clock stall window, so their magnitude tracks runner
speed. They are surfaced for the log reader only.

Usage:
    bench_trend.py --current DIR --previous DIR [--tolerance 0.10]

Missing --previous directory (first run, expired artifact) is not an
error: the script reports "no baseline" and exits 0.
"""

import argparse
import glob
import json
import os
import sys

METRIC = "essential_steps_per_op"

# Informational metrics: deltas are printed, never gated. Matched by leaf
# name BEFORE the identity branch — they are emitted as JSON integers,
# which would otherwise be swallowed into the configuration identity and
# mark every run [new].
INFO_METRICS = {"retire_backlog", "quarantine_depth"}

# Minimum absolute delta worth printing for an informational metric (both
# are counts).
INFO_REPORT_DELTA = 1.0

# Provenance fields: non-float scalars that describe the RUN, not the
# configuration. Excluded from identity by leaf name — a run-unique value
# in the identity would mark every configuration [new]/[gone] and the gate
# would never compare anything.
IGNORED_FIELDS = {
    "git_sha", "sha", "commit", "branch",
    "hostname", "host", "runner",
    "timestamp", "date", "time", "started_at",
    "compiler", "compiler_version", "build_type", "cmake_version",
    "os", "kernel", "cpu_model",
}

# Ignore regressions smaller than this many absolute steps/op: near-zero
# baselines (a workload at ~0.2 steps/op) would otherwise
# turn scheduling jitter into huge relative "regressions".
ABS_SLACK = 0.05


def flatten(obj, prefix=""):
    """Yield (dotted_path, scalar_value) pairs of a nested JSON object."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from flatten(value, f"{prefix}{key}.")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from flatten(value, f"{prefix}{i}.")
    else:
        yield prefix[:-1], obj


def config_table(path):
    """Map identity-key -> {metric_path: value} for one BENCH_*.json file."""
    with open(path) as f:
        doc = json.load(f)
    table = {}
    for config in doc.get("configs", []):
        identity = []
        metrics = {}
        info = {}
        for field, value in flatten(config):
            leaf = field.rsplit(".", 1)[-1]
            if leaf == METRIC:
                metrics[field] = float(value)
            elif leaf in INFO_METRICS:
                info[field] = float(value)
            elif leaf in IGNORED_FIELDS:
                continue
            elif isinstance(value, (str, bool, int)):
                identity.append((field, value))
        table[tuple(sorted(identity))] = (metrics, info)
    return table


def describe(identity):
    return " ".join(f"{field.rsplit('.', 1)[-1]}={value}"
                    for field, value in identity)


def compare_file(name, current_path, previous_path, tolerance):
    current = config_table(current_path)
    previous = config_table(previous_path)
    regressions = []
    for identity, (metrics, info) in current.items():
        base = previous.get(identity)
        if base is None:
            print(f"  [new]  {name}: {describe(identity)}")
            continue
        base_metrics, base_info = base
        for field, value in metrics.items():
            old = base_metrics.get(field)
            if old is None:
                continue
            if value > old * (1.0 + tolerance) and value - old > ABS_SLACK:
                regressions.append(
                    f"{name}: {describe(identity)} [{field}] "
                    f"{old:.3f} -> {value:.3f} "
                    f"(+{100.0 * (value / old - 1.0):.1f}%)")
        for field, value in info.items():
            old = base_info.get(field)
            if old is None or abs(value - old) < INFO_REPORT_DELTA:
                continue
            print(f"  [info] {name}: {describe(identity)} [{field}] "
                  f"{old:.3f} -> {value:.3f} ({value - old:+.3f}, not gated)")
    for identity in previous:
        if identity not in current:
            print(f"  [gone] {name}: {describe(identity)}")
    return regressions


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", required=True,
                    help="directory holding this run's BENCH_*.json")
    ap.add_argument("--previous", required=True,
                    help="directory holding the previous run's BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed relative steps/op growth (default 0.10)")
    args = ap.parse_args()

    current_files = sorted(glob.glob(os.path.join(args.current,
                                                  "BENCH_*.json")))
    if not current_files:
        print(f"bench_trend: no BENCH_*.json under {args.current}",
              file=sys.stderr)
        return 1
    if not os.path.isdir(args.previous):
        print(f"bench_trend: no baseline directory {args.previous} "
              "(first run or expired artifact) — nothing to compare")
        return 0

    regressions = []
    for current_path in current_files:
        name = os.path.basename(current_path)
        previous_path = os.path.join(args.previous, name)
        if not os.path.exists(previous_path):
            print(f"  [new]  {name}: no baseline file — skipped")
            continue
        regressions += compare_file(name, current_path, previous_path,
                                    args.tolerance)

    if regressions:
        print(f"\nbench_trend: {len(regressions)} steps/op regression(s) "
              f"beyond {100.0 * args.tolerance:.0f}%:")
        for line in regressions:
            print(f"  REGRESSION {line}")
        return 1
    print(f"\nbench_trend: all {METRIC} metrics within "
          f"{100.0 * args.tolerance:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
