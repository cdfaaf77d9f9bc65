#!/usr/bin/env python3
"""Compare two ledger result files with the benchmark's own bounds.

``python3 ledger/compare.py A.json B.json`` prints one row per
(end-to-end metric, workload): both values, the ratio B / A with A as
its base, and a verdict:

* ``ok``         B is no worse than A by more than the metric's bound;
* ``regressed``  B is worse than A by more than the bound;
* ``improved``   B is better than A by more than the bound;
* ``unresolved`` a host metric whose repeats' interquartile spread (on
  either side) is wider than its bound: neither unchanged nor changed;
* ``differs``    an exact (virtual-time or count) metric that moved
  within its bound. Two runs of the same code and seed must not show it.

Exact metrics are compared exactly; the per-layer ones that differ are
listed after the table. The exit status is 1 on any regression or any
increase in ``failure_rate``, and 2 without a table when the two files
were not made the same way (schema, seed, scale, repeats).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

if __name__ == "__main__":
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from ledger import metrics  # noqa: E402


def allowance(metric: metrics.Metric, base: float) -> float:
    """How far the metric may worsen from *base* before it regressed."""
    relative = abs(base) * metric.bound if metric.bound is not None else 0.0
    return max(relative, metric.bound_abs or 0.0)


def verdict(metric: metrics.Metric, a: dict, b: dict) -> str:
    base, new = a["value"], b["value"]
    if metric.exact and base == new:
        return "ok"
    worse = new - base if metric.better == "lower" else base - new
    slack = allowance(metric, base)
    if not metric.exact and metric.bound is not None:
        if max(a.get("spread", 0.0), b.get("spread", 0.0)) > metric.bound:
            return "unresolved"
    if worse > slack:
        return "regressed"
    if -worse > slack:
        return "improved"
    return "differs" if metric.exact else "ok"


def compare(a: dict, b: dict) -> Tuple[List[tuple], List[str]]:
    """Rows for the end-to-end table and the exact per-layer mismatches."""
    rows: List[tuple] = []
    mismatches: List[str] = []
    for workload in metrics.WORKLOADS:
        left = a["workloads"].get(workload, {}).get("metrics")
        right = b["workloads"].get(workload, {}).get("metrics")
        if left is None or right is None:
            rows.append((workload, "(workload)", None, None, "regressed"))
            continue
        for metric in metrics.END_TO_END:
            if workload in metric.on and metric.name in left and metric.name in right:
                rows.append((workload, metric, left[metric.name], right[metric.name],
                             verdict(metric, left[metric.name], right[metric.name])))
        for metric in metrics.PER_LAYER:
            if metric.exact and metric.name in left and metric.name in right:
                if left[metric.name]["value"] != right[metric.name]["value"]:
                    mismatches.append(
                        f"{workload}: {metric.name} {left[metric.name]['value']!r} -> "
                        f"{right[metric.name]['value']!r}"
                    )
    return rows, mismatches


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    for label, payload in zip(argv, (a, b)):
        print(f"{label}: schema {payload['schema']} sha {payload['git_sha'][:12]} "
              f"python {payload['python']} nproc {payload['nproc']} seed {payload['seed']} "
              f"scale {payload['scale']} repeats {payload['repeats']}")
    for key in ("schema", "seed", "scale", "repeats"):
        if a[key] != b[key]:
            print(f"not comparable: {key} is {a[key]!r} in {argv[0]} and {b[key]!r} in {argv[1]}",
                  file=sys.stderr)
            return 2
    rows, mismatches = compare(a, b)
    print(f"\n{'workload':20s} {'metric':20s} {'A':>14s} {'B':>14s} {'B/A':>8s} "
          f"{'bound':>10s}  verdict")
    bad = 0
    for workload, metric, left, right, result in rows:
        if left is None:
            print(f"{workload:20s} missing from one side{'':45s}  {result}")
            bad += 1
            continue
        base, new = left["value"], right["value"]
        ratio = f"{new / base:8.4f}" if base else f"{'-':>8s}"
        bound = (f"{100 * metric.bound:.0f}%" if metric.bound is not None
                 else f"+{metric.bound_abs:g}")
        if metric.exact:
            bound += " exact"
        print(f"{workload:20s} {metric.name:20s} {base:14.6g} {new:14.6g} {ratio} "
              f"{bound:>10s}  {result}")
        if result == "regressed" or (metric.name == "failure_rate" and new > base):
            bad += 1
    exact_rows = [row for row in rows if row[2] is not None and row[1].exact]
    moved = [row for row in exact_rows if row[2]["value"] != row[3]["value"]]
    print(f"\nexact end-to-end metrics identical: {len(exact_rows) - len(moved)} of "
          f"{len(exact_rows)}")
    print(f"exact per-layer metrics that differ: {len(mismatches)}")
    for text in mismatches:
        print(f"  {text}")
    print(f"\n{bad} regression(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
