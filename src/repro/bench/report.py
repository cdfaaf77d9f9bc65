"""Report formatting: paper-vs-measured tables and timeline series.

Every benchmark writes a plain-text report under ``benchmarks/results/``
so the regenerated rows/series survive pytest's output capture; the
same text is printed for ``-s`` runs. EXPERIMENTS.md indexes the
reports against the paper's tables and figures.

Snapshots are *rows x metrics*: :data:`SNAPSHOT_KINDS` says, per
``schema`` string, how a payload flattens into labelled rows and which
metric is a wall-time floor; :func:`gate` and :func:`delta` are the
only readers (see docs/OBSERVABILITY.md § Snapshots).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs.metrics import render_rows

__all__ = [
    "format_table",
    "format_series",
    "write_report",
    "results_dir",
    "write_bench_snapshot",
    "snapshot_text",
    "bench_snapshot_payload",
    "DEFAULT_TOLERANCE",
    "SNAPSHOT_KINDS",
    "read_snapshot",
    "gate",
    "delta",
]


def results_dir() -> str:
    """benchmarks/results/ next to the benchmark files."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__))))
    path = os.path.join(here, "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    note: str = "",
) -> str:
    """Fixed-width table with a title and an optional footnote."""
    return render_rows(headers, rows, title=title) + (f"\n{note}\n" if note else "")


def format_series(
    title: str,
    series: Sequence[Tuple[float, float]],
    time_unit: str = "ms",
    value_unit: str = "tx/s",
    markers: Sequence[Tuple[float, str]] = (),
    width: int = 60,
) -> str:
    """An ASCII timeline plot (the figures' throughput-over-time)."""
    if not series:
        return f"{title}\n(empty series)\n"
    scale = {"ms": 1e3, "us": 1e6, "s": 1.0}[time_unit]
    peak = max(value for _t, value in series) or 1.0
    lines = [title, "=" * len(title)]
    marker_map = {}
    for when, label in markers:
        # Attach each marker to the closest sample.
        closest = min(range(len(series)), key=lambda i: abs(series[i][0] - when))
        marker_map.setdefault(closest, []).append(label)
    for index, (when, value) in enumerate(series):
        bar = "#" * int(round(width * value / peak))
        annotation = ""
        if index in marker_map:
            annotation = "   <-- " + ", ".join(marker_map[index])
        lines.append(
            f"{when * scale:8.2f} {time_unit} |{bar:<{width}}| "
            f"{value:12.0f} {value_unit}{annotation}"
        )
    return "\n".join(lines) + "\n"


def write_report(name: str, text: str) -> str:
    """Persist (and echo) one benchmark's report; returns the path."""
    path = os.path.join(results_dir(), f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text)
    print(f"\n{text}\n[report written to {path}]")
    return path


def bench_snapshot_payload(result, obs=None) -> Dict[str, Any]:
    """JSON-friendly snapshot of one steady-state run.

    Combines the harness-level numbers with flight-recorder derivations
    when *obs* carries flight records. Every figure is virtual-time —
    nothing here reads a wall clock, so a re-run with the same seed
    reproduces the snapshot byte for byte.
    """
    payload: Dict[str, Any] = {
        "schema": "steady/1",
        "protocol": result.protocol,
        "workload": result.workload,
        "duration_s": result.duration,
        "commits": result.commits,
        "aborts": result.aborts,
        "abort_rate": round(result.abort_rate, 6),
        "throughput_tps": round(result.throughput, 2),
        "p50_latency_us": round(result.p50_latency * 1e6, 3),
        "p99_latency_us": round(result.p99_latency * 1e6, 3),
    }
    if obs is not None and getattr(obs.flight, "attempts", None):
        from repro.obs.report import (
            check_log_write_claim,
            from_obs,
            phase_latency_rows,
            verb_accounting_rows,
        )

        run = from_obs(obs)
        payload["phase_latency_us"] = {
            f"{protocol}/{phase}": {
                "n": n, "mean": float(mean), "p50": float(p50),
                "p90": float(p90), "p99": float(p99),
            }
            for protocol, phase, n, mean, p50, p90, p99 in phase_latency_rows(run)
        }
        payload["verbs_per_commit"] = {
            f"{protocol}/{phase}/{kind}": float(per_commit)
            for protocol, phase, kind, _cat, _total, per_commit, _p50, _p99
            in verb_accounting_rows(run)
        }
        payload["log_write_claim"] = [
            {
                "protocol": claim["protocol"],
                "formula": claim["formula"],
                "checked": claim["checked"],
                "violations": claim["violations"],
                "ok": claim["ok"],
                "mean_log_writes": round(claim["mean_log_writes"], 4),
                "mean_writes": round(claim["mean_writes"], 4),
            }
            for claim in check_log_write_claim(run)
        ]
    return payload


def snapshot_text(payload: Dict[str, Any]) -> str:
    """A snapshot's bytes: sorted keys so every interpreter agrees."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_bench_snapshot(name: str, payload: Dict[str, Any]) -> str:
    """Write ``BENCH_<name>.json`` under benchmarks/results/; returns path."""
    path = os.path.join(results_dir(), f"BENCH_{name}.json")
    with open(path, "w") as handle:
        handle.write(snapshot_text(payload))
    print(f"[snapshot written to {path}]")
    return path


# -- snapshots: kinds, gate, delta --------------------------------------------

#: Fractional drift the kernel floor allows when neither the caller nor
#: the baseline's own ``tolerance`` field says otherwise. ±25% absorbs
#: runner noise on the wall-clock rows; a real regression — an
#: accidental O(n) scan in the dispatch loop, say — moves a number far
#: more than that.
DEFAULT_TOLERANCE = 0.25


class Metric(NamedTuple):
    """One column of a snapshot row: where it lives, how it reads, and
    whether it is a wall-time ``floor`` the gate holds at the tolerance
    (every other column is display only)."""

    key: str
    label: str
    floor: bool = False
    fmt: str = ",.1f"


Row = Tuple[str, str, Dict[str, Any]]  # (group, row label, metric values)


def _fleet_rows(payload: Dict[str, Any]) -> Iterator[Row]:
    for name, entry in payload.get("fleets", {}).items():
        yield name, name, entry


def _curve_rows(payload: Dict[str, Any]) -> Iterator[Row]:
    for label, curve in payload.get("curves", {}).items():
        for point in curve.get("points", []):
            yield label, f"{label} @ {point['offered_tps']:,.0f} tps", point


def _steady_rows(payload: Dict[str, Any]) -> Iterator[Row]:
    yield "run", "run", payload


_POINT = (
    Metric("achieved_tps", "achieved", fmt=",.0f"),
    Metric("co_p50_us", "co p50 (us)"),
    Metric("co_p99_us", "co p99 (us)"),
    Metric("abort_rate", "abort rate", fmt=".4f"),
    Metric("commits", "commits"),
)

#: ``schema`` string -> (payload -> rows, the metrics of one row). Only
#: wall time has a floor. The virtual-time kinds are seeded and exact:
#: their committed numbers are pinned by the golden
#: (``tests/integration/golden``), never held within a tolerance.
SNAPSHOT_KINDS = {
    "kernel-perf/1": (
        _fleet_rows,
        (
            Metric("events_per_sec", "events/sec", floor=True, fmt=",.0f"),
            Metric("wall_us_per_event", "us/event"),
            Metric("steps", "steps"),
        ),
    ),
    "load/1": (_curve_rows, _POINT),
    "contention/1": (_curve_rows, _POINT),
    "steady/1": (
        _steady_rows,
        (
            Metric("throughput_tps", "throughput (tps)", fmt=",.0f"),
            Metric("p50_latency_us", "p50 (us)"),
            Metric("p99_latency_us", "p99 (us)"),
            Metric("abort_rate", "abort rate", fmt=".4f"),
            Metric("commits", "commits"),
            Metric("aborts", "aborts"),
        ),
    ),
}


def _kind(*payloads: Dict[str, Any]):
    """(name, flatten, metrics) of the first payload that says its kind;
    snapshots older than the ``schema`` field are steady-state ones."""
    schema = next((p["schema"] for p in payloads if "schema" in p), "steady/1")
    if schema not in SNAPSHOT_KINDS:
        raise ValueError(
            f"unknown snapshot schema {schema!r}; known: {sorted(SNAPSHOT_KINDS)}"
        )
    return (schema.split("/")[0], *SNAPSHOT_KINDS[schema])


def read_snapshot(path, schema: str, regenerate: str) -> Dict[str, Any]:
    """A committed snapshot or pin of kind *schema*. A missing file, or
    one of another schema, is an error naming *regenerate*, the command
    that writes it — never a cue to write a fresh one."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"{path} is missing; write it with `{regenerate}`") from None
    if payload.get("schema") != schema:
        raise ValueError(
            f"{path} has schema {payload.get('schema')!r}, this checkout "
            f"reads {schema!r}; regenerate it with `{regenerate}`"
        )
    return payload


def gate(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: Optional[float] = None,
) -> List[str]:
    """Wall-time regression check; returns failure messages (empty =
    pass).

    Every baseline row must exist in *current*, and a ``floor`` metric
    must not fall below ``baseline * (1 - tolerance)``; faster runs
    never fail (re-baseline by committing the new snapshot).
    *tolerance* defaults to the baseline's own ``tolerance`` field. A
    kind without a floor is refused: its numbers are virtual and exact.
    """
    name, flatten, metrics = _kind(baseline)
    floors = [metric for metric in metrics if metric.floor]
    if not floors:
        raise ValueError(
            f"{name} snapshots hold virtual-time numbers only, which are "
            "pinned exactly (tests/integration/golden), not gated"
        )
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    have = {row: entry for _group, row, entry in flatten(current)}
    groups = {group for group, _row, _entry in flatten(current)}
    failures: List[str] = []
    for group, row, base in flatten(baseline):
        entry = have.get(row)
        if entry is None:
            missing = f"{row if group in groups else group}: missing from current run"
            if missing not in failures:
                failures.append(missing)
            continue
        for metric in floors:
            was, now = base.get(metric.key), entry.get(metric.key)
            if was is None:
                continue
            if now is None:
                failures.append(f"{row}: {metric.label} missing from current run")
                continue
            bound = was * (1.0 - tolerance)
            if now < bound:
                failures.append(
                    f"{row}: {metric.label} {now:{metric.fmt}} < floor "
                    f"{bound:{metric.fmt}} (baseline {was:{metric.fmt}}, "
                    f"tolerance {tolerance:.0%})"
                )
    return failures


def _delta_cell(before: Any, after: Any) -> str:
    try:
        before_f, after_f = float(before), float(after)
    except (TypeError, ValueError):
        return ""
    if before_f == 0.0:
        return "n/a" if after_f else "0%"
    return f"{100.0 * (after_f - before_f) / before_f:+.1f}%"


def delta(
    before: Dict[str, Any],
    after: Dict[str, Any],
    label_before: str = "A",
    label_after: str = "B",
) -> str:
    """Delta table between two snapshots of any kind: one line per
    (row, metric) either side records and the change relative to
    *before*. A display tool: it gates nothing."""
    name, flatten, metrics = _kind(before, after)
    old = {row: entry for _group, row, entry in flatten(before)}
    new = {row: entry for _group, row, entry in flatten(after)}
    lines = []
    for row in dict.fromkeys([*old, *new]):
        for metric in metrics:
            was = old.get(row, {}).get(metric.key)
            now = new.get(row, {}).get(metric.key)
            if was is None and now is None:
                continue
            lines.append(
                (
                    f"{row} {metric.label}",
                    "-" if was is None else was,
                    "-" if now is None else now,
                    _delta_cell(was, now),
                )
            )
    return render_rows(
        ["metric", label_before, label_after, "delta"],
        lines,
        title=f"{name} snapshot delta",
    )
