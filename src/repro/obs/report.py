"""Evaluation reports derived from flight records and trace events.

This is the analysis layer over :mod:`repro.obs.flight` and the tracer:
it converts raw per-attempt records into the tables the paper's
evaluation prints —

* **per-phase latency percentiles** (exact, computed from the recorded
  phase segments rather than log-bucketed histograms),
* **round-trip / verb-count accounting per protocol**, including a
  machine check of the §4 claim that Pandora spends exactly f+1 log
  writes per committed transaction while FORD and the traditional
  scheme scale with the number of written objects,
* **abort attribution** (lock conflict vs validation failure vs
  application logic vs fault), plus PILL lock-event counts
  (steals, conflicts),
* **recovery timelines** (heartbeat-miss → link-revoke →
  log-region-read → roll-forward/back → truncate → notify with
  per-step durations).

Inputs come either live from an :class:`~repro.obs.Obs` (bench
harness) or from the JSONL export (``repro obs-report file.jsonl``);
both normalize into :class:`RunData`. Renderers produce an aligned
terminal report and a self-contained single-file HTML report.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.flight import FlightAttempt
from repro.obs.metrics import render_rows
from repro.protocol.zoo import ZOO
from repro.rdma.verbs import VERB_CATEGORIES
from repro.util.stats import percentile_of_sorted

__all__ = [
    "RunData",
    "from_obs",
    "load_jsonl",
    "phase_latency_rows",
    "verb_accounting_rows",
    "check_log_write_claim",
    "abort_attribution",
    "lock_event_counts",
    "recovery_timelines",
    "redetection_counts",
    "report_sections",
    "render_terminal",
    "render_html",
    "render_load_html",
    "print_report",
    "ABORT_CATEGORIES",
]

# Display order for phases (flight records may add "recover").
PHASE_ORDER = ("execute", "lock", "validate", "log", "commit", "unlock", "abort", "recover")

# Abort-attribution codes: reason string -> coarse category. The
# categories match the paper's discussion — lock conflicts (§3.1.2,
# what PILL stealing reduces), validation failures (§2.3 OCC), aborts
# the application asked for, and fault-induced outcomes (§3.2).
ABORT_CATEGORIES = {
    "lock_conflict": "lock-conflict",
    "read_locked": "lock-conflict",
    "validation_version": "validation",
    "validation_locked": "validation",
    "upgrade_version": "validation",
    "duplicate_key": "application",
    "not_found": "application",
    "user_abort": "application",
    "memory_reconfiguration": "fault",
    "link_revoked": "fault",
}


class RunData:
    """One run's worth of observability data, source-agnostic."""

    def __init__(
        self,
        meta: Optional[Dict[str, Any]] = None,
        flights: Optional[List[FlightAttempt]] = None,
        events: Optional[List[Dict[str, Any]]] = None,
        source: str = "",
    ) -> None:
        self.meta = meta or {}
        self.flights = flights or []
        # Tracer events normalized to dicts (ph/cat/name/ts/dur/pid/args).
        self.events = events or []
        self.source = source

    def protocols(self) -> List[str]:
        """Protocol names present, meta first, then flight-observed."""
        seen = []
        if self.meta.get("protocol"):
            seen.append(self.meta["protocol"])
        for record in self.flights:
            if record.protocol not in seen:
                seen.append(record.protocol)
        return seen


def from_obs(obs, source: str = "") -> RunData:
    """Build RunData directly from a live Obs instance."""
    events = []
    for phase, category, name, ts, dur, pid, tid, args in obs.tracer.events:
        event: Dict[str, Any] = {
            "ph": phase, "cat": category, "name": name,
            "ts": ts, "dur": dur, "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        events.append(event)
    meta = dict(obs.run_meta)
    if obs.flight.unattributed:
        meta["unattributed"] = dict(obs.flight.unattributed)
    return RunData(
        meta=meta,
        flights=list(obs.flight.attempts),
        events=events,
        source=source,
    )


def load_jsonl(path: str) -> RunData:
    """Parse one ``obs.export_jsonl`` file into RunData."""
    run = RunData(source=path)
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            kind = payload.get("ph")
            if kind == "meta":
                meta = dict(payload)
                meta.pop("ph", None)
                run.meta.update(meta)
            elif kind == "flight":
                run.flights.append(FlightAttempt.from_json(payload))
            else:
                run.events.append(payload)
    return run


# -- derivations -------------------------------------------------------------


def _committed(run: RunData, protocol: str) -> List[FlightAttempt]:
    return [
        record
        for record in run.flights
        if record.protocol == protocol
        and record.outcome is not None
        and record.outcome.startswith("commit")
    ]


def phase_latency_rows(run: RunData) -> List[Tuple[Any, ...]]:
    """(protocol, phase, n, mean us, p50 us, p90 us, p99 us) rows.

    Exact percentiles over the recorded phase segments — unlike the
    metrics-registry histograms these are not bucket-interpolated.
    """
    samples: Dict[Tuple[str, str], List[float]] = {}
    for record in run.flights:
        for name, start, end in record.phases:
            samples.setdefault((record.protocol, name), []).append(end - start)
    order = {phase: index for index, phase in enumerate(PHASE_ORDER)}
    rows = []
    for (protocol, phase), values in sorted(
        samples.items(), key=lambda item: (item[0][0], order.get(item[0][1], 99))
    ):
        values.sort()
        rows.append(
            (
                protocol,
                phase,
                len(values),
                f"{sum(values) / len(values) * 1e6:.2f}",
                f"{percentile_of_sorted(values, 50) * 1e6:.2f}",
                f"{percentile_of_sorted(values, 90) * 1e6:.2f}",
                f"{percentile_of_sorted(values, 99) * 1e6:.2f}",
            )
        )
    return rows


def verb_accounting_rows(run: RunData) -> List[Tuple[Any, ...]]:
    """Per-protocol round-trip accounting over committed transactions.

    One row per (protocol, phase, verb kind): total posts, posts per
    committed txn, category, and the p50/p99 completion latency of
    signaled posts. Round trips == signaled verbs (unsignaled posts
    never produce a completion the coordinator waits on).
    """
    rows = []
    for protocol in run.protocols():
        committed = _committed(run, protocol)
        if not committed:
            continue
        counts: Dict[Tuple[str, str], int] = {}
        latencies: Dict[Tuple[str, str], List[float]] = {}
        for record in committed:
            # Traces from older builds give region-addressed verbs a 7th
            # element; unpack only the six fields every trace has.
            for kind, _node, phase, _ts, latency, _ok in (
                entry[:6] for entry in record.verbs
            ):
                key = (phase, kind)
                counts[key] = counts.get(key, 0) + 1
                if latency >= 0:
                    latencies.setdefault(key, []).append(latency)
        order = {phase: index for index, phase in enumerate(PHASE_ORDER)}
        for (phase, kind), total in sorted(
            counts.items(), key=lambda item: (order.get(item[0][0], 99), item[0][1])
        ):
            lat = sorted(latencies.get((phase, kind), []))
            rows.append(
                (
                    protocol,
                    phase,
                    kind,
                    VERB_CATEGORIES.get(kind, "other"),
                    total,
                    f"{total / len(committed):.2f}",
                    f"{percentile_of_sorted(lat, 50) * 1e6:.2f}" if lat else "-",
                    f"{percentile_of_sorted(lat, 99) * 1e6:.2f}" if lat else "-",
                )
            )
    return rows


def check_log_write_claim(run: RunData) -> List[Dict[str, Any]]:
    """Machine-check the §4 logging claim per protocol in *run*.

    For every committed attempt, compares the recorded ``write_log``
    posts against the expected cost its log strategy declares (engines
    the zoo does not know are skipped). Returns one result dict
    per protocol: ``{"protocol", "formula", "checked", "violations",
    "ok", "mean_log_writes", "mean_writes", "detail"}``.
    """
    log_servers = int(run.meta.get("log_servers", 0))
    replication = int(run.meta.get("replication_degree", 0))
    results = []
    for protocol in run.protocols():
        committed = _committed(run, protocol)
        if not committed or protocol not in ZOO:
            continue
        log_axis = ZOO[protocol].log
        violations = []
        total_log = 0
        total_writes = 0
        for record in committed:
            observed = record.log_writes()
            total_log += observed
            total_writes += record.writes
            expected = log_axis.expected_log_writes(
                record.writes, log_servers, replication
            )
            if observed != expected:
                violations.append(
                    (record.coord_id, record.txn_id, record.attempt, record.writes,
                     observed, expected)
                )
        detail = ""
        if violations:
            coord, txn, attempt, writes, observed, expected = violations[0]
            detail = (
                f"first: coord={coord} txn={txn} attempt={attempt} "
                f"writes={writes} observed={observed} expected={expected}"
            )
        results.append(
            {
                "protocol": protocol,
                "formula": log_axis.formula,
                "checked": len(committed),
                "violations": len(violations),
                "ok": not violations,
                "mean_log_writes": total_log / len(committed),
                "mean_writes": total_writes / len(committed),
                "detail": detail,
            }
        )
    return results


def abort_attribution(run: RunData) -> List[Tuple[str, str, str, int]]:
    """(protocol, category, outcome, count) rows for non-commit attempts.

    Categories: lock-conflict, validation, application, fault, open
    (record never closed — the run ended with the attempt in flight,
    or its coordinator crashed mid-attempt).
    """
    counts: Dict[Tuple[str, str, str], int] = {}
    for record in run.flights:
        outcome = record.outcome
        if outcome is None:
            key = (record.protocol, "open", "(open)")
        elif outcome.startswith("commit"):
            continue
        elif outcome.startswith("abort:"):
            reason = outcome.split(":", 1)[1]
            key = (record.protocol, ABORT_CATEGORIES.get(reason, "other"), reason)
        else:
            # "fenced": the fault machinery cut in.
            key = (record.protocol, "fault", outcome)
        counts[key] = counts.get(key, 0) + 1
    return [
        (protocol, category, outcome, count)
        for (protocol, category, outcome), count in sorted(counts.items())
    ]


def lock_event_counts(run: RunData) -> List[Tuple[str, str, int]]:
    """(protocol, lock event, count) rows: conflicts, PILL steals.

    Note: protocols with anonymous lock words cannot distinguish a
    stray lock from a live owner, so waits on stray locks surface here
    as repeated ``conflict`` events rather than ``steal``.
    """
    counts: Dict[Tuple[str, str], int] = {}
    for record in run.flights:
        for event, _table, _slot, _ts in record.locks:
            key = (record.protocol, event)
            counts[key] = counts.get(key, 0) + 1
    return [(protocol, event, count) for (protocol, event), count in sorted(counts.items())]


def recovery_timelines(run: RunData) -> List[Tuple[int, List[Tuple[str, float, float]]]]:
    """Per-failed-node recovery step sequences from "recovery" spans.

    Returns ``[(node_id, [(step, start, duration), ...]), ...]`` with
    steps in virtual-time order — the heartbeat-miss → link-revoke →
    log-read → roll-forward/back → truncate → notify chain of §3.2.
    """
    grouped: Dict[int, List[Tuple[str, float, float]]] = {}
    for event in run.events:
        if event.get("cat") != "recovery" or event.get("ph") != "X":
            continue
        grouped.setdefault(int(event.get("pid", 0)), []).append(
            (event["name"], float(event["ts"]), float(event.get("dur", 0.0)))
        )
    timelines = []
    for node_id in sorted(grouped):
        steps = sorted(grouped[node_id], key=lambda step: (step[1], step[1] + step[2]))
        timelines.append((node_id, steps))
    return timelines


def redetection_counts(run: RunData) -> List[Tuple[int, str, int]]:
    """Failure-detector re-declarations per node, from "redetect"
    instants.

    A re-detection means a dead node's recovery died mid-flight and the
    detector declared it again after the quiet period
    (``FailureDetector.REDETECT_INTERVAL``). Returns
    ``[(node_id, kind, count), ...]``.
    """
    counts: Dict[Tuple[int, str], int] = {}
    for event in run.events:
        if event.get("cat") != "recovery" or event.get("ph") != "i":
            continue
        if event.get("name") != "redetect":
            continue
        kind = str((event.get("args") or {}).get("kind", "compute"))
        key = (int(event.get("pid", 0)), kind)
        counts[key] = counts.get(key, 0) + 1
    return [
        (node_id, kind, count)
        for (node_id, kind), count in sorted(counts.items())
    ]


# -- renderers ---------------------------------------------------------------


def _meta_line(run: RunData) -> str:
    meta = run.meta
    parts = []
    for key in (
        "protocol", "workload", "seed", "replication_degree", "log_servers",
        "memory_nodes", "compute_nodes", "coordinators_per_node",
    ):
        if key in meta:
            parts.append(f"{key}={meta[key]}")
    label = run.source or "(live)"
    return f"run {label}: " + " ".join(parts) if parts else f"run {label}"


Section = Tuple[str, Sequence[str], Sequence[Sequence[Any]]]


def report_sections(run: RunData) -> List[Section]:
    """The flight report of one run as ``(title, headers, rows)``
    sections, empty ones left out — the one list both renderers walk."""
    sections: List[Section] = [
        (
            "phase latency (exact percentiles)",
            ["protocol", "phase", "n", "mean (us)", "p50 (us)", "p90 (us)", "p99 (us)"],
            phase_latency_rows(run),
        ),
        (
            "round-trip / verb accounting (committed txns)",
            ["protocol", "phase", "verb", "cat", "total", "per commit",
             "p50 (us)", "p99 (us)"],
            verb_accounting_rows(run),
        ),
        (
            "logging claim check (paper §4: f+1 per txn vs per object)",
            ["protocol", "expected log writes", "txns", "mean writes",
             "mean log writes", "violations", "status"],
            [
                (
                    claim["protocol"],
                    claim["formula"],
                    claim["checked"],
                    f"{claim['mean_writes']:.2f}",
                    f"{claim['mean_log_writes']:.2f}",
                    claim["violations"],
                    "OK" if claim["ok"] else f"FAIL ({claim['detail']})",
                )
                for claim in check_log_write_claim(run)
            ],
        ),
        (
            "abort attribution",
            ["protocol", "category", "outcome", "count"],
            abort_attribution(run),
        ),
        ("lock events", ["protocol", "lock event", "count"], lock_event_counts(run)),
    ]
    for node_id, steps in recovery_timelines(run):
        sections.append(
            (
                f"recovery timeline: node {node_id}",
                ["step", "start (ms)", "duration (us)"],
                [
                    (name, f"{start * 1e3:.3f}", f"{duration * 1e6:.1f}")
                    for name, start, duration in steps
                ],
            )
        )
    sections += [
        (
            "failure re-detections (recovery died mid-flight)",
            ["node", "kind", "re-detections"],
            redetection_counts(run),
        ),
        (
            "unattributed verbs (system traffic)",
            ["verb", "count"],
            sorted((run.meta.get("unattributed") or {}).items()),
        ),
    ]
    return [section for section in sections if section[2]]


def render_terminal(runs: Sequence[RunData]) -> str:
    """Aligned plain-text report over one or more runs."""
    parts: List[str] = ["transaction flight report", "=" * 25, ""]
    for run in runs:
        parts += [_meta_line(run), ""]
        parts += [
            render_rows(headers, rows, title=title)
            for title, headers, rows in report_sections(run)
        ]
    return "\n".join(parts)


_HTML_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.meta { color: #555; font-size: 0.85rem; margin-bottom: 1rem; }
table { border-collapse: collapse; font-size: 0.85rem; margin: 0.5rem 0; }
th, td { padding: 0.25rem 0.7rem; text-align: left;
         border-bottom: 1px solid #ddd; }
th { background: #f0f0f5; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: #0a7a2f; font-weight: 600; } .fail { color: #c0182b; font-weight: 600; }
.bar { display: inline-block; height: 0.7rem; background: #4c6ef5;
       vertical-align: middle; border-radius: 2px; }
.barlabel { font-size: 0.75rem; color: #555; margin-left: 0.3rem; }
"""


def _html_escape(value: Any) -> str:
    return (
        str(value)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _html_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_html_escape(header)}</th>" for header in headers)
    body = []
    for row in rows:
        cells = []
        for cell in row:
            text = _html_escape(cell)
            css = ' class="num"' if isinstance(cell, (int, float)) else ""
            if text == "OK":
                css = ' class="ok"'
            elif text.startswith("FAIL"):
                css = ' class="fail"'
            cells.append(f"<td{css}>{text}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    return f"<table><tr>{head}</tr>{''.join(body)}</table>"


def _html_phase_bars(run: RunData) -> str:
    """Mean phase-latency breakdown per protocol as inline CSS bars."""
    means: Dict[str, Dict[str, float]] = {}
    for protocol, phase, _n, mean, _p50, _p90, _p99 in phase_latency_rows(run):
        means.setdefault(protocol, {})[phase] = float(mean)
    if not means:
        return ""
    scale = max(max(phases.values()) for phases in means.values()) or 1.0
    parts = []
    for protocol, phases in sorted(means.items()):
        rows = []
        for phase in PHASE_ORDER:
            if phase not in phases:
                continue
            width = max(1, int(phases[phase] / scale * 400))
            rows.append(
                f"<tr><td>{_html_escape(phase)}</td>"
                f'<td><span class="bar" style="width:{width}px"></span>'
                f'<span class="barlabel">{phases[phase]:.2f} us</span></td></tr>'
            )
        parts.append(
            f"<h3>{_html_escape(protocol)}</h3><table>{''.join(rows)}</table>"
        )
    return "<h2>Phase breakdown (mean)</h2>" + "".join(parts)


def render_html(runs: Sequence[RunData], title: str = "Transaction flight report") -> str:
    """Self-contained single-file HTML report (inline CSS, no deps):
    the terminal report's sections plus the phase-breakdown bars."""
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{_html_escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{_html_escape(title)}</h1>",
    ]
    for run in runs:
        parts.append(f'<p class="meta">{_html_escape(_meta_line(run))}</p>')
        parts.append(_html_phase_bars(run))
        for heading, headers, rows in report_sections(run):
            heading = heading[0].upper() + heading[1:]
            parts.append(f"<h2>{_html_escape(heading)}</h2>")
            parts.append(_html_table(headers, rows))
    parts.append("</body></html>")
    return "".join(parts)


def print_report(runs: Sequence[RunData]) -> None:
    """Print the terminal report (simlint-allowlisted output site)."""
    print(render_terminal(runs))


# -- load-curve rendering (repro load --html) --------------------------------

_CURVE_COLORS = ("#4c6ef5", "#e8590c", "#2b8a3e", "#ae3ec9", "#e03131")


def _svg_curve_plot(
    title: str,
    series: Dict[str, List[Tuple[float, float]]],
    y_label: str,
    width: int = 460,
    height: int = 260,
    reference_diagonal: bool = False,
) -> str:
    """Inline-SVG scatter+line plot of per-protocol (x, y) series."""
    pad = 46
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        return ""
    x_max = max(x for x, _y in points) or 1.0
    y_max = max(y for _x, y in points) or 1.0
    if reference_diagonal:
        y_max = max(y_max, x_max)

    def sx(x: float) -> float:
        return pad + (width - 2 * pad) * x / x_max

    def sy(y: float) -> float:
        return height - pad - (height - 2 * pad) * y / y_max

    parts = [
        f'<svg width="{width}" height="{height}" '
        'xmlns="http://www.w3.org/2000/svg" style="background:#fafafc">',
        f'<text x="{width / 2}" y="16" text-anchor="middle" '
        f'font-size="13" font-weight="600">{_html_escape(title)}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#888"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        'stroke="#888"/>',
        f'<text x="{width / 2}" y="{height - 8}" text-anchor="middle" '
        'font-size="11" fill="#555">offered (tps)</text>',
        f'<text x="14" y="{height / 2}" font-size="11" fill="#555" '
        f'transform="rotate(-90 14 {height / 2})" text-anchor="middle">'
        f"{_html_escape(y_label)}</text>",
        f'<text x="{pad}" y="{height - pad + 14}" font-size="10" '
        'fill="#555">0</text>',
        f'<text x="{width - pad}" y="{height - pad + 14}" font-size="10" '
        f'fill="#555" text-anchor="end">{x_max:,.0f}</text>',
        f'<text x="{pad - 4}" y="{pad}" font-size="10" fill="#555" '
        f'text-anchor="end">{y_max:,.0f}</text>',
    ]
    if reference_diagonal:
        parts.append(
            f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(x_max)}" '
            f'y2="{sy(x_max)}" stroke="#bbb" stroke-dasharray="4 3"/>'
        )
    for index, (name, pts) in enumerate(sorted(series.items())):
        color = _CURVE_COLORS[index % len(_CURVE_COLORS)]
        path = " ".join(
            f"{'M' if i == 0 else 'L'}{sx(x):.1f},{sy(y):.1f}"
            for i, (x, y) in enumerate(sorted(pts))
        )
        parts.append(
            f'<path d="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" '
                f'fill="{color}"/>'
            )
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * index}" '
            f'font-size="11" fill="{color}">{_html_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def render_load_html(
    payload: Dict[str, Any], title: str = "Open-loop load curves"
) -> str:
    """Self-contained HTML for a ``BENCH_LOAD.json``-style payload.

    Two SVG plots (achieved-vs-offered with the x=y reference line, and
    CO-corrected p99 vs offered) plus one point table per protocol.
    """
    curves = payload.get("curves", {})
    achieved: Dict[str, List[Tuple[float, float]]] = {}
    p99s: Dict[str, List[Tuple[float, float]]] = {}
    for protocol, curve in curves.items():
        for point in curve.get("points", []):
            achieved.setdefault(protocol, []).append(
                (point["offered_tps"], point["achieved_tps"])
            )
            p99s.setdefault(protocol, []).append(
                (point["offered_tps"], point["co_p99_us"])
            )
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{_html_escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>{_html_escape(title)}</h1>",
        '<p class="meta">'
        f"workload={_html_escape(payload.get('workload', '?'))} "
        f"arrivals={_html_escape(payload.get('arrivals', '?'))} "
        "latency is CO-corrected: measured from intended arrival time, "
        "queue wait included; censored in-flight/queued requests count "
        "at their age.</p>",
        _svg_curve_plot(
            "achieved vs offered load", achieved, "achieved (tps)",
            reference_diagonal=True,
        ),
        _svg_curve_plot("CO-corrected p99 vs offered load", p99s, "p99 (us)"),
    ]
    for protocol, curve in sorted(curves.items()):
        knee = curve.get("knee_offered_tps")
        knee_text = f"{knee:,.0f} tps" if knee else "not reached"
        parts.append(
            f"<h2>{_html_escape(protocol)} "
            f'<span class="meta">(knee: {knee_text})</span></h2>'
        )
        rows = []
        for point in curve.get("points", []):
            rows.append(
                (
                    point["offered_tps"],
                    point["achieved_tps"],
                    point["co_p50_us"],
                    point["co_p99_us"],
                    point["co_p999_us"],
                    f"{100 * point['abort_rate']:.1f}%",
                    point["queue_depth_mean"],
                    point["backlog_end"],
                    "OK" if not point.get("violations") else
                    f"FAIL ({len(point['violations'])})",
                )
            )
        parts.append(
            _html_table(
                [
                    "offered", "achieved", "co p50 (us)", "co p99 (us)",
                    "co p99.9 (us)", "abort", "queue mean", "backlog",
                    "oracle",
                ],
                rows,
            )
        )
        violations = [
            violation
            for point in curve.get("points", [])
            for violation in point.get("violations", [])
        ]
        if violations:
            parts.append(
                "<ul>"
                + "".join(
                    f"<li class='fail'>{_html_escape(v)}</li>"
                    for v in violations[:20]
                )
                + "</ul>"
            )
    parts.append("</body></html>")
    return "".join(parts)
