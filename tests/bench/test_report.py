"""The one snapshot gate and the one delta, over every snapshot kind.

``repro.bench.report.SNAPSHOT_KINDS`` describes each ``BENCH_*.json``
shape as rows x metrics; these tests pin what ``gate`` and ``delta``
make of that table — per kind on a minimal hand-written payload, and on
the committed baselines themselves.
"""

import copy
import json
import pathlib

import pytest

from repro.bench.report import SNAPSHOT_KINDS, delta, format_table, gate
from repro.obs.metrics import render_rows

RESULTS = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"


def _point(offered):
    return {
        "offered_tps": offered,
        "achieved_tps": 100.0,
        "co_p50_us": 10.0,
        "co_p99_us": 40.0,
        "abort_rate": 0.0,
        "commits": 50,
    }


def _curves(schema):
    return {
        "schema": schema,
        "tolerance": 0.25,
        "curves": {
            "pandora": {"points": [_point(100.0), _point(300.0)]},
            "ford": {"points": [_point(100.0)]},
        },
    }


def _fleet():
    return {"events_per_sec": 100.0, "wall_us_per_event": 10.0, "steps": 50}


PAYLOADS = {
    "kernel-perf/1": {
        "schema": "kernel-perf/1",
        "tolerance": 0.25,
        "fleets": {"small": _fleet(), "big": _fleet()},
    },
    "load/1": _curves("load/1"),
    "contention/1": _curves("contention/1"),
    # No ``schema``: what the committed BENCH_flight_*.json look like.
    "steady/1": {
        "tolerance": 0.25,
        "throughput_tps": 100.0,
        "p50_latency_us": 10.0,
        "p99_latency_us": 40.0,
        "abort_rate": 0.0,
        "commits": 50,
        "aborts": 0,
    },
}

# kind -> (first row's label, its group, floor / ceiling / display-only /
# exact metric keys); every payload above reads 100 / 40 / 10 / 50 there.
SHAPES = {
    "kernel-perf/1": ("small", "small", "events_per_sec", None, "wall_us_per_event", "steps"),
    "load/1": ("pandora @ 100 tps", "pandora", "achieved_tps", "co_p99_us", "co_p50_us", "commits"),
    "contention/1": ("pandora @ 100 tps", "pandora", "achieved_tps", "co_p99_us", "co_p50_us", "commits"),
    "steady/1": ("run", "run", "throughput_tps", "p99_latency_us", "p50_latency_us", "commits"),
}


def _first_row(payload):
    if "fleets" in payload:
        return payload["fleets"]["small"]
    if "curves" in payload:
        return payload["curves"]["pandora"]["points"][0]
    return payload


def _with(kind, key, value, **top_level):
    payload = copy.deepcopy(PAYLOADS[kind])
    payload.update(top_level)
    _first_row(payload)[key] = value
    return payload


@pytest.mark.parametrize("kind", SNAPSHOT_KINDS)
def test_gate(kind):
    baseline = PAYLOADS[kind]
    row, group, floor, ceiling, display, exact = SHAPES[kind]
    assert gate(copy.deepcopy(baseline), baseline) == []

    # Floor: 25% down passes, more fails, faster never fails.
    assert gate(_with(kind, floor, 75.0), baseline) == []
    assert gate(_with(kind, floor, 500.0), baseline) == []
    (failure,) = gate(_with(kind, floor, 70.0), baseline)
    assert failure.startswith(f"{row}: ")
    assert "70 < floor 75 (baseline 100, tolerance 25%)" in failure

    # Ceiling: the mirror image (kernel-perf has none).
    if ceiling:
        assert gate(_with(kind, ceiling, 50.0), baseline) == []
        assert gate(_with(kind, ceiling, 1.0), baseline) == []
        (failure,) = gate(_with(kind, ceiling, 52.0), baseline)
        assert f"{row}: " in failure
        assert "52.0 > ceiling 50.0 (baseline 40.0, tolerance 25%)" in failure

    # Display-only metrics never gate.
    assert gate(_with(kind, display, 1e6), baseline) == []

    # Exact: one count off is far inside any tolerance and still fails.
    (failure,) = gate(_with(kind, exact, 51), baseline, tolerance=0.9)
    assert failure == (
        f"{row}: {exact} changed 50 -> 51 "
        "(seeded behaviour drift; regenerate the baseline deliberately)"
    )

    # tolerance= beats the baseline's field, which beats the default.
    slower = _with(kind, floor, 90.0)
    assert gate(slower, baseline) == []
    assert len(gate(slower, baseline, tolerance=0.05)) == 1
    assert len(gate(slower, _with(kind, floor, 100.0, tolerance=0.05))) == 1
    no_field = copy.deepcopy(baseline)
    del no_field["tolerance"]
    assert gate(slower, no_field) == []
    assert len(gate(_with(kind, floor, 70.0), no_field)) == 1

    # A missing row is one failure; a missing fleet / curve is one
    # failure however many rows it held (steady has one row, always).
    current = copy.deepcopy(baseline)
    if "curves" in current:
        current["curves"]["pandora"]["points"].pop(0)
        assert gate(current, baseline) == [f"{row}: missing from current run"]
        del current["curves"]["pandora"]
    elif "fleets" in current:
        del current["fleets"]["small"]
    if current != baseline:
        assert gate(current, baseline) == [f"{group}: missing from current run"]
    # Rows only the current run has are not the baseline's business.
    assert gate(baseline, current) == []


def test_contention_gates_the_abort_rate_with_two_points_of_grace():
    baseline = PAYLOADS["contention/1"]  # abort_rate 0.0: ceiling = grace
    assert gate(_with("contention/1", "abort_rate", 0.019), baseline) == []
    (failure,) = gate(_with("contention/1", "abort_rate", 0.021), baseline)
    assert "abort rate 0.0210 > ceiling 0.0200 (baseline 0.0000" in failure
    # Relative part on top: 0.1 * 1.25 + 0.02.
    noisy = _with("contention/1", "abort_rate", 0.1)
    assert gate(_with("contention/1", "abort_rate", 0.144), noisy) == []
    assert len(gate(_with("contention/1", "abort_rate", 0.146), noisy)) == 1
    # The load sweep only displays it.
    assert gate(_with("load/1", "abort_rate", 0.9), PAYLOADS["load/1"]) == []


def test_unknown_schema_is_refused_by_name():
    with pytest.raises(ValueError, match="unknown snapshot schema 'load/2'"):
        gate({"schema": "load/2"}, {"schema": "load/2"})
    with pytest.raises(ValueError, match="known: "):
        delta({"schema": "nope/1"}, {})


@pytest.mark.parametrize("name", ["KERNEL", "LOAD", "CONTENTION"])
def test_committed_baseline_passes_its_own_gate(name):
    payload = json.loads((RESULTS / f"BENCH_{name}.json").read_text())
    assert payload["schema"] in SNAPSHOT_KINDS
    assert gate(copy.deepcopy(payload), payload) == []
    # ... and the gate did look at every row: break them all.
    flatten, _metrics = SNAPSHOT_KINDS[payload["schema"]]
    broken = copy.deepcopy(payload)
    rows = list(flatten(broken))
    for _group, _row, entry in rows:
        entry["steps" if name == "KERNEL" else "commits"] += 1
    assert len(gate(broken, payload)) == len(rows) > 0


def test_delta_of_the_load_baseline_with_itself_is_flat():
    payload = json.loads((RESULTS / "BENCH_LOAD.json").read_text())
    title, underline, _headers, _rule, *rows = delta(payload, payload).splitlines()
    assert title == "load snapshot delta" and underline == "=" * len(title)
    # 3 protocols x 2 offered points x 5 metrics.
    assert len(rows) == 30
    assert all(row.endswith("+0.0%") for row in rows)


def test_delta_marks_exact_drift_and_one_sided_rows():
    before = PAYLOADS["kernel-perf/1"]
    after = _with("kernel-perf/1", "steps", 51)
    after["fleets"]["new"] = after["fleets"].pop("big")
    text = delta(before, after, "old.json", "new.json")
    assert "kernel-perf snapshot delta" in text
    assert "old.json" in text and "new.json" in text
    lines = {line.split("  ")[0]: line for line in text.splitlines()}
    assert lines["small steps"].endswith("+2.0% DRIFT")
    assert lines["small events/sec"].rstrip().endswith("+0.0%")
    assert lines["big events/sec"].split() == ["big", "events/sec", "100.0", "-"]
    assert lines["new events/sec"].split() == ["new", "events/sec", "-", "100.0"]


def test_format_table_is_render_rows_plus_a_note():
    rows = [("a", 1), ("bbb", 22)]
    table = format_table("t", ["name", "n"], rows)
    assert table == render_rows(["name", "n"], rows, title="t")
    assert format_table("t", ["name", "n"], rows, note="see") == table + "\nsee\n"
