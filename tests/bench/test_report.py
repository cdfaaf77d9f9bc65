"""The one wall-time gate and the one delta, over every snapshot kind.

``repro.bench.report.SNAPSHOT_KINDS`` describes each snapshot shape as
rows x metrics; these tests pin what ``gate`` and ``delta`` make of
that table — per kind on a minimal hand-written payload, and on the
committed kernel baseline. Only ``kernel-perf/1`` has a floor: every
other kind is virtual time, pinned exactly by the golden.
"""

import copy
import json
import pathlib

import pytest

from repro.bench.report import SNAPSHOT_KINDS, delta, format_table, gate
from repro.obs.metrics import render_rows

ROOT = pathlib.Path(__file__).parents[2]
RESULTS = ROOT / "benchmarks" / "results"


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
    "steady/1": {
        "schema": "steady/1",
        "throughput_tps": 100.0,
        "p50_latency_us": 10.0,
        "p99_latency_us": 40.0,
        "abort_rate": 0.0,
        "commits": 50,
        "aborts": 0,
    },
}


def _with(key, value, **top_level):
    payload = copy.deepcopy(PAYLOADS["kernel-perf/1"])
    payload.update(top_level)
    payload["fleets"]["small"][key] = value
    return payload


def test_only_wall_time_has_a_floor():
    floors = {
        kind: [metric.key for metric in metrics if metric.floor]
        for kind, (_flatten, metrics) in SNAPSHOT_KINDS.items()
    }
    assert floors == {
        "kernel-perf/1": ["events_per_sec"],
        "load/1": [],
        "contention/1": [],
        "steady/1": [],
    }


@pytest.mark.parametrize("kind", SNAPSHOT_KINDS)
def test_gate(kind):
    baseline = PAYLOADS[kind]
    if kind != "kernel-perf/1":
        # Seeded virtual time: nothing to hold within a tolerance.
        with pytest.raises(ValueError, match="pinned exactly"):
            gate(copy.deepcopy(baseline), baseline)
        return
    assert gate(copy.deepcopy(baseline), baseline) == []

    # Floor: 25% down passes, more fails, faster never fails.
    assert gate(_with("events_per_sec", 75.0), baseline) == []
    assert gate(_with("events_per_sec", 500.0), baseline) == []
    (failure,) = gate(_with("events_per_sec", 70.0), baseline)
    assert failure == (
        "small: events/sec 70 < floor 75 (baseline 100, tolerance 25%)"
    )

    # Display-only metrics never gate, the virtual step count included.
    assert gate(_with("wall_us_per_event", 1e6), baseline) == []
    assert gate(_with("steps", 51), baseline, tolerance=0.0) == []

    # tolerance= beats the baseline's field, which beats the default.
    slower = _with("events_per_sec", 90.0)
    assert gate(slower, baseline) == []
    assert len(gate(slower, baseline, tolerance=0.05)) == 1
    assert len(gate(slower, _with("events_per_sec", 100.0, tolerance=0.05))) == 1
    no_field = copy.deepcopy(baseline)
    del no_field["tolerance"]
    assert gate(slower, no_field) == []
    assert len(gate(_with("events_per_sec", 70.0), no_field)) == 1

    # A missing fleet is one failure; fleets only the current run has
    # are not the baseline's business.
    current = copy.deepcopy(baseline)
    del current["fleets"]["small"]
    assert gate(current, baseline) == ["small: missing from current run"]
    assert gate(baseline, current) == []


def test_unknown_schema_is_refused_by_name():
    with pytest.raises(ValueError, match="unknown snapshot schema 'load/2'"):
        gate({"schema": "load/2"}, {"schema": "load/2"})
    with pytest.raises(ValueError, match="known: "):
        delta({"schema": "nope/1"}, {})


@pytest.mark.parametrize("name", ["KERNEL"])
def test_committed_baseline_passes_its_own_gate(name):
    payload = json.loads((RESULTS / f"BENCH_{name}.json").read_text())
    assert payload["schema"] in SNAPSHOT_KINDS
    assert gate(copy.deepcopy(payload), payload) == []
    # ... and the gate did look at every row: halve them all.
    flatten, _metrics = SNAPSHOT_KINDS[payload["schema"]]
    broken = copy.deepcopy(payload)
    rows = list(flatten(broken))
    for _group, _row, entry in rows:
        entry["events_per_sec"] /= 2
    assert len(gate(broken, payload)) == len(rows) > 0


def test_delta_of_the_load_baseline_with_itself_is_flat():
    path = ROOT / "tests" / "integration" / "golden" / "load.json"
    payload = json.loads(path.read_text())
    title, underline, _headers, _rule, *rows = delta(payload, payload).splitlines()
    assert title == "load snapshot delta" and underline == "=" * len(title)
    # 3 protocols x 2 offered points x 5 metrics.
    assert len(rows) == 30
    assert all(row.endswith("+0.0%") for row in rows)


def test_delta_marks_one_sided_rows():
    before = PAYLOADS["kernel-perf/1"]
    after = _with("steps", 51)
    after["fleets"]["new"] = after["fleets"].pop("big")
    text = delta(before, after, "old.json", "new.json")
    assert "kernel-perf snapshot delta" in text
    assert "old.json" in text and "new.json" in text
    lines = {line.split("  ")[0]: line for line in text.splitlines()}
    assert lines["small steps"].rstrip().endswith("+2.0%")
    assert lines["small events/sec"].rstrip().endswith("+0.0%")
    assert lines["big events/sec"].split() == ["big", "events/sec", "100.0", "-"]
    assert lines["new events/sec"].split() == ["new", "events/sec", "-", "100.0"]


def test_format_table_is_render_rows_plus_a_note():
    rows = [("a", 1), ("bbb", 22)]
    table = format_table("t", ["name", "n"], rows)
    assert table == render_rows(["name", "n"], rows, title="t")
    assert format_table("t", ["name", "n"], rows, note="see") == table + "\nsee\n"
