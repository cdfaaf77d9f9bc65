"""The pin table and the paper's claims, read from the pinned JSON.

``tests/integration/golden`` owns every pinned seeded run (its
``SECTIONS`` table); ``python -m tests.integration.golden`` rewrites
them all, and CI diffs the result. Here, without rerunning the slow
sections: the table covers exactly the committed pins, a missing or
foreign pin fails by name, one moved field is reported once, and the
claims the flight, load and contention runs were recorded to show
still hold on the numbers committed for them.
"""

import json
import shutil

import pytest

from repro.load import CONTENTION_PROTOCOLS, CONTENTION_SCHEMA, CONTENTION_THETAS
from repro.load import SNAPSHOT_SCHEMA as LOAD_SCHEMA
from tests.integration.golden import (
    FLIGHT_PROTOCOLS,
    GOLDEN,
    REGENERATE,
    REPO,
    RESULTS,
    SECTIONS,
    load_pin,
    regenerate,
)


def _section(name):
    return next(section for section in SECTIONS if section.name == name)


# -- the table -------------------------------------------------------------------


def test_every_section_writes_committed_files_and_nothing_else():
    paths = [path for section in SECTIONS for path in section.paths]
    assert len(paths) == len(set(paths)), "a pin has two writers"
    for path in paths:
        assert (REPO / path).is_file(), path
    # Every data file beside the golden module is some section's pin.
    data = {
        f"{GOLDEN}{file.name}"
        for file in (REPO / GOLDEN).iterdir()
        if file.suffix in (".json", ".txt")
    }
    assert data <= set(paths)
    # The pins that moved here left no second, stale copy behind.
    for name in ("LOAD", "CONTENTION", *(f"flight_{p}" for p in FLIGHT_PROTOCOLS)):
        assert not (REPO / RESULTS / f"BENCH_{name}.json").exists(), name


@pytest.mark.parametrize(
    "content, error",
    [(None, "is missing"), ('{"schema": "load/0"}', "has schema 'load/0'")],
)
def test_a_missing_or_foreign_pin_names_the_command(tmp_path, monkeypatch, content, error):
    monkeypatch.setattr("tests.integration.golden.REPO", tmp_path)
    if content is not None:
        (tmp_path / GOLDEN).mkdir(parents=True)
        (tmp_path / GOLDEN / "load.json").write_text(content)
    with pytest.raises(ValueError, match=error) as failure:
        load_pin("load.json", LOAD_SCHEMA)
    assert f"`{REGENERATE}`" in str(failure.value)


def test_one_moved_field_is_reported_once(tmp_path):
    section = _section("violations")
    for path in section.paths:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(REPO / path, tmp_path / path)
    (path,) = section.paths
    pins = json.loads((tmp_path / path).read_text())
    count = pins["mutant_harness"]["count"]
    pins["mutant_harness"]["count"] = count + 1
    (tmp_path / path).write_text(json.dumps(pins))

    assert regenerate(section, root=tmp_path) == [
        f"{path}: mutant_harness.count: {count + 1} → {count}"
    ]
    # The rewrite restored the committed bytes, and wrote nothing else.
    assert (tmp_path / path).read_bytes() == (REPO / path).read_bytes()
    written = {str(file.relative_to(tmp_path)) for file in tmp_path.rglob("*") if file.is_file()}
    assert written == set(section.paths)
    assert regenerate(section, root=tmp_path) == []


# -- §4: f+1 log writes per transaction ------------------------------------------


def test_log_write_claim_holds_and_orders_the_protocols():
    claims = {}
    for protocol in FLIGHT_PROTOCOLS:
        (claim,) = load_pin(f"flight_{protocol}.json", "steady/1")["log_write_claim"]
        assert claim["protocol"] == protocol
        assert claim["ok"] and claim["violations"] == 0, claim
        assert claim["checked"] > 0, claim
        claims[protocol] = claim["mean_log_writes"]
    # Pandora's logging cost is per transaction, FORD's and tradlog's
    # per written object.
    assert claims["pandora"] < claims["ford"] < claims["tradlog"]


# -- open-loop load and hot-key contention ---------------------------------------


def _load():
    return load_pin("load.json", LOAD_SCHEMA)["curves"]


def _contention():
    return load_pin("contention.json", CONTENTION_SCHEMA)["curves"]


def test_every_load_curve_shows_a_knee():
    # Past-capacity offered load must visibly saturate every protocol;
    # a knee that never appears means the load generator is secretly closed-loop.
    for protocol, curve in _load().items():
        assert curve["knee_offered_tps"] is not None, protocol
        high = curve["points"][-1]
        assert high["achieved_tps"] < 0.9 * high["offered_tps"], protocol


@pytest.mark.parametrize("pin", ["load", "contention"])
def test_sub_saturation_points_keep_up(pin):
    for label, curve in (_load() if pin == "load" else _contention()).items():
        low = curve["points"][0]
        assert low["achieved_tps"] > 0.6 * low["offered_tps"], label
        assert low["backlog_end"] <= 2, label


def test_co_correction_inflates_the_saturated_tail():
    # Under saturation the CO-corrected p99 (from intended arrival)
    # dominates the service-time p99: the gap is the queueing delay a
    # closed-loop generator would silently omit. The 6 ms window builds a
    # deep queue (the drain grace then empties it).
    for protocol, curve in _load().items():
        high = curve["points"][-1]
        assert high["co_p99_us"] > high["service_p99_us"], protocol
        assert high["queue_depth_peak"] > 100, protocol


@pytest.mark.parametrize("pin", ["load", "contention"])
def test_accounting_is_exact_at_every_point(pin):
    for label, curve in (_load() if pin == "load" else _contention()).items():
        for point in curve["points"]:
            assert point["intended"] == (
                point["completed"] + point["unknown"] + point["censored"]
            ), (label, point["offered_tps"])


def test_contention_covers_every_zoo_protocol_and_skew():
    seen = {(curve["protocol"], curve["theta"]) for curve in _contention().values()}
    assert seen == {
        (protocol, theta)
        for protocol in CONTENTION_PROTOCOLS
        for theta in CONTENTION_THETAS
    }


def test_skew_inflates_the_contended_tail():
    # Per protocol, the hottest skew shows a worse saturated p99 than
    # the YCSB-standard one; otherwise the knob concentrates nothing.
    by_protocol = {}
    for curve in _contention().values():
        by_protocol.setdefault(curve["protocol"], {})[curve["theta"]] = curve
    for protocol, thetas in by_protocol.items():
        mild = thetas[min(thetas)]["points"][-1]
        hot = thetas[max(thetas)]["points"][-1]
        assert hot["co_p99_us"] > mild["co_p99_us"], protocol


def test_contention_produces_conflicts():
    # At the hottest skew past the knee some protocol records aborts;
    # zero everywhere would mean the RMW transactions never collide.
    hottest = [c for c in _contention().values() if c["theta"] == max(CONTENTION_THETAS)]
    assert any(curve["points"][-1]["aborts"] > 0 for curve in hottest)
