"""Sweep plumbing: grids, knee detection, payloads, and the CI gate."""

import copy

import pytest

from repro.bench.report import DEFAULT_TOLERANCE, gate
from repro.load import (
    LoadCurve,
    LoadResult,
    default_offered_grid,
    format_curves,
    sweep_payload,
)


def _result(offered, commits, duration=1.0):
    result = LoadResult("pandora", "smallbank", "poisson", offered, duration)
    result.intended = commits
    result.completed = commits
    result.commits = commits
    for _ in range(4):
        result.co.add(20e-6)
        result.service.add(10e-6)
    return result


def _curve(points):
    curve = LoadCurve("pandora", "smallbank", "poisson")
    curve.points = [_result(offered, commits) for offered, commits in points]
    return curve


class TestGridAndKnee:
    def test_default_grid_scales_capacity(self):
        assert default_offered_grid(100_000.0, (0.5, 1.0, 1.4)) == [
            50_000.0,
            100_000.0,
            140_000.0,
        ]

    def test_default_grid_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            default_offered_grid(0.0)

    def test_knee_is_first_point_below_90_percent(self):
        curve = _curve([(100, 99), (200, 195), (300, 250), (400, 240)])
        assert curve.knee_offered_tps == 300

    def test_knee_absent_when_system_keeps_up(self):
        curve = _curve([(100, 99), (200, 198)])
        assert curve.knee_offered_tps is None


class TestPayloadAndGate:
    def _payload(self):
        return sweep_payload(
            [_curve([(100, 99), (300, 250)])], tolerance=DEFAULT_TOLERANCE
        )

    def test_payload_shape(self):
        payload = self._payload()
        assert payload["schema"] == "load/1"
        assert payload["tolerance"] == DEFAULT_TOLERANCE
        assert payload["workload"] == "smallbank"
        curve = payload["curves"]["pandora"]
        assert curve["knee_offered_tps"] == 300
        assert [point["offered_tps"] for point in curve["points"]] == [100, 300]

    def test_identical_payloads_pass_the_gate(self):
        payload = self._payload()
        assert gate(payload, copy.deepcopy(payload)) == []

    def test_throughput_floor_failure(self):
        current, baseline = self._payload(), self._payload()
        point = current["curves"]["pandora"]["points"][0]
        point["achieved_tps"] = point["achieved_tps"] * 0.5
        failures = gate(current, baseline)
        assert any("achieved" in failure for failure in failures)

    def test_latency_ceiling_failure(self):
        current, baseline = self._payload(), self._payload()
        point = current["curves"]["pandora"]["points"][0]
        point["co_p99_us"] = point["co_p99_us"] * 10
        failures = gate(current, baseline)
        assert any("co p99" in failure for failure in failures)

    def test_commit_drift_is_flagged_even_within_tolerance(self):
        # A 1-commit delta is nowhere near the throughput floor, but
        # seeded virtual time means it still signals behaviour change.
        current, baseline = self._payload(), self._payload()
        current["curves"]["pandora"]["points"][0]["commits"] += 1
        failures = gate(current, baseline)
        assert any("seeded behaviour drift" in failure for failure in failures)

    def test_missing_protocol_and_point_are_flagged(self):
        baseline = self._payload()
        assert gate({"curves": {}}, baseline) == [
            "pandora: missing from current run"
        ]
        current = self._payload()
        current["curves"]["pandora"]["points"].pop()
        failures = gate(current, baseline)
        assert failures == ["pandora @ 300 tps: missing from current run"]

    def test_tolerance_override_beats_baseline_field(self):
        current, baseline = self._payload(), self._payload()
        point = current["curves"]["pandora"]["points"][0]
        point["achieved_tps"] = point["achieved_tps"] * 0.9
        assert gate(current, baseline) == []
        assert gate(current, baseline, tolerance=0.05)


class TestRendering:
    def test_format_curves_mentions_protocol_and_knee(self):
        text = format_curves([_curve([(100, 99), (300, 250)])])
        assert "pandora" in text
        assert "knee: 300" in text
        assert "co_p99us" in text

    def test_format_curves_lists_violations(self):
        curve = _curve([(100, 99)])
        curve.points[0].violations.append("[CHAOS-LOG] orphan records")
        text = format_curves([curve])
        assert "CHAOS-LOG" in text
