"""Sweep plumbing: grids, knee detection and payloads."""

import pytest

from repro.bench.report import gate
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
        return sweep_payload([_curve([(100, 99), (300, 250)])])

    def test_payload_shape(self):
        payload = self._payload()
        assert payload["schema"] == "load/1"
        assert "tolerance" not in payload
        assert payload["workload"] == "smallbank"
        curve = payload["curves"]["pandora"]
        assert curve["knee_offered_tps"] == 300
        assert [point["offered_tps"] for point in curve["points"]] == [100, 300]

    def test_the_gate_refuses_a_load_payload(self):
        # Seeded virtual time is pinned exactly by the golden; no
        # tolerance may be applied to it.
        payload = self._payload()
        with pytest.raises(ValueError, match="pinned exactly"):
            gate(payload, payload)


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
