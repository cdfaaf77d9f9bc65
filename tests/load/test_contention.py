"""Unit tests for the hot-key contention sweep plumbing.

The full five-protocol × three-skew sweep is pinned in
``tests/integration/golden/contention.json`` (its claims are checked in
``tests/integration/test_golden_pins.py``); here the pieces are tested
fast: the workload factory's knobs, payload shape (render_load_html
compatible) and one tiny real sweep point per zoo newcomer.
"""

import pytest

from repro.load import (
    CONTENTION_PROTOCOLS,
    CONTENTION_SCHEMA,
    CONTENTION_THETAS,
    contention_payload,
    contention_workload,
    format_contention,
    run_contention_sweep,
)


class TestWorkload:
    def test_factory_builds_the_paper_microbench(self):
        workload = contention_workload(1.2)
        assert workload.num_keys == 1_000
        assert workload.zipf_theta == 1.2
        assert workload.rmw  # RMW holds locks across round trips

    def test_zoo_is_fully_enumerated(self):
        assert set(CONTENTION_PROTOCOLS) == {
            "pandora",
            "ford",
            "tradlog",
            "lotus",
            "vote1pc",
        }
        assert len(CONTENTION_THETAS) == 3


class TestSweep:
    @pytest.fixture(scope="class")
    def curves(self):
        # One protocol per new lock/commit strategy, one skew, one
        # offered point: enough to exercise the whole pipeline fast.
        return run_contention_sweep(
            protocols=("lotus", "vote1pc"),
            thetas=(1.2,),
            grid=(150_000.0,),
            duration=2e-3,
            users=16,
        )

    def test_curves_cover_the_grid(self, curves):
        assert {(c.protocol, c.theta) for c in curves} == {
            ("lotus", 1.2),
            ("vote1pc", 1.2),
        }
        for curve in curves:
            assert curve.label == f"{curve.protocol} s=1.2"
            assert len(curve.points) == 1
            assert curve.points[0].commits > 0

    def test_payload_shape(self, curves):
        payload = contention_payload(curves)
        assert payload["schema"] == CONTENTION_SCHEMA
        for curve in curves:
            points = payload["curves"][curve.label]["points"]
            assert points[0]["offered_tps"] == 150_000.0
            assert "co_p99_us" in points[0]
            assert "abort_rate" in points[0]
        assert "tolerance" not in payload

    def test_format_mentions_every_curve(self, curves):
        text = format_contention(curves)
        for curve in curves:
            assert curve.label in text
