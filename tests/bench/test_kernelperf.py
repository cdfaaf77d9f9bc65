"""Unit tests for the kernel-speed benchmark and its baseline gate."""

import pytest

from repro.bench.kernelperf import (
    DEFAULT_FLEETS,
    SNAPSHOT_SCHEMA,
    FleetSpec,
    KernelPerfResult,
    format_suite,
    run_fleet,
    suite_payload,
)
from repro.bench.report import gate
from repro.obs.profile import KernelProfiler

TINY = FleetSpec("tiny", compute_nodes=1, coordinators_per_node=2, keys=200,
                 duration=0.2e-3)


def _result(fleet="tiny", steps=10_000, wall=0.5, **overrides):
    fields = dict(
        fleet=fleet,
        coordinators=2,
        keys=200,
        virtual_duration=0.2e-3,
        steps=steps,
        wall_seconds=wall,
        repeats=3,
    )
    fields.update(overrides)
    return KernelPerfResult(**fields)


class TestResultMath:
    def test_events_per_sec_and_us_per_event(self):
        result = _result(steps=10_000, wall=0.5)
        assert result.events_per_sec == 20_000
        assert result.wall_us_per_event == 50.0

    def test_zero_guards(self):
        assert _result(wall=0.0).events_per_sec == 0.0
        assert _result(steps=0).wall_us_per_event == 0.0


class TestSuitePayload:
    def test_payload_shape(self):
        payload = suite_payload([_result()], tolerance=0.25)
        assert payload["schema"] == SNAPSHOT_SCHEMA
        assert payload["tolerance"] == 0.25
        entry = payload["fleets"]["tiny"]
        assert entry["steps"] == 10_000
        assert entry["events_per_sec"] == 20_000
        assert entry["wall_us_per_event"] == 50.0
        assert entry["coordinators"] == 2
        assert entry["keys"] == 200
        assert entry["repeats"] == 3

    def test_default_fleets_span_three_sizes(self):
        """The ISSUE's acceptance floor: events/sec for >= 3 fleets."""
        assert len(DEFAULT_FLEETS) >= 3
        assert len({spec.coordinators for spec in DEFAULT_FLEETS}) >= 3
        assert len({spec.keys for spec in DEFAULT_FLEETS}) >= 3


class TestBaselineGate:
    def _payloads(self, current_eps, base_eps, current_steps=100, base_steps=100):
        current = suite_payload(
            [_result(steps=current_steps, wall=current_steps / current_eps)]
        )
        baseline = suite_payload(
            [_result(steps=base_steps, wall=base_steps / base_eps)]
        )
        return current, baseline

    def test_within_tolerance_passes(self):
        current, baseline = self._payloads(current_eps=80, base_eps=100)
        assert gate(current, baseline, tolerance=0.25) == []

    def test_regression_below_floor_fails(self):
        current, baseline = self._payloads(current_eps=70, base_eps=100)
        failures = gate(current, baseline, tolerance=0.25)
        assert len(failures) == 1
        assert "events/sec" in failures[0]

    def test_faster_run_never_fails(self):
        current, baseline = self._payloads(current_eps=500, base_eps=100)
        assert gate(current, baseline, tolerance=0.25) == []

    def test_missing_fleet_fails(self):
        current = suite_payload([])
        baseline = suite_payload([_result()])
        failures = gate(current, baseline)
        assert failures == ["tiny: missing from current run"]

    def test_step_drift_is_left_to_the_golden(self):
        # Steps are virtual: the golden pins BENCH_KERNEL.json's steps
        # column exactly, so the wall-time gate does not look at it.
        current, baseline = self._payloads(
            current_eps=100, base_eps=100, current_steps=101, base_steps=100
        )
        assert gate(current, baseline, tolerance=0.25) == []

    def test_tolerance_defaults_from_baseline_payload(self):
        current, baseline = self._payloads(current_eps=97, base_eps=100)
        baseline["tolerance"] = 0.05
        assert gate(current, baseline) == []
        baseline["tolerance"] = 0.01
        assert len(gate(current, baseline)) == 1


class TestRunFleet:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        return run_fleet(TINY, repeats=2, seed=7)

    def test_measures_events(self, tiny_result):
        assert tiny_result.steps > 0
        assert tiny_result.wall_seconds > 0
        assert tiny_result.events_per_sec > 0
        assert tiny_result.repeats == 2

    def test_step_count_is_deterministic(self, tiny_result):
        again = run_fleet(TINY, repeats=1, seed=7)
        assert again.steps == tiny_result.steps

    def test_profiler_attaches_to_last_repeat_only(self):
        profiler = KernelProfiler()
        result = run_fleet(TINY, repeats=2, seed=7, profiler=profiler)
        assert profiler.steps == result.steps

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            run_fleet(TINY, repeats=0)

    def test_format_suite_renders(self, tiny_result):
        table = format_suite([tiny_result])
        assert "kernel speed sweep" in table
        assert "tiny" in table
        assert "events/sec" in table

    def test_default_tolerance_is_documented_value(self):
        assert suite_payload([])["tolerance"] == 0.25
