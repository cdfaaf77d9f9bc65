"""Tests for chaos schedules: generation, JSON round trip, coverage."""

import pathlib

import pytest

from repro.chaos import (
    ALL_CRASH_POINTS,
    FAMILIES,
    Fault,
    Schedule,
    generate_schedule,
)


class TestGeneration:
    def test_same_seed_same_schedule(self):
        assert generate_schedule(17).to_dict() == generate_schedule(17).to_dict()

    def test_different_seeds_differ(self):
        assert generate_schedule(0).to_dict() != generate_schedule(5).to_dict()

    def test_contiguous_bank_spans_all_families(self):
        families = {generate_schedule(seed).family for seed in range(5)}
        assert families == set(FAMILIES)

    def test_bank_spans_every_crash_point(self):
        """A bank of len(ALL_CRASH_POINTS) seeds hits every protocol
        boundary, including the interrupt-resolution points."""
        points = set()
        for seed in range(len(ALL_CRASH_POINTS)):
            for fault in generate_schedule(seed).faults:
                if fault.kind == "crash_point":
                    points.add(fault.point)
        assert points >= set(ALL_CRASH_POINTS)

    def test_every_schedule_has_faults(self):
        for seed in range(25):
            assert generate_schedule(seed).faults


class TestJsonRoundTrip:
    def test_round_trip_identity(self):
        for seed in range(10):
            schedule = generate_schedule(seed)
            assert Schedule.from_json(schedule.to_json()).to_dict() == schedule.to_dict()

    def test_unknown_version_rejected(self):
        data = generate_schedule(0).to_dict()
        data["version"] = 999
        with pytest.raises(ValueError):
            Schedule.from_dict(data)

    def test_without_fault(self):
        schedule = generate_schedule(0)
        smaller = schedule.without_fault(0)
        assert len(smaller.faults) == len(schedule.faults) - 1
        # The original is untouched (copies, not aliases).
        smaller.faults[0].at = 123.0
        assert schedule.faults[1].at != 123.0

    def test_fault_defaults_survive(self):
        fault = Fault(kind="crash_compute", node=1, at=2e-3)
        restored = Schedule.from_dict(
            Schedule(seed=0, family="cascade", faults=[fault]).to_dict()
        )
        assert restored.faults[0] == fault


class TestLoadValidation:
    """A hand-edited artifact that is wrong says where, in one
    ValueError, when it is loaded — not three frames into the run."""

    @staticmethod
    def _data(**changes):
        fault = {"kind": "crash_compute", "node": 1, "at": 2e-3}
        return {"version": 2, "seed": 3, "family": "cascade", "faults": [fault], **changes}

    @pytest.mark.parametrize(
        "changes, names",
        [
            ({"faults": [{"kind": "crash_compute", "att": 0.001}]}, ["fault 0", "'att'"]),
            (
                {"faults": [{"kind": "crash_compute"}, {"kind": "crash_computer"}]},
                ["fault 1", "'crash_computer'", "crash_compute,"],
            ),
            ({"faults": [{"node": 1}]}, ["fault 0", "missing", "'kind'"]),
            ({"faults": ["crash_compute"]}, ["fault 0", "JSON object"]),
            ({"protocol": "pandoro"}, ["'pandoro'", "pandora"]),
            ({"version": 9}, ["version 9"]),
            ({"sead": 3}, ["schedule", "'sead'"]),
            (
                {"faults": [{"kind": "crash_point"}, {"kind": "crash_point", "point": "decison"}]},
                ["fault 1", "unknown crash point 'decison'", "decision,"],
            ),
        ],
    )
    def test_the_error_names_the_problem(self, changes, names):
        with pytest.raises(ValueError) as error:
            Schedule.from_dict(self._data(**changes))
        for name in names:
            assert name in str(error.value)

    def test_missing_seed_is_named(self):
        data = self._data()
        del data["seed"]
        with pytest.raises(ValueError, match="missing key 'seed'"):
            Schedule.from_dict(data)

    def test_fault_kinds_are_the_runner_s_appliers(self):
        from repro.chaos import FAULT_KINDS
        from repro.chaos.campaign import ChaosRunner

        appliers = {name[len("_arm_"):] for name in vars(ChaosRunner) if name.startswith("_arm_")}
        assert set(FAULT_KINDS) == appliers

    def test_every_committed_artifact_still_loads(self):
        artifacts = sorted((pathlib.Path(__file__).parent / "schedules").glob("*.json"))
        assert artifacts
        for path in artifacts:
            schedule = Schedule.from_json(path.read_text())
            assert schedule.faults, path.name
