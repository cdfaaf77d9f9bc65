"""Tests for the chaos campaign runner and consistency oracle.

The seed bank here is small (chaos runs build a full cluster each);
the CI ``chaos`` job and ``repro chaos --seeds 50`` run the wide bank.
"""

from dataclasses import replace

import pytest

from repro.chaos import ChaosRunner, generate_schedule, run_schedule
from repro.chaos.schedule import Fault, Schedule

# One seed per fault family (seed % 5 selects the family).
FAMILY_SEEDS = (0, 1, 2, 3, 4)


class TestCampaign:
    @pytest.mark.parametrize("seed", FAMILY_SEEDS)
    def test_family_seed_clean(self, seed):
        """Every fault family runs to quiescence with a clean oracle."""
        result = run_schedule(generate_schedule(seed))
        assert result.ok, [v.detail for v in result.violations]
        assert result.crashes > 0 or result.schedule.family == "fd_false_positive"

    @pytest.mark.parametrize("seed", FAMILY_SEEDS)
    def test_history_holds_every_acknowledged_commit(self, seed):
        """The oracle judges the commits clients were told about — all
        of them. Coordinators a restart spawns record from their first
        commit (found by polling, they used to lose their first few
        dozen to CHAOS-SERIAL and CHAOS-DURABLE)."""
        runner = ChaosRunner(generate_schedule(seed))
        result = runner.run()
        assert result.committed == len(runner.history)
        assert len(runner.history) == runner.cluster.aggregate_stats().commits

    def test_recovery_kill_lands(self):
        """The recovery_crash family really kills recovery mid-flight
        (a watcher that always misses would test nothing)."""
        result = run_schedule(generate_schedule(1))
        assert result.recovery_kills >= 1

    def test_same_seed_same_fingerprint(self):
        """Bit-identical replay: same schedule, same final state."""
        schedule = generate_schedule(2)
        first = run_schedule(schedule)
        second = run_schedule(schedule)
        assert first.fingerprint == second.fingerprint
        assert first.committed == second.committed
        assert first.crashes == second.crashes

    def test_commits_happen_under_chaos(self):
        """The workload makes real progress despite the fault load."""
        result = run_schedule(generate_schedule(0))
        assert result.committed > 0

    def test_sanitize_mode_clean(self):
        """The PILL sanitizer rides along without new violations."""
        result = run_schedule(generate_schedule(1), sanitize=True)
        assert result.ok, [v.detail for v in result.violations]

    def test_summary_mentions_seed_and_family(self):
        result = run_schedule(generate_schedule(3))
        summary = result.summary()
        assert "seed=3" in summary and "logserver" in summary

    def test_redetections_surface_in_result_and_summary(self):
        """When the schedule's own recovery re-trigger is pushed past
        the run (restart_after > duration), only the FD's re-detection
        can heal the killed recovery — and the result counts it."""
        schedule = Schedule(
            seed=999,
            family="recovery_crash",
            duration=20e-3,
            faults=[
                Fault(kind="crash_compute", at=4e-3, node=0),
                Fault(
                    kind="crash_recovery",
                    node=0,
                    # Strike 5us in: compute recovery completes in tens
                    # of us, so a longer delay misses it entirely.
                    after=5e-6,
                    restart_after=1.0,
                ),
            ],
        )
        result = run_schedule(schedule)
        assert result.ok, [v.detail for v in result.violations]
        assert result.recovery_kills >= 1
        assert result.redetections >= 1
        assert f"redetects={result.redetections}" in result.summary()


class TestOraclePositiveControl:
    def test_published_ford_bugs_are_caught(self):
        """FORD with the Table 1 bugs present must fail the oracle —
        otherwise the oracle is vacuous."""
        schedule = replace(generate_schedule(0), protocol="ford")
        result = run_schedule(schedule)
        codes = {violation.code for violation in result.violations}
        assert codes, "oracle passed a protocol with six published bugs"
        assert codes & {"CHAOS-SERIAL", "CHAOS-LOG", "CHAOS-LOCK"}
