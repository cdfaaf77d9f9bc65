"""Protocol correctness on a lossy, jittery fabric.

The fabric's loss model charges geometric retransmission delay — loss
never drops a reliable-connection verb, it only makes it (much) later.
Correctness must therefore be completely insensitive to loss and
jitter; these tests run the litmus suite and chaos schedules of random
traffic under an aggressive fabric and expect exactly the clean results
of a quiet one, with the PILL sanitizer shadowing the lock table
throughout.
"""

import pytest

from repro.chaos import ChaosRunner, run_schedule
from repro.chaos.schedule import Fault, Schedule
from repro.litmus import LITMUS_SUITE, LitmusRunner

LOSS = 0.2
JITTER = 2e-6


class TestLitmusUnderLoss:
    @pytest.mark.parametrize(
        "spec",
        [s for s in LITMUS_SUITE() if s.name in ("litmus-1", "litmus-2", "litmus-3")],
        ids=lambda s: s.name,
    )
    def test_litmus_clean_on_lossy_fabric(self, spec):
        runner = LitmusRunner(
            spec,
            protocol="pandora",
            rounds=12,
            crash_probability=0.3,
            seed=23,
            loss_probability=LOSS,
            jitter=JITTER,
            sanitize=True,
        )
        report = runner.run()
        assert report.passed, [v.description for v in report.violations]
        sanitizer = runner.cluster.sanitizer
        assert sanitizer is not None and not sanitizer.violations


def _lossy_schedule(seed, loss=LOSS, crash=True, duration=10e-3):
    """Random traffic on a fabric degraded for the whole run and, with
    *crash*, one compute crash halfway through."""
    faults = [
        Fault(kind="net_degrade", at=0.0, after=duration, loss=loss, jitter=JITTER)
    ]
    if crash:
        faults.append(Fault(kind="crash_compute", at=duration / 2, node=1))
    return Schedule(seed=seed, family="lossy", duration=duration, faults=faults)


class TestFuzzerUnderLoss:
    def test_fuzz_serializable_on_lossy_fabric(self):
        runner = ChaosRunner(_lossy_schedule(31), sanitize=True)
        result = runner.run()
        assert result.ok, [v.detail for v in result.violations]
        assert result.committed > 0 and result.crashes == 1
        sanitizer = runner.cluster.sanitizer
        assert sanitizer is not None and not sanitizer.violations

    def test_lossy_run_is_deterministic_per_seed(self):
        """Loss and jitter draw from the seeded RNG: same seed, same
        committed history — the property chaos replay relies on."""

        def run(seed):
            runner = ChaosRunner(_lossy_schedule(seed))
            runner.run()
            return runner.history

        first, second = run(17), run(17)
        assert first == second
        assert run(18) != first

    def test_loss_slows_but_does_not_stop_progress(self):
        quiet = run_schedule(Schedule(seed=5, family="none", duration=8e-3))
        lossy = run_schedule(_lossy_schedule(5, loss=0.4, crash=False, duration=8e-3))
        assert quiet.ok and lossy.ok
        assert 0 < lossy.committed < quiet.committed
