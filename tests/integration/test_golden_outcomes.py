"""Golden-outcome parity: seeded virtual behaviour must not move.

Every scenario in :mod:`tests.integration.golden` (five protocols ×
four litmus variants, plus a chaos seed bank) is run once and diffed
field by field against ``golden/outcomes.json``. A behaviour-preserving
change — kernel scheduling, QP batching, strategy restructuring,
instrumentation — leaves every field bit-identical; anything else must
regenerate the file on purpose and say why.
"""

import pytest

from tests.integration.golden import (
    REGENERATE,
    SCENARIOS,
    cluster_fingerprint,
    load_golden,
    moved,
    run_litmus,
    run_scenario,
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_file_covers_exactly_the_scenario_table(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_matches_golden(golden, name):
    fields = moved(golden[name], run_scenario(name))
    assert not fields, (
        f"scenario {name!r} moved off its golden outcome (old → new):\n  "
        + "\n  ".join(fields)
        + f"\nIf the change is meant to alter virtual behaviour, regenerate "
        f"with `{REGENERATE}` and justify the regenerated golden in "
        "CHANGES.md; otherwise it is a bug."
    )


def test_sanitized_matches_unsanitized():
    # Fast path vs instrumented QP/memory path on the same scheduler:
    # hooks must not leak into virtual time.
    plain_report, plain_cluster = run_litmus("pandora", "clean")
    san_report, san_cluster = run_litmus("pandora", "sanitized")
    assert san_report.commits == plain_report.commits
    assert san_cluster.sim.processed_events == plain_cluster.sim.processed_events
    assert cluster_fingerprint(san_cluster) == cluster_fingerprint(plain_cluster)


class TestProfilerParity:
    def test_profiled_run_is_bit_identical(self):
        from repro.bench.kernelperf import FleetSpec, run_fleet
        from repro.obs.profile import KernelProfiler

        spec = FleetSpec("parity", compute_nodes=2, coordinators_per_node=4,
                         keys=500, duration=2e-3)
        plain = run_fleet(spec, repeats=1, seed=5)
        profiled = run_fleet(spec, repeats=1, seed=5, profiler=KernelProfiler())
        assert profiled.steps == plain.steps
