"""Tests for the benchmark harness (small scales)."""

import pytest

from repro.bench.harness import (
    default_config,
    run_failover,
    run_mttf,
    run_recovery_latency,
    run_steady_state,
)
from repro.bench.report import format_series, format_table
from repro.protocol.types import BugFlags
from repro.workloads import MicroBenchmark


def tiny_micro():
    return MicroBenchmark(num_keys=500, write_ratio=1.0)


class TestDefaultConfig:
    def test_matches_paper_topology(self):
        config = default_config()
        assert config.memory_nodes == 2
        assert config.compute_nodes == 2
        assert config.replication_degree == 2
        assert config.fd_timeout == pytest.approx(5e-3)

    def test_overrides(self):
        config = default_config(protocol="tradlog", coordinators_per_node=4)
        assert config.protocol == "tradlog"
        assert config.coordinators_per_node == 4


class TestSteadyState:
    def test_returns_positive_throughput(self):
        result = run_steady_state(
            tiny_micro, "pandora", duration=5e-3, warmup=1e-3,
            coordinators_per_node=2,
        )
        assert result.throughput > 0
        assert result.commits > 0
        assert 0 <= result.abort_rate < 1
        assert result.p50_latency > 0

    def test_row_renders(self):
        result = run_steady_state(
            tiny_micro, "pandora", duration=5e-3, warmup=1e-3,
            coordinators_per_node=2,
        )
        assert "pandora" in result.row()


class TestFailover:
    def test_compute_crash_timeline(self):
        result = run_failover(
            tiny_micro,
            "pandora",
            crash_kind="compute",
            crash_at=10e-3,
            duration=30e-3,
            coordinators_per_node=2,
        )
        assert result.pre_rate > 0
        assert result.recovery_records
        assert result.recovery_records[0].kind == "compute"
        assert len(result.series) > 5

    def test_memory_crash_gets_three_nodes(self):
        result = run_failover(
            tiny_micro,
            "pandora",
            crash_kind="memory",
            crash_at=10e-3,
            duration=30e-3,
            coordinators_per_node=2,
        )
        assert result.recovery_records[0].kind == "memory"

    def test_invalid_crash_kind(self):
        with pytest.raises(ValueError):
            run_failover(tiny_micro, crash_kind="disk")

    def test_reuse_restores_capacity(self):
        no_reuse = run_failover(
            tiny_micro, "pandora", crash_at=10e-3, duration=50e-3,
            reuse_resources=False, coordinators_per_node=2,
        )
        reuse = run_failover(
            tiny_micro, "pandora", crash_at=10e-3, duration=50e-3,
            reuse_resources=True, restart_after=5e-3, coordinators_per_node=2,
        )
        assert reuse.post_rate > no_reuse.post_rate


class TestRecoveryLatency:
    def test_latency_positive_and_small(self):
        result = run_recovery_latency(
            tiny_micro, coordinators_per_node=2, crash_at=5e-3
        )
        assert 0 < result.latency < 50e-3
        assert result.coordinators == 2


class TestMttf:
    def test_no_failures_baseline(self):
        result = run_mttf(
            tiny_micro, None, duration=15e-3, coordinators_per_node=2
        )
        assert result.throughput > 0

    def test_failures_run(self):
        result = run_mttf(
            tiny_micro,
            5e-3,
            duration=30e-3,
            repair_time=1e-3,
            coordinators_per_node=2,
            fd_timeout=2e-3,
        )
        assert result.throughput > 0


class TestSanitizedRunsRaise:
    """All four runners share one body, so a sanitized run that
    collected a PILL violation raises it from each of them
    (``run_recovery_latency`` and ``run_mttf`` used to drop it)."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda hot, **kw: run_steady_state(hot, duration=2e-3, warmup=0.5e-3, **kw),
            lambda hot, **kw: run_failover(hot, crash_at=1e-3, duration=3e-3, **kw),
            lambda hot, **kw: run_recovery_latency(hot, crash_at=1e-3, **kw),
            lambda hot, **kw: run_mttf(hot, None, duration=6e-3, **kw),
        ],
        ids=["steady_state", "failover", "recovery_latency", "mttf"],
    )
    def test_first_violation_is_raised(self, run):
        from repro.analysis.sanitizer import UNLOCK_BY_NON_OWNER, SanitizerViolation

        with pytest.raises(SanitizerViolation) as raised:
            run(
                # Two coordinators fighting over eight keys, with the
                # abort path releasing locks it never took (Table 1 C1).
                lambda: MicroBenchmark(num_keys=8, write_ratio=1.0),
                protocol="pandora",
                bugs=BugFlags(complicit_abort=True),
                sanitize=True,
                coordinators_per_node=1,
            )
        assert raised.value.code == UNLOCK_BY_NON_OWNER


class TestReportFormatting:
    def test_table(self):
        text = format_table("Title", ["a", "bb"], [(1, 2), ("xx", "y")], note="n")
        assert "Title" in text
        assert "xx" in text
        assert text.endswith("n\n")

    def test_series_plot(self):
        text = format_series(
            "T", [(0.0, 10.0), (0.001, 5.0)], markers=[(0.001, "crash")]
        )
        assert "#" in text
        assert "crash" in text

    def test_empty_series(self):
        assert "empty" in format_series("T", [])
