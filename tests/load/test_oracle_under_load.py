"""Consistency oracles under open-loop traffic with a mid-run crash.

The load observatory's claim is that it can *catch protocol bugs while
traffic is live*, not just draw latency curves. FORD-style logging
(committed data reachable only through coordinator-private logs) leaves
orphan log records when a compute node dies and is replaced, and the
chaos oracle flags them; Pandora's recovery path cleans them up. The
same schedule must therefore fire for ford and stay clean for pandora
— a one-sided check would also pass for an oracle that never fires.
"""

from repro.load import (
    ConservationMonitor,
    OrderIdMonitor,
    WorkloadInvariant,
    run_load_point,
)
from repro.workloads import SmallBank, TpcC


def _conserving_smallbank():
    return SmallBank(accounts=1_000, hot_accounts=200, conserving_only=True)


class _ClusterProbe(WorkloadInvariant):
    """A monitor that only remembers the cluster it was attached to."""

    def attach(self, cluster):
        self.cluster = cluster


class _RestProbe(WorkloadInvariant):
    """A monitor that records why the cluster is busy when it is judged."""

    def check_final(self, cluster, strict=True):
        self.busy = cluster.busy()
        return []


def _crash_point(protocol, *extra_monitors):
    return run_load_point(
        protocol,
        _conserving_smallbank,
        400_000.0,
        duration=14e-3,
        warmup=2e-3,
        users=64,
        check_oracle=True,
        crash_compute=[(0, 6e-3)],
        restart_failed_after=2e-3,
        monitor_factory=lambda workload: [
            ConservationMonitor(workload), *extra_monitors
        ],
    )


class TestOracleUnderLoad:
    def test_ford_crash_leaves_oracle_violations(self):
        result = _crash_point("ford")
        assert result.violations
        assert any("CHAOS-" in violation for violation in result.violations)

    def test_pandora_same_schedule_is_clean(self):
        result = _crash_point("pandora")
        assert result.violations == []
        assert result.commits > 0

    def test_oracle_sees_every_acknowledged_commit_across_the_restart(self):
        probe = _ClusterProbe()
        _crash_point("pandora", probe)
        cluster = probe.cluster
        restarted = cluster.compute_nodes[0].coordinators
        assert sum(coordinator.stats.commits for coordinator in restarted) > 0
        assert len(cluster.record_history()) == cluster.aggregate_stats().commits

    def test_oracle_waits_for_a_late_crash_to_be_recovered(self):
        """A crash 0.2 ms before the horizon is detected only after the
        drain: the oracle must wait until the cluster is at rest, not
        judge while the dead node's ids are unfailed and its locks held."""
        probe = _RestProbe()
        result = run_load_point(
            "pandora",
            lambda: SmallBank(accounts=2_000, hot_accounts=500, conserving_only=True),
            400_000.0,
            duration=10e-3,
            users=64,
            check_oracle=True,
            crash_compute=[(0, 11.8e-3)],
            seed=42,
            monitor_factory=lambda workload: [ConservationMonitor(workload), probe],
        )
        assert probe.busy == ""
        assert result.violations == []

    def test_conservation_monitor_holds_without_faults(self):
        result = run_load_point(
            "pandora",
            _conserving_smallbank,
            200_000.0,
            duration=5e-3,
            warmup=1e-3,
            users=64,
            check_oracle=True,
            monitor_factory=lambda workload: [ConservationMonitor(workload)],
        )
        assert result.violations == []
        assert result.commits > 0

    def test_order_id_monitor_holds_under_tpcc_traffic(self):
        result = run_load_point(
            "pandora",
            lambda: TpcC(warehouses=1, customers_per_district=30, items=200),
            60_000.0,
            duration=5e-3,
            warmup=1e-3,
            users=32,
            monitor_factory=lambda workload: [OrderIdMonitor(workload)],
        )
        assert result.violations == []
        assert result.commits > 0
