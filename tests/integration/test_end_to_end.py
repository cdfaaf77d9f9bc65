"""Cross-module integration: full cluster runs under fault schedules.

These are the heaviest tests in the suite: they run every protocol
variant through crashes and verify global invariants on the final
memory state, exactly the way an operator would audit the store.
"""

import pytest

from repro import Cluster, ClusterConfig
from repro.protocol.locks import is_locked, owner_of
from repro.workloads import MicroBenchmark, SmallBank
from repro.workloads.smallbank import INITIAL_BALANCE


def quiesce(cluster, extra=2e-3):
    for node in cluster.compute_nodes.values():
        node.pause()
    cluster.run(until=cluster.sim.now + extra)


def replica_divergences(cluster):
    divergences = 0
    catalog = cluster.catalog
    for spec in catalog.tables.values():
        for slot in range(catalog.key_count(spec.table_id)):
            states = {
                (
                    cluster.memory_nodes[node].slot(spec.table_id, slot).version,
                    cluster.memory_nodes[node].slot(spec.table_id, slot).present,
                )
                for node in catalog.replicas(spec.table_id, slot)
                if cluster.memory_nodes[node].alive
            }
            if len(states) > 1:
                divergences += 1
    return divergences


@pytest.mark.parametrize("protocol", ["pandora", "baseline", "tradlog"], scope="class")
class TestCrashConsistency:
    @pytest.fixture(scope="class")
    def cluster(self, protocol):
        """One finished crash-recover-quiesce run per protocol; every
        test below audits its final memory state without mutating it."""
        cluster = Cluster(
            ClusterConfig(
                protocol=protocol,
                coordinators_per_node=4,
                seed=51,
                fd_timeout=2e-3,
                fd_heartbeat_interval=0.5e-3,
            ),
            MicroBenchmark(num_keys=300, write_ratio=1.0, hot_keys=60),
        )
        cluster.start()
        cluster.crash_compute(0, at=0.008)
        horizon = 0.15 if protocol == "baseline" else 0.04
        cluster.run(until=horizon)
        quiesce(cluster)
        return cluster

    def test_replicas_converge_after_compute_crash(self, cluster, protocol):
        assert replica_divergences(cluster) == 0

    def test_no_foreign_locks_leak(self, cluster, protocol):
        """After recovery + quiesce, any remaining lock belongs to a
        *live* coordinator (Pandora) or nobody (scan/locklog modes
        clean everything)."""
        failed = set(cluster.id_allocator.failed_ids())
        for memory in cluster.memory_nodes.values():
            for table_id in memory.tables:
                for slot in memory.locked_slots(table_id):
                    word = memory.slot(table_id, slot).lock
                    if protocol == "pandora":
                        # Stray locks are allowed to linger (PILL
                        # steals on demand) but only if attributable
                        # to a failed coordinator.
                        assert is_locked(word)
                        assert owner_of(word) in failed
                    else:
                        pytest.fail(
                            f"{protocol}: leaked lock {word:#x} at "
                            f"table {table_id} slot {slot}"
                        )


class TestRepeatedFailures:
    def test_three_sequential_compute_crashes(self):
        """Crash-restart-crash cycles: ids stay unique, stray locks
        from each generation remain attributable, money conserved."""
        workload = SmallBank(accounts=400, conserving_only=True)
        cluster = Cluster(
            ClusterConfig(
                protocol="pandora",
                coordinators_per_node=4,
                seed=53,
                fd_timeout=2e-3,
                fd_heartbeat_interval=0.5e-3,
                restart_failed_after=3e-3,
            ),
            workload,
        )
        cluster.start()
        for crash_time in (0.008, 0.025, 0.042):
            cluster.crash_compute(0, at=crash_time)
        cluster.run(until=0.070)
        compute_recoveries = [
            r for r in cluster.recovery.records if r.kind == "compute"
        ]
        assert len(compute_recoveries) == 3
        quiesce(cluster)
        total = workload.total_balance(cluster.catalog, cluster.memory_nodes)
        assert total == 2 * 400 * INITIAL_BALANCE

    def test_compute_and_memory_failures_together(self):
        """§3.2.5: 'In the case where memory and compute servers fail
        together, we execute both protocols independently.'"""
        workload = SmallBank(accounts=400, conserving_only=True)
        cluster = Cluster(
            ClusterConfig(
                protocol="pandora",
                memory_nodes=3,
                replication_degree=2,
                coordinators_per_node=4,
                seed=54,
                fd_timeout=2e-3,
                fd_heartbeat_interval=0.5e-3,
            ),
            workload,
        )
        cluster.start()
        cluster.crash_compute(0, at=0.010)
        cluster.crash_memory(0, at=0.011)
        cluster.run(until=0.060)
        kinds = {record.kind for record in cluster.recovery.records}
        assert kinds == {"compute", "memory"}
        quiesce(cluster)
        # Audit on live replicas only.
        total = 0
        catalog = cluster.catalog
        for table_id in (0, 1):
            for account in range(400):
                slot = catalog.slot_for(table_id, account)
                primary = catalog.primary(table_id, slot)
                entry = cluster.memory_nodes[primary].slot(table_id, slot)
                if entry.present:
                    total += entry.value
        assert total == 2 * 400 * INITIAL_BALANCE


class TestSerializabilityUnderCrashes:
    def test_committed_history_is_serializable_across_a_crash(self):
        from repro.litmus.checker import check_history

        cluster = Cluster(
            ClusterConfig(
                protocol="pandora",
                coordinators_per_node=4,
                seed=55,
                fd_timeout=2e-3,
                fd_heartbeat_interval=0.5e-3,
            ),
            MicroBenchmark(num_keys=200, write_ratio=0.7, rmw=True, hot_keys=40),
        )
        history = cluster.record_history()
        cluster.start()
        cluster.crash_compute(0, at=0.008)
        cluster.run(until=0.030)
        assert len(history) > 200
        assert check_history(history)
