"""Tests for the recovery manager: the four-step protocol of §3.2.2.

The fixtures are finished runs shared read-only by the tests that
judge them: each crashes one node at 10 ms and runs until its recovery
has finished.
"""

from types import SimpleNamespace

import pytest

from repro import Cluster, ClusterConfig
from repro.memory.node import LogRecord
from repro.protocol.locks import encode_lock, is_locked
from repro.workloads import MicroBenchmark


def make_cluster(protocol="pandora", **overrides):
    defaults = dict(
        coordinators_per_node=4,
        seed=31,
        protocol=protocol,
        fd_timeout=2e-3,
        fd_heartbeat_interval=0.5e-3,
        fd_check_interval=0.25e-3,
    )
    defaults.update(overrides)
    workload = MicroBenchmark(num_keys=400, write_ratio=1.0, hot_keys=100)
    cluster = Cluster(ClusterConfig(**defaults), workload)
    cluster.start()
    return cluster


def recovered(cluster):
    """Run *cluster* until its first recovery finished; return its record."""
    records = cluster.recovery.records
    while not (records and records[0].finished_at > 0):
        assert cluster.sim.now < 0.200, "recovery never finished"
        cluster.run(until=cluster.sim.now + 1e-3)
    return records[0]


@pytest.fixture(scope="module")
def pill_crash():
    """Pandora: compute node 0 crashes. Returns the cluster and the
    crashed node's coordinator ids."""
    cluster = make_cluster()
    crashed_ids = cluster.compute_nodes[0].coordinator_ids()
    cluster.crash_compute(0, at=0.010)
    recovered(cluster)
    return cluster, crashed_ids


class TestComputeRecoverySteps:
    def test_four_steps_in_order(self, pill_crash):
        cluster, _ = pill_crash
        record = cluster.recovery.records[0]
        assert record.kind == "compute"
        assert (
            record.detected_at
            <= record.fenced_at
            <= record.log_recovered_at
            <= record.notified_at
            <= record.finished_at
        )

    def test_links_revoked_before_log_recovery(self, pill_crash):
        cluster, _ = pill_crash
        for memory in cluster.memory_nodes.values():
            assert memory.is_revoked(0)

    def test_failed_ids_delivered_to_live_nodes(self, pill_crash):
        cluster, crashed_ids = pill_crash
        survivor = cluster.compute_nodes[1]
        assert set(crashed_ids).issubset(set(survivor.failed_ids))

    def test_log_regions_truncated(self, pill_crash):
        cluster, crashed_ids = pill_crash
        for coord_id in crashed_ids:
            for node_id in cluster.catalog.log_nodes(coord_id):
                region = cluster.memory_nodes[node_id].log_regions.get(coord_id)
                if region is not None:
                    assert region.valid_records() == []

    def test_recovery_latency_is_milliseconds(self, pill_crash):
        """Table 2's headline: log recovery completes in ms, not s."""
        cluster, _ = pill_crash
        record = cluster.recovery.records[0]
        assert record.log_recovery_latency < 10e-3

    def test_survivors_never_pause_under_pill(self, pill_crash):
        """Non-blocking recovery: live nodes keep committing through
        the entire recovery window."""
        cluster, _ = pill_crash
        record = cluster.recovery.records[0]
        during = cluster.timeline.rate_between(
            record.detected_at, record.finished_at + 1e-3
        )
        assert during > 0
        assert not cluster.compute_nodes[1].paused


class TestRollForwardCriterion:
    """Cor2/Cor3: roll forward iff every replica of every write is
    updated; otherwise roll back from the undo images."""

    def _plant_log(self, cluster, coord_id, entries, txn_id=7777):
        for node_id in cluster.catalog.log_nodes(coord_id):
            cluster.memory_nodes[node_id]._op_write_log(
                0, (LogRecord(coord_id=coord_id, txn_id=txn_id, entries=entries),)
            )

    def _slot_entry(self, cluster, key):
        catalog = cluster.catalog
        slot = catalog.slot_for(0, key)
        return slot, catalog.replicas(0, slot)

    def test_fully_applied_txn_rolls_forward(self):
        cluster = make_cluster()
        cluster.run(until=0.002)
        coord = cluster.compute_nodes[0].coordinators[0]
        slot, replicas = self._slot_entry(cluster, 350)
        # Apply the "new" version everywhere and leave the lock held.
        base = cluster.memory_nodes[replicas[0]].slot(0, slot).version
        for node_id in replicas:
            entry = cluster.memory_nodes[node_id].slot(0, slot)
            entry.version = base + 1
            entry.value = "new-value"
        primary = cluster.catalog.primary(0, slot)
        cluster.memory_nodes[primary].slot(0, slot).lock = encode_lock(coord.coord_id)
        self._plant_log(
            cluster,
            coord.coord_id,
            ((0, slot, 350, base, base + 1, "old-value", "new-value", True, True),),
        )
        cluster.crash_compute(0)
        cluster.run(until=0.040)
        record = cluster.recovery.records[0]
        assert record.rolled_forward >= 1
        # The update survives and the stray lock is released.
        entry = cluster.memory_nodes[primary].slot(0, slot)
        assert entry.value == "new-value"
        assert not is_locked(entry.lock)

    def test_partially_applied_txn_rolls_back(self):
        cluster = make_cluster()
        cluster.run(until=0.002)
        coord = cluster.compute_nodes[0].coordinators[0]
        slot, replicas = self._slot_entry(cluster, 350)
        base = cluster.memory_nodes[replicas[0]].slot(0, slot).version
        # Apply the new version on the primary ONLY (partial commit).
        primary = cluster.catalog.primary(0, slot)
        entry = cluster.memory_nodes[primary].slot(0, slot)
        entry.version = base + 1
        entry.value = "new-value"
        entry.lock = encode_lock(coord.coord_id)
        self._plant_log(
            cluster,
            coord.coord_id,
            ((0, slot, 350, base, base + 1, "old-value", "new-value", True, True),),
        )
        cluster.crash_compute(0)
        cluster.run(until=0.040)
        record = cluster.recovery.records[0]
        assert record.rolled_back >= 1
        # The undo image is restored on the updated replica.
        entry = cluster.memory_nodes[primary].slot(0, slot)
        assert entry.value == "old-value"
        assert entry.version == base
        assert not is_locked(entry.lock)

    def test_multi_object_partial_rolls_back_all(self):
        cluster = make_cluster()
        cluster.run(until=0.002)
        coord = cluster.compute_nodes[0].coordinators[0]
        slot_a, replicas_a = self._slot_entry(cluster, 351)
        slot_b, _replicas_b = self._slot_entry(cluster, 352)
        base_a = cluster.memory_nodes[replicas_a[0]].slot(0, slot_a).version
        base_b = cluster.memory_nodes[
            cluster.catalog.primary(0, slot_b)
        ].slot(0, slot_b).version
        # A fully applied, B untouched -> the whole txn must roll back.
        for node_id in replicas_a:
            entry = cluster.memory_nodes[node_id].slot(0, slot_a)
            entry.version = base_a + 1
            entry.value = "A-new"
        self._plant_log(
            cluster,
            coord.coord_id,
            (
                (0, slot_a, 351, base_a, base_a + 1, "A-old", "A-new", True, True),
                (0, slot_b, 352, base_b, base_b + 1, "B-old", "B-new", True, True),
            ),
        )
        cluster.crash_compute(0)
        cluster.run(until=0.040)
        for node_id in replicas_a:
            assert cluster.memory_nodes[node_id].slot(0, slot_a).value == "A-old"


class TestIdempotentRecovery:
    def test_log_recovery_reexecution_is_safe(self):
        """§3.2.3: any recovery step can be re-executed."""
        cluster = make_cluster()
        cluster.run(until=0.002)
        coord = cluster.compute_nodes[0].coordinators[0]
        catalog = cluster.catalog
        slot = catalog.slot_for(0, 350)
        primary = catalog.primary(0, slot)
        base = cluster.memory_nodes[primary].slot(0, slot).version
        entry = cluster.memory_nodes[primary].slot(0, slot)
        entry.version = base + 1
        entry.value = "new-value"
        entry.lock = encode_lock(coord.coord_id)
        for node_id in catalog.log_nodes(coord.coord_id):
            cluster.memory_nodes[node_id]._op_write_log(
                0,
                (
                    LogRecord(
                        coord_id=coord.coord_id,
                        txn_id=1,
                        entries=(
                            (0, slot, 350, base, base + 1, "old", "new-value", True, True),
                        ),
                    ),
                ),
            )
        cluster.crash_compute(0)
        cluster.run(until=0.040)
        value_after_first = cluster.memory_nodes[primary].slot(0, slot).value

        # Re-run the whole compute recovery once more.
        cluster.recovery._in_progress.discard(("compute", 0))
        cluster.recovery.handle_compute_failure(cluster.compute_nodes[0])
        cluster.run(until=0.080)
        assert cluster.memory_nodes[primary].slot(0, slot).value == value_after_first
        assert len(cluster.recovery.records) == 2


@pytest.fixture(scope="class")
def scan_crash():
    """Baseline: compute node 0 crashes under stop-the-world scan
    recovery, watched from the start by a probe for survivor pauses.
    Once recovery finished, traffic is quiesced — live coordinators may
    hold fresh locks mid-txn — so every lock left is recovery's."""
    cluster = make_cluster(protocol="baseline", drain_delay=1e-3)
    survivor = cluster.compute_nodes[1]
    paused_at = []

    def probe():
        while True:
            if survivor.paused:
                paused_at.append(cluster.sim.now)
            yield cluster.sim.timeout(0.2e-3)

    cluster.sim.process(probe())
    cluster.crash_compute(0, at=0.010)
    recovered(cluster)
    run = SimpleNamespace(
        cluster=cluster, paused_at=tuple(paused_at), paused_after=survivor.paused
    )
    for node in cluster.compute_nodes.values():
        node.pause()
    cluster.run(until=cluster.sim.now + 2e-3)
    return run


class TestScanRecovery:
    def test_baseline_pauses_survivors(self, scan_crash):
        assert scan_crash.paused_at  # stop-the-world happened
        assert not scan_crash.paused_after  # and was lifted

    def test_scan_releases_stray_locks(self, scan_crash):
        cluster = scan_crash.cluster
        record = cluster.recovery.records[0]
        assert record.scanned_slots > 0
        # After the scan no lock survives anywhere.
        total_locked = sum(
            len(memory.locked_slots(table_id))
            for memory in cluster.memory_nodes.values()
            for table_id in memory.tables
        )
        assert total_locked == 0

    def test_scan_recovery_is_orders_of_magnitude_slower(self, pill_crash, scan_crash):
        pill_latency = pill_crash[0].recovery.records[0].log_recovery_latency
        scan_latency = scan_crash.cluster.recovery.records[0].log_recovery_latency
        assert scan_latency > 10 * pill_latency


@pytest.fixture(scope="class")
def memory_crash():
    """Memory node 0 of three (replication 2) crashes; the run goes on
    to 35 ms, well past the reconfiguration."""
    cluster = make_cluster(memory_nodes=3, replication_degree=2)
    cluster.crash_memory(0, at=0.010)
    recovered(cluster)
    cluster.run(until=0.035)
    return cluster


class TestMemoryFailure:
    def test_memory_failure_promotes_new_primaries(self, memory_crash):
        cluster = memory_crash
        victim = 0
        assert victim in cluster.placement.down_nodes
        # Every slot still has a live primary.
        for key in range(400):
            slot = cluster.catalog.slot_for(0, key)
            assert cluster.catalog.primary(0, slot) != victim

    def test_throughput_recovers_after_memory_failure(self, memory_crash):
        cluster = memory_crash
        # The window sits wholly after the reconfiguration finished.
        assert cluster.recovery.records[0].finished_at <= 0.020
        post = cluster.timeline.rate_between(0.020, 0.035)
        assert post > 0

    def test_compute_side_decision_rule(self):
        """In-flight txns at the moment of a memory failure either
        commit (all live replicas updated) or roll back — afterwards
        all live replicas agree."""
        cluster = make_cluster(memory_nodes=3, replication_degree=3)
        cluster.crash_memory(0, at=0.020)
        cluster.run(until=0.070)
        for node in cluster.compute_nodes.values():
            node.pause()
        cluster.run(until=0.072)
        catalog = cluster.catalog
        for key in range(400):
            slot = catalog.slot_for(0, key)
            values = {
                cluster.memory_nodes[node_id].slot(0, slot).version
                for node_id in catalog.replicas(0, slot)
                if cluster.memory_nodes[node_id].alive
            }
            assert len(values) == 1, f"replica divergence at key {key}"
