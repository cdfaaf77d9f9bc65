"""Tests for cluster configuration, wiring, and restart."""

import pytest

from repro import Cluster
from repro.cluster.config import ClusterConfig as Config
from repro.workloads import MicroBenchmark


def workload():
    return MicroBenchmark(num_keys=200, write_ratio=1.0)


class TestConfigValidation:
    def test_defaults_valid(self):
        Config().validate()

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            Config(protocol="raft").validate()

    def test_replication_exceeds_memory_nodes(self):
        with pytest.raises(ValueError):
            Config(memory_nodes=2, replication_degree=3).validate()

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            Config(compute_nodes=0).validate()

    @pytest.mark.parametrize(
        "name",
        [
            "fd_heartbeat_interval",
            "fd_check_interval",
            "throughput_window",
        ],
    )
    @pytest.mark.parametrize("value", [0, -1e-3])
    def test_non_positive_period_rejected_by_name(self, name, value):
        # A zero heartbeat period used to pass validate() and then spin
        # the cluster forever at one virtual instant.
        with pytest.raises(ValueError, match=name):
            Config(**{name: value}).validate()


class TestWiring:
    def test_coordinator_ids_unique_across_nodes(self):
        cluster = Cluster(Config(coordinators_per_node=8), workload())
        ids = [c.coord_id for c in cluster.all_coordinators()]
        assert len(ids) == len(set(ids)) == 16

    def test_double_start_raises(self):
        cluster = Cluster(Config(), workload())
        cluster.start()
        with pytest.raises(RuntimeError):
            cluster.start()

    def test_live_coordinator_count(self):
        cluster = Cluster(Config(coordinators_per_node=4), workload())
        cluster.start()
        assert cluster.live_coordinator_count() == 8
        cluster.crash_compute(0)
        assert cluster.live_coordinator_count() == 4

    def test_busy_names_what_is_not_at_rest(self):
        cluster = Cluster(
            Config(coordinators_per_node=2, seed=3, fd_timeout=2e-3), workload()
        )
        cluster.start(run_coordinators=False)
        recovery = cluster.recovery
        assert cluster.busy() == "" and recovery.recovering() == []
        cluster.crash_memory(1)
        assert "m1" in cluster.busy()  # dead, placement not yet reconfigured
        cluster.crash_compute(0)
        assert "c0" in cluster.busy()  # dead, ids not yet marked failed
        reasons = set()
        while cluster.busy() and cluster.sim.now < 0.040:
            cluster.run(until=cluster.sim.now + 20e-6)
            reasons.add(cluster.busy())
            if recovery.recovering("compute"):
                assert recovery.recovering("compute", 0) == [("compute", 0)]
                assert recovery.recovering("compute", 1) == []
                assert ("compute", 0) in recovery.recovering(node_id=0)
        assert cluster.busy() == ""
        assert any("recovery in flight" in reason for reason in reasons)

    def test_protocol_selection(self):
        for name, expected in [
            ("pandora", "pandora"),
            ("ford", "ford"),
            ("baseline", "ford"),
            ("tradlog", "tradlog"),
        ]:
            cluster = Cluster(Config(protocol=name), workload())
            engine = cluster.all_coordinators()[0].engine
            assert engine.name == expected

    def test_ford_published_keeps_bugs(self):
        cluster = Cluster(Config(protocol="ford"), workload())
        assert cluster.all_coordinators()[0].engine.bugs.any_enabled()

    def test_baseline_fixes_bugs(self):
        cluster = Cluster(Config(protocol="baseline"), workload())
        assert not cluster.all_coordinators()[0].engine.bugs.any_enabled()


class TestProtocolDeclaration:
    """``ClusterConfig.protocol`` takes a ``ZOO`` name or a ``Protocol``
    declaration of the caller's own (mutants are rows in no table)."""

    @staticmethod
    def _variant():
        from dataclasses import replace

        from repro.protocol.strategies import PillCasLockStrategy
        from repro.protocol.zoo import ZOO

        class Variant(PillCasLockStrategy):
            pass

        return replace(ZOO["pandora"], name="variant", lock=Variant), Variant

    def test_declaration_validates_and_builds(self):
        declaration, lock = self._variant()
        config = Config(protocol=declaration)
        config.validate()
        cluster = Cluster(config, workload())
        assert cluster.protocol is declaration
        engine = cluster.all_coordinators()[0].engine
        assert engine.name == "variant"
        assert type(engine.lock) is lock
        cluster.start()
        cluster.run(until=2e-3)
        assert cluster.aggregate_stats().commits > 0

    def test_unknown_name_still_lists_the_zoo(self):
        from repro.protocol.zoo import ZOO

        with pytest.raises(ValueError, match="unknown protocol 'raft'") as raised:
            Config(protocol="raft").validate()
        assert str(tuple(ZOO)) in str(raised.value)

    def test_reported_names_stay_strings(self):
        from repro.load.engine import OpenLoopEngine
        from repro.load.population import UserPopulation
        from repro.obs import Obs

        declaration, _lock = self._variant()
        # A zoo key prints as itself (baseline runs the row whose
        # engines call themselves ford); a declaration as its own name.
        for protocol, printed in [("baseline", "baseline"), (declaration, "variant")]:
            obs = Obs(trace=False)
            cluster = Cluster(Config(protocol=protocol), workload(), obs=obs)
            assert obs.run_meta["protocol"] == printed
            engine = OpenLoopEngine(
                cluster, UserPopulation(cluster.workload), offered=1e5, duration=1e-3
            )
            assert engine.result.protocol == printed


class TestRestart:
    def test_restart_assigns_fresh_ids(self):
        cluster = Cluster(Config(coordinators_per_node=4, seed=3), workload())
        cluster.start()
        node = cluster.compute_nodes[0]
        old_ids = set(node.coordinator_ids())
        cluster.run(until=0.005)
        node.crash()
        cluster.run(until=0.015)
        cluster.restart_compute(node)
        new_ids = set(node.coordinator_ids())
        assert old_ids.isdisjoint(new_ids)
        assert node.alive

    def test_restart_preserves_retired_stats(self):
        cluster = Cluster(Config(coordinators_per_node=4, seed=3), workload())
        cluster.start()
        cluster.run(until=0.010)
        commits_before = cluster.aggregate_stats().commits
        node = cluster.compute_nodes[0]
        node.crash()
        cluster.restart_compute(node)
        assert cluster.aggregate_stats().commits >= commits_before

    def test_restart_unrevokes_links(self):
        cluster = Cluster(
            Config(coordinators_per_node=2, seed=3, fd_timeout=2e-3), workload()
        )
        cluster.start()
        cluster.crash_compute(0, at=0.005)
        cluster.run(until=0.020)  # recovery revokes node 0 everywhere
        cluster.restart_compute(cluster.compute_nodes[0])
        for memory in cluster.memory_nodes.values():
            assert not memory.is_revoked(0)

    def test_restart_receives_full_failed_ids(self):
        """§3.1.2: failures during a node's downtime reach it via the
        FD's initial configuration on rejoin."""
        cluster = Cluster(
            Config(
                compute_nodes=3,
                coordinators_per_node=2,
                seed=3,
                fd_timeout=2e-3,
                fd_heartbeat_interval=0.5e-3,
            ),
            workload(),
        )
        cluster.start()
        node_a = cluster.compute_nodes[0]
        node_b = cluster.compute_nodes[1]
        ids_b = set(node_b.coordinator_ids())
        node_a.crash()  # down while B fails
        cluster.run(until=0.010)
        cluster.crash_compute(1, at=0.010)
        cluster.run(until=0.030)  # B's failure recovered; A still down
        cluster.restart_compute(node_a)
        assert ids_b.issubset(set(node_a.failed_ids))

    def test_restarted_node_commits_again(self):
        cluster = Cluster(
            Config(
                coordinators_per_node=2,
                seed=3,
                fd_timeout=2e-3,
                restart_failed_after=2e-3,
            ),
            workload(),
        )
        cluster.start()
        cluster.crash_compute(0, at=0.010)
        cluster.run(until=0.060)
        node = cluster.compute_nodes[0]
        assert node.alive
        assert sum(c.stats.commits for c in node.coordinators) > 0


class TestFencedAliveRestart:
    def test_restart_rejoins_fenced_but_alive_node(self):
        """A falsely-suspected node that idled through its own recovery
        never crashed itself: it is alive, but its links are revoked
        everywhere and its ids are marked failed — it can never commit
        again. ``restart_compute`` must treat it as crash + rejoin, not
        no-op on ``node.alive`` and leave it fenced forever."""
        cluster = Cluster(Config(coordinators_per_node=2, seed=3), workload())
        cluster.start()
        node = cluster.compute_nodes[0]
        old_ids = set(node.coordinator_ids())
        # Emulate a completed false-positive recovery of an idle node:
        # fenced at every memory server, ids failed, node never touched
        # memory so it never observed any of it.
        from repro.cluster.builder import RECOVERY_SERVER_ID

        for memory in cluster.memory_nodes.values():
            memory._op_ctrl_revoke(RECOVERY_SERVER_ID, (node.node_id,))
        for coord_id in old_ids:
            cluster.id_allocator.mark_failed(coord_id)
        assert node.alive

        cluster.restart_compute(node)
        assert node.alive and not node.fenced
        new_ids = set(node.coordinator_ids())
        assert new_ids and new_ids.isdisjoint(old_ids)
        for memory in cluster.memory_nodes.values():
            assert not memory.is_revoked(node.node_id)

    def test_restart_of_healthy_node_is_noop(self):
        """An alive, unfenced node is left alone (no id churn)."""
        cluster = Cluster(Config(coordinators_per_node=2, seed=3), workload())
        cluster.start()
        node = cluster.compute_nodes[0]
        ids = set(node.coordinator_ids())
        cluster.restart_compute(node)
        assert set(node.coordinator_ids()) == ids
