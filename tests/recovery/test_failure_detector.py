"""Tests for the heartbeat failure detectors."""

import pytest

from repro import Cluster, ClusterConfig
from repro.workloads import MicroBenchmark


def make_cluster(distributed=False, **overrides):
    config = ClusterConfig(
        coordinators_per_node=2,
        seed=21,
        distributed_fd=distributed,
        **overrides,
    )
    workload = MicroBenchmark(num_keys=200, write_ratio=1.0)
    cluster = Cluster(config, workload)
    cluster.start()
    return cluster


class TestStandaloneDetection:
    def test_detects_compute_crash_within_timeout_window(self):
        cluster = make_cluster(fd_timeout=5e-3)
        cluster.crash_compute(0, at=0.010)
        cluster.run(until=0.030)
        detections = [d for d in cluster.fd.detections if d[1] == "compute"]
        assert len(detections) == 1
        detect_time = detections[0][0]
        # Timeout counts from the *last heartbeat*, which lands up to
        # one heartbeat interval before the crash.
        assert 0.010 + 5e-3 - 1.5e-3 <= detect_time <= 0.010 + 5e-3 + 3e-3

    def test_no_false_positives_without_failures(self):
        cluster = make_cluster()
        cluster.run(until=0.05)
        assert cluster.fd.detections == []

    def test_detects_memory_crash(self):
        cluster = make_cluster()
        cluster.crash_memory(0, at=0.010)
        cluster.run(until=0.030)
        kinds = [d[1] for d in cluster.fd.detections]
        assert "memory" in kinds

    def test_restarted_node_not_redetected(self):
        cluster = make_cluster(restart_failed_after=2e-3)
        cluster.crash_compute(0, at=0.010)
        cluster.run(until=0.060)
        detections = [d for d in cluster.fd.detections if d[1] == "compute"]
        assert len(detections) == 1
        assert cluster.compute_nodes[0].alive


class TestDistributedDetection:
    def test_quorum_detection_adds_agreement_delay(self):
        standalone = make_cluster(fd_timeout=5e-3)
        quorum = make_cluster(
            distributed=True, fd_timeout=5e-3, fd_agreement_delay=2e-3
        )
        for cluster in (standalone, quorum):
            cluster.crash_compute(0, at=0.010)
            cluster.run(until=0.040)
        t_standalone = standalone.fd.detections[0][0]
        t_quorum = quorum.fd.detections[0][0]
        assert t_quorum > t_standalone

    def test_quorum_recovers_end_to_end_under_20ms(self):
        """§6.4: even with three FD replicas, recovery < 20 ms."""
        cluster = make_cluster(
            distributed=True, fd_timeout=5e-3, fd_agreement_delay=2e-3
        )
        cluster.crash_compute(0, at=0.010)
        cluster.run(until=0.060)
        record = cluster.recovery.records[0]
        assert record.finished_at - 0.010 < 20e-3

    def test_invalid_replica_count(self):
        from repro.recovery.distributed_fd import DistributedFailureDetector
        from repro.sim import Simulator

        with pytest.raises(ValueError):
            DistributedFailureDetector(Simulator(), replicas=2)

    def test_replica_sinks_are_independent(self):
        from repro.recovery.distributed_fd import DistributedFailureDetector
        from repro.sim import Simulator

        fd = DistributedFailureDetector(Simulator(), replicas=3)
        sinks = fd.heartbeat_sinks()
        assert len(sinks) == 3
        assert len({id(sink) for sink in sinks}) == 3


class TestFencing:
    def test_falsely_suspected_node_is_fenced(self):
        """Cor1: after active-link termination the suspected node's
        verbs fail, and it stops issuing transactions."""
        cluster = make_cluster(fd_timeout=5e-3)
        node = cluster.compute_nodes[0]
        # Simulate a network partition of heartbeats only: stop the
        # heartbeat process but keep the coordinators running.
        node._heartbeat_process.kill()
        node._heartbeat_process = None
        cluster.run(until=0.040)
        # The detector declared it failed and revoked its links...
        assert any(d[2] == 0 for d in cluster.fd.detections)
        assert all(
            memory.is_revoked(0) for memory in cluster.memory_nodes.values()
        )
        # ...and the node self-fenced rather than split-braining.
        assert node.fenced


class TestRedetection:
    """A dead node whose recovery itself died must be re-declared."""

    def _crash_and_kill_recovery(self, cluster, until=0.060):
        """Crash node 0 at 10ms and kill its recovery just after the
        fence step, mid-flight."""
        sim = cluster.sim
        recovery = cluster.recovery
        cluster.crash_compute(0, at=0.010)

        def assassin():
            while not recovery.recovering("compute", 0):
                yield sim.timeout(5e-6)
            yield sim.timeout(5e-6)
            assert recovery.kill_recovery("compute", 0)

        sim.process(assassin(), name="test-rc-assassin")
        cluster.run(until=until)

    def test_killed_recovery_heals_with_redetect(self):
        cluster = make_cluster(
            fd_timeout=5e-3, fd_redetect_interval=2e-3, restart_failed_after=2e-3
        )
        self._crash_and_kill_recovery(cluster)
        finished = [r for r in cluster.recovery.records if r.finished_at > 0]
        assert finished, "re-detection never restarted the killed recovery"
        # The full recovery marked every id failed and restarted the node.
        assert cluster.compute_nodes[0].alive
        redeclared = [d for d in cluster.fd.detections if d[1:] == ("compute", 0)]
        assert len(redeclared) >= 2

    def test_killed_recovery_stays_dead_without_redetect(self):
        cluster = make_cluster(
            fd_timeout=5e-3, fd_redetect_interval=None, restart_failed_after=2e-3
        )
        self._crash_and_kill_recovery(cluster)
        finished = [r for r in cluster.recovery.records if r.finished_at > 0]
        assert finished == []
        assert not cluster.compute_nodes[0].alive

    def test_redetect_is_rate_limited(self):
        """While a recovery is being re-run, no duplicate declarations
        pile up: re-declarations are spaced by the interval."""
        cluster = make_cluster(
            fd_timeout=5e-3, fd_redetect_interval=2e-3, restart_failed_after=2e-3
        )
        self._crash_and_kill_recovery(cluster)
        declared = sorted(
            d[0] for d in cluster.fd.detections if d[1:] == ("compute", 0)
        )
        assert all(b - a >= 2e-3 - 1e-9 for a, b in zip(declared, declared[1:]))

    def test_redetect_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            make_cluster(fd_redetect_interval=-1.0)

    def test_redetections_counted_separately(self):
        """Re-declarations land in fd.redetections (the first,
        ordinary declaration does not) so reports can surface them."""
        cluster = make_cluster(
            fd_timeout=5e-3, fd_redetect_interval=2e-3, restart_failed_after=2e-3
        )
        self._crash_and_kill_recovery(cluster)
        redetected = [
            r for r in cluster.fd.redetections if r[1:] == ("compute", 0)
        ]
        declared = [
            d for d in cluster.fd.detections if d[1:] == ("compute", 0)
        ]
        assert redetected
        assert len(declared) == len(redetected) + 1

    def test_redetections_surface_in_report(self):
        """The "redetect" tracer instant feeds the evaluation report's
        re-detection table."""
        from repro.obs import Obs
        from repro.obs.report import from_obs, redetection_counts

        config = ClusterConfig(
            coordinators_per_node=2,
            seed=21,
            fd_timeout=5e-3,
            fd_redetect_interval=2e-3,
            restart_failed_after=2e-3,
        )
        obs = Obs(trace=True)
        cluster = Cluster(
            config, MicroBenchmark(num_keys=200, write_ratio=1.0), obs=obs
        )
        cluster.start()
        self._crash_and_kill_recovery(cluster)
        rows = redetection_counts(from_obs(cluster.obs))
        assert rows, "no redetect instants reached the report"
        node_id, kind, count = rows[0]
        assert (node_id, kind) == (0, "compute")
        assert count == len(cluster.fd.redetections)

    def test_distributed_fd_redetects_too(self):
        cluster = make_cluster(
            distributed=True,
            fd_timeout=5e-3,
            fd_agreement_delay=1e-3,
            fd_redetect_interval=2e-3,
            restart_failed_after=2e-3,
        )
        self._crash_and_kill_recovery(cluster, until=0.080)
        finished = [r for r in cluster.recovery.records if r.finished_at > 0]
        assert finished
        assert cluster.compute_nodes[0].alive
