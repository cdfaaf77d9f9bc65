"""Integration tests: observability must observe, never perturb.

The tracer and metrics are purely passive (explicit timestamps, list
appends, no simulation events), so a seeded run must produce identical
outcomes with observability enabled or disabled — and the spans it
records must decompose the latencies the harness reports.
"""

import pytest

from repro import Cluster, ClusterConfig
from repro.bench.harness import run_failover, run_steady_state
from repro.obs import TXN_PHASES, Obs
from repro.workloads import SmallBank


def _smallbank():
    return SmallBank(accounts=1_000)


STEADY = dict(duration=6e-3, warmup=2e-3, coordinators_per_node=4, seed=11)


class TestParity:
    def test_steady_run_identical_with_and_without_obs(self):
        base = run_steady_state(_smallbank, "pandora", **STEADY)
        traced = run_steady_state(
            _smallbank, "pandora", obs=Obs(trace=True), **STEADY
        )
        # Dataclass equality covers commits, aborts, throughput, and
        # latency percentiles — the full observable outcome.
        assert traced == base

    def test_metrics_only_mode_is_also_inert(self):
        base = run_steady_state(_smallbank, "pandora", **STEADY)
        measured = run_steady_state(
            _smallbank, "pandora", obs=Obs(trace=False), **STEADY
        )
        assert measured == base


class TestObsContent:
    @pytest.fixture(scope="class")
    def traced_steady(self):
        obs = Obs(trace=True)
        result = run_steady_state(_smallbank, "pandora", obs=obs, **STEADY)
        return obs, result

    def test_outcome_counters_match_harness_stats(self, traced_steady):
        obs, result = traced_steady
        assert obs.commit_count() == result.commits
        aborts = sum(
            counter.value
            for (_proto, outcome), counter in obs._outcome_counters.items()
            if outcome.startswith("abort:")
        )
        assert aborts == result.aborts

    def test_phase_histograms_populated(self, traced_steady):
        obs, result = traced_steady
        for phase in ("execute", "lock", "validate", "log", "commit", "unlock"):
            histogram = obs.phase_histogram("pandora", phase)
            assert histogram.count >= result.commits, phase
        assert set(TXN_PHASES) >= {
            phase for (_proto, phase) in obs._phase_hist
        }

    def test_attempt_spans_match_outcomes(self, traced_steady):
        obs, result = traced_steady
        commits = [
            span for span in obs.tracer.spans("txn")
            if span[2] == "attempt:commit"
        ]
        assert len(commits) == result.commits

    def test_verb_counters_and_report(self, traced_steady):
        obs, result = traced_steady
        snapshot = obs.metrics.snapshot()
        read_counters = [
            value for key, value in snapshot["counters"].items()
            if key.startswith("rdma.verbs{")
        ]
        assert sum(read_counters) > 0
        report = obs.report(result.commits)
        assert "RDMA verbs" in report
        assert "transaction phase latency" in report
        assert "per commit" in report

    def test_kernel_gauges_sampled(self, traced_steady):
        obs, _result = traced_steady
        assert obs.metrics.gauge("kernel.processed_events").value > 0
        assert obs.metrics.gauge("kernel.now").value == pytest.approx(8e-3)


class TestRecoveryDecomposition:
    @pytest.fixture(scope="class")
    def traced_failover(self):
        obs = Obs(trace=True)
        result = run_failover(
            _smallbank,
            "pandora",
            crash_kind="compute",
            crash_at=10e-3,
            duration=40e-3,
            obs=obs,
            coordinators_per_node=4,
            seed=11,
        )
        return obs, result

    @pytest.fixture(scope="class")
    def traced_memory_restore(self):
        """A memory crash (reconfiguration) and, later, its restore."""
        obs = Obs(trace=True)
        cluster = Cluster(
            ClusterConfig(memory_nodes=3, coordinators_per_node=4, seed=11),
            _smallbank(),
            obs=obs,
        )
        cluster.start()
        cluster.crash_memory(0, at=10e-3)
        cluster.run(until=25e-3)
        cluster.restore_memory(0)
        cluster.run(until=35e-3)
        return obs, cluster.recovery.records

    def test_recovery_spans_tile_total_latency(
        self, traced_failover, traced_memory_restore
    ):
        obs, result = traced_failover
        record = result.recovery_records[0]
        spans = obs.tracer.spans("recovery")
        names = {span[2] for span in spans}
        assert {"heartbeat-miss", "link-revoke", "log-region-read",
                "truncate", "stray-lock-notify"} <= names
        # The post-detection spans tile [detected_at, finished_at]: their
        # summed durations must reproduce the record's total latency.
        inner = [span for span in spans if span[2] != "heartbeat-miss"]
        total = sum(span[4] for span in inner)
        assert total == pytest.approx(record.total_latency, rel=1e-6)

        # Every kind runs three stages, one row each; for memory
        # recoveries too the spans of a record's window tile it.
        memory_obs, memory_records = traced_memory_restore
        assert [r.kind for r in memory_records] == ["memory", "memory-restore"]
        stages = {
            "compute": ["link-revoke", "repair_strays", "stray-lock-notify"],
            "memory": ["begin_reconfig", "memory-reconfig", "end_reconfig"],
            "memory-restore": ["drain", "re-replicate", "resume"],
        }
        memory_spans = memory_obs.tracer.spans("recovery")
        for record in [record, *memory_records]:
            assert [stage[0] for stage in record.stages] == stages[record.kind]
            assert record.stages[-1][2] == record.finished_at > record.detected_at
            if record.kind == "compute":
                continue
            window = [
                span for span in memory_spans
                if span[5] == record.node_id and span[2] != "heartbeat-miss"
                and record.detected_at <= span[3] < record.finished_at
            ]
            total = sum(span[4] for span in window)
            assert total == pytest.approx(record.total_latency, rel=1e-6)

    def test_heartbeat_miss_ends_at_detection(self, traced_failover):
        obs, result = traced_failover
        record = result.recovery_records[0]
        (miss,) = obs.tracer.spans("recovery")[:1]
        assert miss[2] == "heartbeat-miss"
        assert miss[3] + miss[4] == pytest.approx(record.detected_at)

    def test_recovery_metrics_match_record(self, traced_failover):
        obs, result = traced_failover
        record = result.recovery_records[0]
        metrics = obs.metrics
        assert metrics.counter("recovery.compute_recoveries").value == 1
        assert metrics.counter("recovery.rolled_forward").value == record.rolled_forward
        assert metrics.counter("recovery.rolled_back").value == record.rolled_back
        latency = metrics.histogram("recovery.log_recovery_latency")
        assert latency.count == 1
        assert latency.stats.max == pytest.approx(record.log_recovery_latency)
