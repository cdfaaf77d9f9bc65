"""§6.4 "Distributed FD" — recovery with a quorum-replicated detector.

Paper: replicating the failure detector across three ZooKeeper-managed
replicas adds a quorum-agreement delay, yet Pandora still recovers in
under 20 ms end to end — orders of magnitude faster than the Baseline.
"""

import pytest

from conftest import micro_factory
from repro.bench.harness import default_config
from repro.bench.report import format_table, write_report
from repro.cluster.builder import Cluster

CRASH_AT = 10e-3


def _run(**detector):
    config = default_config(protocol="pandora", coordinators_per_node=8, **detector)
    cluster = Cluster(config, micro_factory(write_ratio=1.0)())
    cluster.start()
    cluster.crash_compute(0, at=CRASH_AT)
    cluster.run(until=60e-3)
    record = cluster.recovery.records[0]
    return {
        "detect": record.detected_at - CRASH_AT,
        "end_to_end": record.finished_at - CRASH_AT,
        "log_recovery": record.log_recovery_latency,
    }


@pytest.mark.benchmark(group="fd")
def test_distributed_fd_recovery(benchmark):
    results = benchmark.pedantic(
        lambda: (_run(), _run(fd_replicas=3, fd_agreement_delay=2e-3)),
        rounds=1,
        iterations=1,
    )
    standalone, quorum = results
    rows = [
        ("standalone", f"{standalone['detect'] * 1e3:6.2f}",
         f"{standalone['end_to_end'] * 1e3:6.2f}"),
        ("3-replica quorum", f"{quorum['detect'] * 1e3:6.2f}",
         f"{quorum['end_to_end'] * 1e3:6.2f}"),
    ]
    text = format_table(
        "Distributed failure detector: crash-to-recovered latency (ms)",
        ["detector", "detection (ms)", "end-to-end recovery (ms)"],
        rows,
        note="Paper: even with three FD replicas, recovery < 20 ms.",
    )
    write_report("distributed_fd", text)
    assert quorum["end_to_end"] < 20e-3
    assert quorum["detect"] >= standalone["detect"]
