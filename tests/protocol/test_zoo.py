"""The protocol table: every row builds, recovers and stays clean —
and a triple that is *not* a row recovers too, composed from its axes.
"""

import pytest

from repro import Cluster
from repro.chaos import check_cluster
from repro.cluster.config import ClusterConfig
from repro.litmus import LitmusRunner, litmus1_direct_write
from repro.protocol.strategies import (
    LoggedCommitStrategy,
    PerObjectLogStrategy,
    PillCasLockStrategy,
)
from repro.protocol.zoo import ZOO, Protocol
from repro.workloads import MicroBenchmark


@pytest.mark.parametrize("name", ZOO)
def test_row_builds_recovers_and_stays_clean(name):
    config = ClusterConfig(protocol=name, coordinators_per_node=4, seed=3)
    config.validate()
    cluster = Cluster(config, MicroBenchmark(num_keys=200, write_ratio=1.0))
    engine = cluster.all_coordinators()[0].engine
    assert engine.name == ZOO[name].name
    assert engine.bugs == ZOO[name].bugs()

    cluster.start()
    cluster.crash_compute(0, at=2e-3)
    # Run well past detection + recovery, then let the survivors'
    # in-flight transactions drain before inspecting the store.
    cluster.run(until=40e-3)
    cluster.compute_nodes[1].pause()
    cluster.run(until=42e-3)

    finished = [
        record
        for record in cluster.recovery.records
        if record.kind == "compute" and record.finished_at > 0
    ]
    assert len(finished) == 1
    assert finished[0].coordinators == 4
    if not ZOO[name].bugs().any_enabled():
        assert check_cluster(cluster) == []


def test_recovery_composes_for_an_off_zoo_triple(monkeypatch):
    """PILL CAS locks + per-object log + logged commit is no row of the
    table and no line of ``repro/recovery`` knows it: its logs are found
    where the log axis says (every live memory node), its locks are
    released the way the lock axis allows (owner-conditioned CAS, no
    quiesce), its undo images come from the commit axis (log entries).
    """
    triple = Protocol(
        "pill-perobject",
        PillCasLockStrategy,
        PerObjectLogStrategy,
        LoggedCommitStrategy,
    )
    assert not triple.needs_quiesce_scan
    monkeypatch.setitem(ZOO, triple.name, triple)

    runner = LitmusRunner(
        litmus1_direct_write(),
        protocol=triple.name,
        rounds=20,
        crash_probability=0.5,
        seed=7,
        sanitize=True,
    )
    report = runner.run()
    cluster = runner.cluster
    assert report.crashes_injected > 0
    assert report.passed, [str(v) for v in report.violations]
    assert cluster.sanitizer.violations == []

    records = [r for r in cluster.recovery.records if r.kind == "compute"]
    assert records and all(r.finished_at > 0 for r in records)
    # It repaired logged transactions from per-object records ...
    assert sum(r.logged_txns for r in records) > 0
    # ... without ever stopping the world to scan for locks ...
    assert all(r.scanned_slots == 0 for r in records)
    # ... and left no lock behind that a live transaction cannot steal.
    assert [v for v in check_cluster(cluster) if v.code == "CHAOS-LOCK"] == []
