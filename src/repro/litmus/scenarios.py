"""Directed litmus scenarios: deterministic replays of the Table 1 bugs.

The random-crash campaigns (:mod:`repro.litmus.runner`) surface the
easy-to-hit online bugs; the recovery-path bugs need several rare
events to line up (a logged-then-aborted transaction, a later commit
to the same object, a crash before the stale log is overwritten).
These scenarios stage exactly that schedule through the *real*
protocol, failure detector, and recovery manager — nothing is mocked:
each builds a started ``Cluster`` whose worker loops stay off, enters
every transaction with ``Coordinator.submit(logic, delay=...)`` and
injects its crash with the cluster's own injector —
so they both demonstrate each bug deterministically and verify the
fix. They are the reproduction's analogue of the paper's minimized
bug replays (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster.builder import Cluster
from repro.cluster.config import ClusterConfig
from repro.protocol.types import BugFlags
from repro.workloads.keyvalue import ABSENT, KeyValueTable

__all__ = [
    "ScenarioReport",
    "run_lost_decision_scenario",
    "run_log_without_lock_scenario",
    "run_missing_insert_log_scenario",
    "run_complicit_abort_scenario",
]


@dataclass
class ScenarioReport:
    """What a directed scenario observed."""

    name: str
    protocol: str
    consistent: bool
    values: Dict[str, Any] = field(default_factory=dict)
    notes: str = ""

    def summary(self) -> str:
        status = "consistent" if self.consistent else "CORRUPTED"
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"{self.name:24s} {self.protocol:10s} {status:10s} ({rendered})"


def _build(protocol: str, bugs: Optional[BugFlags], initial: Dict[str, Any], seed: int):
    config = ClusterConfig(
        memory_nodes=2,
        compute_nodes=2,
        coordinators_per_node=2,
        replication_degree=2,
        protocol=protocol,
        bugs=bugs,
        seed=seed,
        fd_timeout=0.5e-3,
        fd_heartbeat_interval=0.1e-3,
        fd_check_interval=0.05e-3,
        drain_delay=0.2e-3,
        # One-shot transactions: a retried attempt would overwrite the
        # staged state the scenarios depend on.
        abandon_on_conflict=True,
    )
    config.network.jitter = 0.0  # fully deterministic schedules
    cluster = Cluster(config, KeyValueTable("lit", initial.items(), max_keys=64))
    cluster.start(run_coordinators=False)
    return cluster


def _read_values(cluster, keys: List[str]) -> Dict[str, Any]:
    catalog = cluster.catalog
    values = {}
    for key in keys:
        slot = catalog.slot_for(0, key)
        primary = catalog.primary(0, slot)
        entry = cluster.memory_nodes[primary].slot(0, slot)
        values[key] = entry.value if entry.present else None
    return values


# ---------------------------------------------------------------------------
# Lost Decision (§3.1.3, Table 1 / Litmus 3)
# ---------------------------------------------------------------------------


def run_lost_decision_scenario(
    protocol: str = "baseline",
    bugs: Optional[BugFlags] = None,
    seed: int = 1,
) -> ScenarioReport:
    """T1 logs writes to X and Y, aborts at validation, its node later
    crashes; meanwhile T2 committed an increment of X (and wrote Z).

    Buggy FORD leaves T1's log in place; recovery sees X "updated"
    (T2's version matches T1's logged new-version) but Y untouched, so
    it *rolls X back*, erasing T2's committed write: ``X < Z``.
    """
    cluster = _build(protocol, bugs, {"A": 0, "X": 0, "Y": 0, "Z": 0}, seed)
    sim = cluster.sim
    node0, node1 = cluster.compute_nodes[0], cluster.compute_nodes[1]
    t1_coord = node0.coordinators[0]
    helper = node1.coordinators[0]
    t2_coord = node1.coordinators[1]

    def t1(tx):
        # Read A into the read-set, then write X and Y. A's version
        # changes underneath (the helper), so validation fails *after*
        # the undo logs for X and Y were posted.
        _a = yield from tx.read("lit", "A")
        x = yield from tx.read("lit", "X")
        yield sim.timeout(6e-6)  # hold the window open
        tx.write("lit", "X", (x or 0) + 1)
        tx.write("lit", "Y", (x or 0) + 1)
        return None

    def bump_a(tx):
        tx.write("lit", "A", 1)
        return None

    def t2(tx):
        x = yield from tx.read("lit", "X")
        tx.write("lit", "X", (x or 0) + 1)
        tx.write("lit", "Z", (x or 0) + 1)
        return None

    p_t1 = t1_coord.submit(t1, delay=1e-6, name=f"scenario-c{t1_coord.coord_id}")
    p_helper = helper.submit(bump_a, delay=4e-6, name=f"scenario-c{helper.coord_id}")
    sim.run(until=200e-6)

    p_t2 = t2_coord.submit(t2, name=f"scenario-c{t2_coord.coord_id}")
    sim.run(until=sim.now + 200e-6)

    # T1's node crashes; recovery processes whatever logs remain.
    node0.crash()
    sim.run(until=sim.now + 30e-3)

    values = _read_values(cluster, ["X", "Y", "Z"])
    t1_aborted = p_t1.triggered and not p_t1.value.committed
    t2_committed = p_t2.triggered and p_t2.value.committed
    x, z = values["X"] or 0, values["Z"] or 0
    consistent = x >= z and (not t2_committed or x >= 1)
    return ScenarioReport(
        name="lost-decision",
        protocol=protocol,
        consistent=consistent,
        values=values,
        notes=(
            f"t1_aborted={t1_aborted} helper={p_helper.value.committed} "
            f"t2_committed={t2_committed}"
        ),
    )


# ---------------------------------------------------------------------------
# Logging without locking (Table 1 / Litmus 3)
# ---------------------------------------------------------------------------


def run_log_without_lock_scenario(
    protocol: str = "baseline",
    bugs: Optional[BugFlags] = None,
    seed: int = 1,
) -> ScenarioReport:
    """T1 posts a speculative undo log for X before its CAS outcome is
    known; the CAS fails (a holder has X), T1's node crashes before the
    abort can truncate, and the holder commits X. Recovery treats the
    speculative log as real: X appears "updated", Y does not, so it
    rolls X back over the holder's committed write.
    """
    cluster = _build(protocol, bugs, {"X": 0, "Y": 0, "Z": 0}, seed)
    sim = cluster.sim
    node0, node1 = cluster.compute_nodes[0], cluster.compute_nodes[1]
    t1_coord = node0.coordinators[0]
    holder_coord = node1.coordinators[0]

    def holder(tx):
        # Locks X just after T1's read, holds it across T1's CAS, then
        # commits an increment (old version 1 -> 2).
        x = yield from tx.read_for_update("lit", "X")
        yield sim.timeout(20e-6)
        tx.write("lit", "X", (x or 0) + 1)
        tx.write("lit", "Z", (x or 0) + 1)
        return None

    def t1(tx):
        # Reads X while it is still unlocked (arming expected_version
        # for the speculative log), waits for the holder to grab the
        # lock, then writes X and Y: the speculative undo log for X is
        # posted even though X's CAS fails on the holder.
        x = yield from tx.read("lit", "X")
        yield sim.timeout(6e-6)
        tx.write("lit", "X", (x or 0) + 1)
        tx.write("lit", "Y", (x or 0) + 1)
        yield sim.timeout(1e-3)  # crash lands before the abort path
        return None

    p_t1 = t1_coord.submit(t1, delay=1e-6, name=f"scenario-c{t1_coord.coord_id}")
    p_holder = holder_coord.submit(
        holder, delay=3e-6, name=f"scenario-c{holder_coord.coord_id}"
    )
    # Crash T1's node while its speculative log is posted but before
    # its abort truncates anything.
    cluster.injector.crash_at(node0, when=16e-6)
    sim.run(until=50e-3)

    values = _read_values(cluster, ["X", "Y", "Z"])
    holder_committed = p_holder.triggered and p_holder.value.committed
    x, z = values["X"] or 0, values["Z"] or 0
    consistent = (not holder_committed) or (x >= 1 and x >= z)
    return ScenarioReport(
        name="log-without-lock",
        protocol=protocol,
        consistent=consistent,
        values=values,
        notes=f"holder_committed={holder_committed} t1_done={p_t1.triggered}",
    )


# ---------------------------------------------------------------------------
# Missing Actions: inserts not logged (Table 1 / Litmus 1 variant)
# ---------------------------------------------------------------------------


def run_missing_insert_log_scenario(
    protocol: str = "baseline",
    bugs: Optional[BugFlags] = None,
    seed: int = 1,
) -> ScenarioReport:
    """An inserter crashes between applying its two inserts. Without
    undo logs for inserts, recovery cannot roll the first insert back:
    X ends up present while Y stays absent."""
    cluster = _build(protocol, bugs, {"X": ABSENT, "Y": ABSENT}, seed)
    sim = cluster.sim
    node0 = cluster.compute_nodes[0]
    inserter = node0.coordinators[0]

    def insert_both(tx):
        tx.insert("lit", "X", 1)
        tx.insert("lit", "Y", 1)
        return None

    # Crash exactly between the two commit-phase apply posts.
    cluster.injector.crash_on_point(node0.node_id, "commit_posted", nth=1)
    inserter.submit(insert_both, delay=1e-6, name=f"scenario-c{inserter.coord_id}")
    sim.run(until=50e-3)

    values = _read_values(cluster, ["X", "Y"])
    consistent = (values["X"] is None) == (values["Y"] is None)
    return ScenarioReport(
        name="missing-insert-log",
        protocol=protocol,
        consistent=consistent,
        values=values,
    )


# ---------------------------------------------------------------------------
# Complicit Aborts (Table 1 / Litmus 1)
# ---------------------------------------------------------------------------


def run_complicit_abort_scenario(
    protocol: str = "pandora",
    bugs: Optional[BugFlags] = None,
    seed: int = 1,
) -> ScenarioReport:
    """T-victim locks X and Y; T-aborter conflicts and aborts, wrongly
    releasing the victim's locks; T-exploiter then locks X, reads the
    pre-victim value, and commits — a lost update on the X counter.
    """
    cluster = _build(protocol, bugs, {"X": 0, "Y": 0}, seed)
    sim = cluster.sim
    node0, node1 = cluster.compute_nodes[0], cluster.compute_nodes[1]
    victim = node0.coordinators[0]
    aborter = node1.coordinators[0]
    exploiter = node1.coordinators[1]

    def victim_txn(tx):
        x = yield from tx.read_for_update("lit", "X")
        # Hold the locks long enough for the aborter to "free" them
        # and the exploiter to slip in.
        yield sim.timeout(30e-6)
        tx.write("lit", "X", (x or 0) + 1)
        tx.write("lit", "Y", (x or 0) + 1)
        return None

    def aborter_txn(tx):
        x = yield from tx.read_for_update("lit", "X")  # conflicts -> abort
        tx.write("lit", "X", (x or 0) + 1)
        tx.write("lit", "Y", (x or 0) + 1)
        return None

    def exploiter_txn(tx):
        x = yield from tx.read_for_update("lit", "X")
        tx.write("lit", "X", (x or 0) + 1)
        return None

    p_victim = victim.submit(
        victim_txn, delay=1e-6, name=f"scenario-c{victim.coord_id}"
    )
    p_aborter = aborter.submit(
        aborter_txn, delay=8e-6, name=f"scenario-c{aborter.coord_id}"
    )
    p_exploiter = exploiter.submit(
        exploiter_txn, delay=16e-6, name=f"scenario-c{exploiter.coord_id}"
    )
    sim.run(until=5e-3)

    values = _read_values(cluster, ["X", "Y"])
    committed = sum(
        1
        for process in (p_victim, p_aborter, p_exploiter)
        if process.triggered and process.value.committed
    )
    # Serializably, X must count every committed increment.
    consistent = (values["X"] or 0) >= committed
    return ScenarioReport(
        name="complicit-abort",
        protocol=protocol,
        consistent=consistent,
        values={**values, "committed_increments": committed},
    )
