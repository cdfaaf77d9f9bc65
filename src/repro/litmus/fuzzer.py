"""History-based random fuzzing — the approach litmus testing refines.

§5 contrasts two validation styles: Adya-style *history* checking
(run random transactions, collect their read/write footprints, decide
the isolation level from the dependency graph — Jepsen et al.) and the
paper's lightweight *application-observable-state* litmus tests. This
module implements the former so the two can cross-check each other:

* random read / read-modify-write / blind-write / insert / delete
  transactions over a small keyspace,
* optional random compute crashes (with recovery running underneath),
* every committed transaction's footprint collected through
  ``Cluster.record_history()``,
* the final history checked for strict serializability with the
  precedence-graph checker.

A protocol that passes the litmus suite but produced a cyclic history
here (or vice versa) would indicate a hole in one of the validators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.builder import Cluster
from repro.cluster.config import ClusterConfig
from repro.litmus.checker import SerializabilityChecker
from repro.protocol.types import BugFlags
from repro.workloads.keyvalue import KeyValueTable

__all__ = ["FuzzReport", "HistoryFuzzer"]


@dataclass
class FuzzReport:
    protocol: str
    seed: int
    committed: int = 0
    serializable: bool = True
    cycle: List = field(default_factory=list)
    crashes: int = 0

    def summary(self) -> str:
        verdict = "SERIALIZABLE" if self.serializable else "CYCLE FOUND"
        return (
            f"fuzz[{self.protocol}, seed={self.seed}] committed={self.committed} "
            f"crashes={self.crashes}  {verdict}"
        )


class _FuzzWorkload(KeyValueTable):
    """Random single- and multi-key transactions over one table."""

    name = "fuzz"

    def __init__(self, keys: int) -> None:
        super().__init__("kv", ((key, 0) for key in range(keys)), max_keys=keys)
        self.keys = keys

    def next_transaction(self, rng: random.Random):
        kind = rng.random()
        key_a = rng.randrange(self.keys)
        key_b = rng.randrange(self.keys)
        if kind < 0.25:

            def read_pair(tx):
                a = yield from tx.read("kv", key_a)
                b = yield from tx.read("kv", key_b)
                return (a, b)

            return read_pair
        if kind < 0.50:

            def rmw(tx):
                value = yield from tx.read_for_update("kv", key_a)
                tx.write("kv", key_a, (value or 0) + 1)
                return None

            return rmw
        if kind < 0.65:
            stamp = rng.getrandbits(20)

            def blind(tx):
                tx.write("kv", key_a, stamp)
                if key_b != key_a:
                    tx.write("kv", key_b, stamp)
                return None

            return blind
        if kind < 0.80:

            def transfer(tx):
                a = yield from tx.read_for_update("kv", key_a)
                if key_b == key_a:
                    return None
                b = yield from tx.read_for_update("kv", key_b)
                tx.write("kv", key_a, (a or 0) - 1)
                tx.write("kv", key_b, (b or 0) + 1)
                return None

            return transfer
        if kind < 0.95:
            # Read one key, write another — the write-skew shape whose
            # serializability depends on read-set validation.
            def read_a_write_b(tx):
                a = yield from tx.read("kv", key_a)
                if key_b == key_a:
                    return None
                tx.write("kv", key_b, (a or 0) + 1)
                return None

            return read_a_write_b

        def delete_or_revive(tx):
            value = yield from tx.read("kv", key_a)
            if value is None:
                tx.write("kv", key_a, 0)  # revive
            else:
                tx.delete("kv", key_a)
            return None

        return delete_or_revive


class HistoryFuzzer:
    """Runs random traffic and checks the committed history."""

    def __init__(
        self,
        protocol: str = "pandora",
        bugs: Optional[BugFlags] = None,
        keys: int = 24,
        coordinators_per_node: int = 4,
        duration: float = 15e-3,
        crash_probability_per_ms: float = 0.0,
        seed: int = 0,
        sanitize: bool = False,
        loss_probability: float = 0.0,
        jitter: Optional[float] = None,
    ) -> None:
        self.protocol = protocol
        self.duration = duration
        self.crash_probability_per_ms = crash_probability_per_ms
        self.seed = seed
        self.rng = random.Random(seed)
        config = ClusterConfig(
            protocol=protocol,
            bugs=bugs,
            compute_nodes=2,
            coordinators_per_node=coordinators_per_node,
            seed=seed,
            fd_timeout=1e-3,
            fd_heartbeat_interval=0.3e-3,
            fd_check_interval=0.15e-3,
            restart_failed_after=2e-3,
            sanitize=sanitize,
        )
        config.network.loss_probability = loss_probability
        if jitter is not None:
            config.network.jitter = jitter
        self.cluster = Cluster(config, _FuzzWorkload(keys))
        self.history: List = self.cluster.record_history()

    def run(self) -> FuzzReport:
        report = FuzzReport(protocol=self.protocol, seed=self.seed)
        cluster = self.cluster
        cluster.start()
        step = 1e-3
        now = 0.0
        while now < self.duration:
            now = min(now + step, self.duration)
            cluster.run(until=now)
            if (
                self.crash_probability_per_ms
                and self.rng.random() < self.crash_probability_per_ms
            ):
                victims = [
                    node for node in cluster.compute_nodes.values() if node.alive
                ]
                if len(victims) > 1:  # keep at least one node alive
                    self.rng.choice(victims).crash()
                    report.crashes += 1
        # Drain any recovery still in flight.
        cluster.run(until=self.duration + 20e-3)

        checker = SerializabilityChecker(self.history)
        report.committed = len(self.history)
        report.serializable = checker.is_serializable()
        if not report.serializable:
            report.cycle = checker.find_cycle()
        return report
