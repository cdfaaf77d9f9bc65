"""The transaction coordinator: the compute-side worker loop.

Each coordinator owns a unique 16-bit coordinator-id (allocated by the
failure detector, §3.1.2), drives one transaction at a time through its
protocol engine, and retries aborted transactions with a small backoff.
A compute server runs many coordinators; crashing the server kills all
of them mid-protocol, which is how stray locks and stray transactions
come to exist.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.protocol.types import AbortReason, TxnOutcome
from repro.rdma.errors import LinkRevokedError
from repro.sim import Event
from repro.util.stats import Histogram

__all__ = ["CoordinatorStats", "CoordinatorConfig", "Coordinator"]

# Retry pacing: exponential backoff from BASE, doubling per attempt up
# to CAP, each wait scaled by a uniform factor in [0.5, 1.5).
BACKOFF_BASE = 2e-6
BACKOFF_CAP = 100e-6


class CoordinatorStats:
    """Counters exposed by each coordinator (merged by the harness)."""

    def __init__(self) -> None:
        self.commits = 0
        self.aborts = 0
        self.attempts = 0
        self.locks_stolen = 0
        # Bounded steal-CAS retries after losing to *another* stray
        # word (stray-to-stray races during mass failover).
        self.steal_retries = 0
        self.abort_reasons: Counter = Counter()
        self.latency = Histogram(min_value=1e-7, max_value=10.0)

    def merge(self, other: "CoordinatorStats") -> None:
        """Fold another set of coordinator counters into this one."""
        self.commits += other.commits
        self.aborts += other.aborts
        self.attempts += other.attempts
        self.locks_stolen += other.locks_stolen
        self.steal_retries += other.steal_retries
        self.abort_reasons.update(other.abort_reasons)
        self.latency.merge(other.latency)


@dataclass
class CoordinatorConfig:
    """Retry policy for the worker loop."""

    max_attempts: int = 64
    # True = give up after the first abort and move to the next request
    # (the "abort" option of §6.4); False = retry the same transaction
    # until it commits or attempts run out.
    abandon_on_conflict: bool = False
    # §7: flush commit writes into NVM before acking the client.
    nvm_flush: bool = False


class Coordinator:
    """One transaction coordinator (one worker thread in the paper)."""

    def __init__(
        self,
        node,
        coord_id: int,
        engine_factory: Callable[["Coordinator"], Any],
        workload,
        rng: random.Random,
        config: Optional[CoordinatorConfig] = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.verbs = node.verbs
        self.catalog = node.catalog
        self.coord_id = coord_id
        self.workload = workload
        self.rng = rng
        self.config = config or CoordinatorConfig()
        self.faults = node.faults
        self.stats = CoordinatorStats()
        # Observability facade shared by the whole deployment; the
        # engine captures it at construction, so set it first.
        self.obs = node.verbs.obs
        self.engine = engine_factory(self)
        self.process = None
        self._txn_seq = 0
        self._on_commit: Optional[Callable[[float], None]] = None
        # Optional list collecting committed-transaction footprints
        # (txn id, read versions, write versions) for the
        # serializability checker.
        self.history_sink: Optional[list] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self, on_commit: Optional[Callable[[float], None]] = None) -> None:
        """Spawn the worker-loop process."""
        self._on_commit = on_commit
        self.process = self.sim.process(
            self._run(), name=f"coordinator-{self.coord_id}"
        )

    def stop(self) -> None:
        """Kill the worker loop or submitted transaction (crash-stop)."""
        if self.process is not None:
            self.process.kill()
            self.process = None

    def submit(self, logic, delay: Optional[float] = None, name: Optional[str] = None):
        """Start one scripted transaction outside the worker loop.

        Returns its Process, whose value is the :class:`TxnOutcome`.
        The process is recorded on the coordinator, so a node crash
        kills it and a memory reconfiguration interrupts it like any
        worker-loop attempt. A *delay* — even ``0.0`` — puts exactly
        one ``sim.timeout`` ahead of the first attempt; ``None`` puts
        nothing.
        """
        body = self.run_transaction(logic)
        if delay is not None:
            body = self._after(delay, body)
        self.process = self.sim.process(body, name=name or f"txn-c{self.coord_id}")
        return self.process

    def _after(self, delay: float, body) -> Generator[Event, Any, TxnOutcome]:
        yield self.sim.timeout(delay)
        return (yield from body)

    def register_log_regions(self) -> Event:
        """Register this coordinator's log region at its f+1 log servers
        (control path; done once at spawn)."""
        return self.sim.all_of(
            [
                self.verbs.register_log_region(node_id, self.coord_id)
                for node_id in self.catalog.log_nodes(self.coord_id)
            ]
        )

    # -- engine callbacks ------------------------------------------------------

    def on_commit_ack(self, tx) -> None:
        """Client notified of commit (after replica updates, §2.3)."""
        self.stats.commits += 1
        self.obs.on_outcome(self.engine.name, "commit")
        if self._on_commit is not None:
            self._on_commit(self.sim.now)
        if self.history_sink is not None:
            reads = {
                address: entry.version
                for address, entry in tx.read_set.items()
                if address not in tx.write_set
            }
            writes = {
                address: intent.new_version
                for address, intent in tx.write_set.items()
                if intent.locked and intent.applied
            }
            rmw_reads = {
                address: intent.old_version
                for address, intent in tx.write_set.items()
                if intent.locked and intent.applied
            }
            self.history_sink.append(
                (tx.txn_id, self.sim.now, reads, rmw_reads, writes)
            )

    def on_abort(self, tx, reason: str) -> None:
        self.stats.aborts += 1
        self.stats.abort_reasons[reason] += 1
        self.obs.on_outcome(self.engine.name, f"abort:{reason}")

    # -- worker loop ----------------------------------------------------------------

    def next_txn_id(self) -> int:
        """Unique txn id: (coordinator-id << 32) | sequence."""
        self._txn_seq += 1
        return (self.coord_id << 32) | self._txn_seq

    def _run(self) -> Generator[Event, Any, None]:
        yield self.register_log_regions()
        while True:
            yield from self.node.wait_if_paused()
            logic = self.workload.next_transaction(self.rng)
            try:
                yield from self.run_transaction(logic)
            except LinkRevokedError:
                self.node.on_fenced(self)
                return
            except Exception:
                # An unexpected error escaping a worker would otherwise
                # end this process *silently* — with any locks the
                # in-flight transaction held still set under a live
                # coordinator id, unstealable by PILL forever. Convert
                # it into the one failure mode the system is built to
                # survive: fail-stop the whole node so recovery fences
                # it and reclaims everything it held (§2.1 crash-stop).
                # call_soon: crash() kills this very process, and a
                # running generator cannot close itself.
                self.sim.call_soon(self.node.crash)
                return

    def run_transaction(self, logic) -> Generator[Event, Any, TxnOutcome]:
        """Run one request to completion, retrying aborted attempts."""
        start = self.sim.now
        attempts = 0
        outcome = TxnOutcome(committed=False, reason=AbortReason.LOCK_CONFLICT)
        while attempts < self.config.max_attempts:
            attempts += 1
            self.stats.attempts += 1
            txn_id = self.next_txn_id()
            try:
                outcome = yield from self.engine.run_attempt(logic, txn_id, attempts)
            except LinkRevokedError:
                # We were (perhaps falsely) declared failed and fenced
                # off (Cor1). This coordinator must stop issuing
                # transactions; the node-level handler takes over.
                self.node.on_fenced(self)
                return TxnOutcome(
                    committed=False,
                    reason=AbortReason.LINK_REVOKED,
                    start_time=start,
                    end_time=self.sim.now,
                )
            if outcome.committed:
                break
            if outcome.reason in (
                AbortReason.USER,
                AbortReason.DUPLICATE_KEY,
                AbortReason.NOT_FOUND,
            ):
                # Application-level aborts are final: retrying cannot
                # change the outcome (e.g. insufficient funds).
                break
            if self.config.abandon_on_conflict:
                break
            yield from self.node.wait_if_paused()
            backoff = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** min(attempts - 1, 6)))
            yield self.sim.timeout(backoff * (0.5 + self.rng.random()))
        outcome.attempts = attempts
        outcome.start_time = start
        outcome.end_time = self.sim.now
        if outcome.committed:
            self.stats.latency.add(outcome.latency)
        return outcome
