"""The recovery coordinator (RC) and the end-to-end recovery protocol.

Implements §3.2.2's four steps for compute failures:

1. **Detection** — performed by the failure detector, which calls
   :meth:`RecoveryManager.handle_compute_failure`.
2. **Active-link termination** — revoke the failed node's RDMA rights
   at every memory server via a wimpy-core RPC (Cor1: even a falsely
   suspected node can no longer touch memory).
3. **Log recovery** — read each failed coordinator's log region(s),
   rebuild the write-set of every Logged-Stray-Tx, and roll it forward
   iff *every* replica of *every* written object already carries the
   new version (Cor2/Cor3), otherwise roll it back from the undo
   images. Regions are then truncated, making re-execution idempotent
   (§3.2.3).
4. **Stray-lock notification** — only after truncation, tell the live
   compute servers the failed coordinator-ids so they start stealing
   NotLogged-Stray-Tx locks (Cor4).

The manager is protocol-agnostic: it takes the protocol's declaration
(:class:`repro.protocol.zoo.Protocol`) and runs one fixed pipeline —
fence → find → decide → undo → release → truncate → notify — whose
protocol-specific answers come from the recovery halves of the three
strategy classes (:mod:`repro.protocol.strategies`); see
:meth:`RecoveryManager._repair_strays` and docs/PROTOCOLS.md §6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterable, List, Optional, Set, Tuple

from repro.obs import NOOP_OBS
from repro.rdma.errors import RdmaError
from repro.recovery.scan import release_word, scan_locks
from repro.sim import Event, Simulator

__all__ = ["RecoveryManager", "RecoveryRecord"]

#: Memory-failure metadata agreement + drain window before resuming.
RECONFIG_DELAY = 2e-3


@dataclass
class RecoveryRecord:
    """Timeline and counters of one node recovery (for the harness)."""

    node_id: int
    kind: str  # "compute" or "memory"
    detected_at: float
    fenced_at: float = 0.0
    log_recovered_at: float = 0.0
    notified_at: float = 0.0
    finished_at: float = 0.0
    coordinators: int = 0
    logged_txns: int = 0
    rolled_forward: int = 0
    rolled_back: int = 0
    locks_released: int = 0
    scanned_slots: int = 0
    # Replica copies actually rewritten from undo images during
    # roll-back (a no-op roll-back restores nothing).
    restored_replicas: int = 0

    @property
    def log_recovery_latency(self) -> float:
        """The paper's Table 2 metric: time spent in log recovery."""
        return self.log_recovered_at - self.fenced_at

    @property
    def total_latency(self) -> float:
        """Detection-to-finished duration."""
        return self.finished_at - self.detected_at


class RecoveryManager:
    """Runs recovery on a dedicated compute identity with own verbs."""

    def __init__(
        self,
        sim: Simulator,
        verbs,
        catalog,
        network,
        compute_nodes: Dict[int, Any],
        memory_nodes: Dict[int, Any],
        id_allocator,
        protocol,
        drain_delay: float = 0.5e-3,
        restart_hook=None,
        restart_after: Optional[float] = None,
        obs=None,
    ) -> None:
        self.sim = sim
        self.verbs = verbs
        self.catalog = catalog
        self.placement = catalog.placement
        self.network = network
        self.compute_nodes = compute_nodes
        self.memory_nodes = memory_nodes
        self.id_allocator = id_allocator
        # The declaration (lock x log x commit) recovery is composed from.
        self.protocol = protocol
        self.drain_delay = drain_delay
        self.restart_hook = restart_hook
        self.restart_after = restart_after
        self.obs = obs if obs is not None else NOOP_OBS
        self.records: List[RecoveryRecord] = []
        self._in_progress: Set[Tuple[str, int]] = set()
        self._processes: Dict[Tuple[str, int], Any] = {}

    # -- entry points (called by the failure detector) -----------------------

    def handle_compute_failure(self, node) -> Optional[Event]:
        """Begin the four-step compute recovery (section 3.2.2)."""
        key = ("compute", node.node_id)
        if key in self._in_progress:
            return None
        self._in_progress.add(key)
        process = self.sim.process(
            self._recover_compute(node), name=f"recover-c{node.node_id}"
        )
        self._processes[key] = process
        return process

    def handle_memory_failure(self, node) -> Optional[Event]:
        """Begin memory-failure reconfiguration (section 3.2.5)."""
        key = ("memory", node.node_id)
        if key in self._in_progress:
            return None
        self._in_progress.add(key)
        process = self.sim.process(
            self._recover_memory(node), name=f"recover-m{node.node_id}"
        )
        self._processes[key] = process
        return process

    def recovering(
        self, kind: Optional[str] = None, node_id: Optional[int] = None
    ) -> List[Tuple[str, int]]:
        """The recoveries in flight, as sorted ``(kind, node_id)`` claims
        — all of them, or only those of *kind* and/or for *node_id*.
        Empty (falsy) when there is none."""
        return sorted(
            claim
            for claim in self._in_progress
            if kind in (None, claim[0]) and node_id in (None, claim[1])
        )

    def kill_recovery(self, kind: str, node_id: int) -> bool:
        """Crash-stop an in-flight recovery (the RC itself failing).

        Returns True when a live recovery process was killed. The
        ``finally`` blocks in the recovery generators run on kill, so
        the in-progress claim is released and a later re-detection (or
        an explicit ``handle_*_failure`` call) can start recovery over
        from scratch — which is safe because every step is idempotent.
        """
        process = self._processes.get((kind, node_id))
        if process is None or not process.is_alive:
            return False
        process.kill()
        return True

    # -- compute-failure recovery (§3.2.2) ---------------------------------------

    def alive_memory_ids(self) -> List[int]:
        return [nid for nid, node in self.memory_nodes.items() if node.alive]

    def _tell_compute_nodes(
        self, method: str, *args: Any, excluding: Optional[int] = None
    ) -> None:
        """Send a control message to every live compute server (but
        *excluding*): ``node.<method>(*args)`` runs there one network
        delay from now."""
        for node in self.compute_nodes.values():
            if node.alive and node.node_id != excluding:
                delay = self.network.delay(128)
                self.sim.call_at(
                    self.sim.now + delay, lambda n=node: getattr(n, method)(*args)
                )

    def _recover_compute(self, node) -> Generator[Event, Any, None]:
        key = ("compute", node.node_id)
        try:
            yield from self._recover_compute_inner(node)
        finally:
            # Runs on normal completion AND when this recovery process
            # is itself killed mid-flight (GeneratorExit): the claim
            # must be released either way, or the node becomes
            # unrecoverable forever — no re-detection can start (the
            # key is still "in progress") and restart_compute defers
            # in a loop waiting for it to clear. Re-running recovery
            # from scratch is safe because every step is idempotent
            # (§3.2.3).
            self._in_progress.discard(key)
            self._processes.pop(key, None)

    def _recover_compute_inner(self, node) -> Generator[Event, Any, None]:
        record = RecoveryRecord(
            node_id=node.node_id, kind="compute", detected_at=self.sim.now
        )
        self.records.append(record)
        coord_ids = node.coordinator_ids()
        record.coordinators = len(coord_ids)
        tracer = self.obs.tracer
        self.obs.metrics.inc("recovery.compute_recoveries")

        # Step 2: active-link termination at every live memory server.
        # Posted in parallel, awaited one by one: a memory server that
        # crashes between posting and its ack fails only its own fence
        # (a dead server cannot serve the fenced node's verbs anyway)
        # — an all_of here would abort the whole recovery instead.
        fence_events = [
            self.verbs.revoke_link(mem_id, node.node_id)
            for mem_id in self.alive_memory_ids()
        ]
        yield from self._settle(fence_events)
        record.fenced_at = self.sim.now
        tracer.span(
            "recovery",
            "link-revoke",
            record.detected_at,
            record.fenced_at,
            pid=node.node_id,
            args={"memory_nodes": len(fence_events)},
        )

        # Step 3: log recovery (or its logless / anonymous analogues).
        yield from self._repair_strays(coord_ids, record, pid=node.node_id)
        record.log_recovered_at = self.sim.now

        # Step 4: stray-lock notification, strictly after truncation
        # (Cor4) — only NotLogged-Stray-Tx locks remain stealable.
        for coord_id in coord_ids:
            self.id_allocator.mark_failed(coord_id)
        self._tell_compute_nodes(
            "add_failed_ids", tuple(coord_ids), excluding=node.node_id
        )
        record.notified_at = self.sim.now
        record.finished_at = self.sim.now
        tracer.span(
            "recovery",
            "stray-lock-notify",
            record.log_recovered_at,
            record.notified_at,
            pid=node.node_id,
            args={"failed_ids": len(coord_ids)},
        )
        metrics = self.obs.metrics
        metrics.inc("recovery.rolled_forward", record.rolled_forward)
        metrics.inc("recovery.rolled_back", record.rolled_back)
        metrics.inc("recovery.locks_released", record.locks_released)
        metrics.observe(
            "recovery.log_recovery_latency", record.log_recovery_latency
        )
        metrics.observe("recovery.total_latency", record.total_latency)

        # Only a recovery that ran to completion schedules the restart:
        # a node whose recovery died mid-flight must stay down until a
        # fresh recovery finishes (its old ids are not yet marked
        # failed, so restarting would race stray-lock notification).
        if self.restart_hook is not None and self.restart_after is not None:
            self.sim.call_at(
                self.sim.now + self.restart_after,
                lambda n=node: self.restart_hook(n),
            )

    # -- step 3: find, decide, undo, release, truncate ---------------------------

    def _repair_strays(
        self, coord_ids: List[int], record: RecoveryRecord, pid: int
    ) -> Generator[Event, Any, None]:
        """One pipeline for every protocol, composed from its axes.

        The commit axis *finds* the interrupted transactions (from the
        places the log axis says a dead coordinator's records live, or
        from a scan for its lock words) and supplies their undo images;
        deciding between roll-forward and roll-back is the same rule
        for all of them; the lock axis says which words a dead owner
        can be held to, and whatever it cannot attribute is released
        by lock-intent replay or — with neither — a quiesced full scan.
        Regions are truncated last, making re-execution idempotent
        (§3.2.3); every step before that is idempotent too (conditioned
        CAS releases, version-guarded restores), so a killed recovery
        can re-run from scratch.
        """
        protocol = self.protocol
        tracer = self.obs.tracer
        quiesce = protocol.needs_quiesce_scan
        if quiesce:
            yield from self._quiesce(pid)

        # Span starts chain (the first log-region-read covers the read
        # burst, the rest begin where the previous replay ended) so the
        # recovery spans still tile [detected_at, finished_at] exactly.
        segment_started = self.sim.now
        sources = [
            (coord_id, protocol.log.sources(self, coord_id))
            for coord_id in coord_ids
        ]
        found = yield from protocol.commit.find_interrupted(
            self, sources, record, pid
        )
        for evidence in found:
            coord_id = evidence.coord_id
            if coord_id is not None:
                tracer.span(
                    "recovery",
                    "log-region-read",
                    segment_started,
                    self.sim.now,
                    pid=pid,
                    tid=coord_id,
                    args={
                        "records": evidence.records,
                        "logged_txns": len(evidence.txns),
                    },
                )
            record.logged_txns += len(evidence.txns)
            # Repairs run in deterministic order, one at a time: they
            # mutate object state, so interleaving them would be a
            # behaviour change, not a speedup.
            for txn in evidence.txns:
                headers = yield from self._repair_txn(txn, record, pid)
                if protocol.lock.pill and evidence.stray_words is None:
                    # The write-set says where this txn's locks are;
                    # the words say whether it still holds them.
                    started = self.sim.now
                    yield from self._release_txn_locks(txn, headers, record)
                    tracer.span(
                        "recovery", "stray-lock-release", started, self.sim.now,
                        pid=pid, tid=txn.coord_id,
                    )
            if evidence.lock_intents:
                started = self.sim.now
                yield from self._replay_lock_intents(evidence.lock_intents, record)
                tracer.span(
                    "recovery", "stray-lock-release", started, self.sim.now,
                    pid=pid, tid=coord_id,
                    args={"lock_intents": len(evidence.lock_intents)},
                )
            if evidence.stray_words is not None:
                # Owner-conditioned CAS on every scanned word (which
                # also clears that slot's vote shadow server-side).
                started = self.sim.now
                for stray in evidence.stray_words:
                    yield from release_word(self.verbs, record, *stray)
                tracer.span(
                    "recovery", "stray-lock-release", started, self.sim.now,
                    pid=pid, args={"locks": len(evidence.stray_words)},
                )
            segment_started = self.sim.now

        if any(node_ids for _coord_id, node_ids in sources):
            yield from self._truncate_log_regions(sources, pid)
        if quiesce:
            yield from self._release_every_lock(record, pid)

    def read_log_regions(
        self, sources: List[Tuple[int, List[int]]]
    ) -> Generator[Event, Any, List[Tuple[int, List[Any]]]]:
        """Fetch every dead coordinator's log regions in one burst.

        The paper's RC fetches all f+1 regions "with large parallel
        reads" (§4/Table 2): the reads for *every* coordinator are
        posted before the first result is awaited — posting happens
        eagerly at verbs.read_log_region() call time — so they pipeline
        on the QPs instead of paying one round trip per coordinator.
        """
        posted = [
            (
                coord_id,
                [self.verbs.read_log_region(node_id, coord_id) for node_id in node_ids],
            )
            for coord_id, node_ids in sources
        ]
        gathered = []
        for coord_id, events in posted:
            records: List[Any] = []
            for event in events:
                try:
                    records.extend((yield event))
                except RdmaError:
                    continue  # a log replica died; the others suffice
            gathered.append((coord_id, records))
        return gathered

    def _truncate_log_regions(
        self, sources: List[Tuple[int, List[int]]], pid: int
    ) -> Generator[Event, Any, None]:
        """One burst of region truncations, after every repair."""
        started = self.sim.now
        events = [
            self.verbs.truncate_log_region(node_id, coord_id)
            for coord_id, node_ids in sources
            for node_id in node_ids
            if self.memory_nodes[node_id].alive
        ]
        yield from self._settle(events)
        self.obs.tracer.span(
            "recovery",
            "truncate",
            started,
            self.sim.now,
            pid=pid,
            args={"regions": len(events), "coordinators": len(sources)},
        )

    def _settle(self, events: Iterable[Event]) -> Generator[Event, Any, None]:
        """Await posted verbs one by one; a memory server that died in
        flight fails only its own (the survivors' outcomes stand)."""
        for event in events:
            try:
                yield event
            except RdmaError:
                continue

    def restore(self, node_id: int, address: Tuple[int, int], image) -> Event:
        """Roll one replica back to *image* — anything carrying the
        ``old_version`` / ``old_value`` / ``old_present`` it had."""
        table_id, slot = address
        return self.verbs.write_object(
            node_id,
            table_id,
            slot,
            image.old_version,
            image.old_value,
            image.old_present,
            value_size=self.catalog.tables[table_id].value_size,
        )

    def _repair_txn(
        self, txn, record: RecoveryRecord, pid: int
    ) -> Generator[Event, Any, Dict[Tuple[int, Tuple[int, int]], Tuple]]:
        """Decide roll-forward vs roll-back for one stray transaction;
        returns the replica headers the decision was made on."""
        started = self.sim.now
        # Read the headers of every live replica of every written
        # object, batched per memory node.
        per_node: Dict[int, List[Tuple[int, int]]] = {}
        for address in txn.new_versions:
            for node_id in self.placement.replicas(*address):
                if self.memory_nodes[node_id].alive:
                    per_node.setdefault(node_id, []).append(address)
        posted = [
            (node_id, addresses, self.verbs.read_headers(node_id, addresses))
            for node_id, addresses in per_node.items()
        ]
        headers: Dict[Tuple[int, Tuple[int, int]], Tuple] = {}
        for node_id, addresses, event in posted:
            try:
                results = yield event
            except RdmaError:
                continue
            for address, header in zip(addresses, results):
                headers[(node_id, address)] = header

        updated, roll_forward = self._updated_replicas(txn, headers)
        if roll_forward:
            record.rolled_forward += 1
        else:
            record.rolled_back += 1
            restores = yield from self.protocol.commit.post_undo(self, txn, updated)
            record.restored_replicas += len(restores)
            yield from self._settle(restores)
        self.obs.tracer.span(
            "recovery",
            "roll-forward" if roll_forward else "roll-back",
            started,
            self.sim.now,
            pid=pid,
            tid=txn.coord_id,
            args={"writes": len(txn.new_versions)},
        )
        return headers

    def _updated_replicas(
        self, txn, headers
    ) -> Tuple[List[Tuple[int, Tuple[int, int]]], bool]:
        """The Cor2/Cor3 rule: roll forward iff every live replica of
        every written address carries (at least) the new version — only
        then may a commit-ack have reached the client, and an abort-ack
        is impossible. Returns the ``(node, address)`` replicas that
        took the update (the ones a roll-back must restore) and whether
        that is all of them."""
        updated = []
        roll_forward = True
        for address, new_version in txn.new_versions.items():
            for node_id in self.placement.replicas(*address):
                header = headers.get((node_id, address))
                if header is None:
                    continue  # replica down; judged by the survivors
                _lock, version, _present = header
                if version >= new_version:
                    updated.append((node_id, address))
                else:
                    roll_forward = False
        return updated, roll_forward

    # -- releasing a dead owner's locks ------------------------------------------

    def _release_txn_locks(
        self, txn, headers, record: RecoveryRecord
    ) -> Generator[Event, Any, None]:
        """Owner-conditioned CAS on the primaries *txn* still holds."""
        owned_by = self.protocol.lock.owned_by
        owner = (txn.coord_id,)
        cas_events = []
        for address in txn.new_versions:
            node_id = self.placement.primary(*address)
            header = headers.get((node_id, address))
            if header is not None and owned_by(header[0], owner):
                table_id, slot = address
                cas_events.append(
                    self.verbs.cas_lock(node_id, table_id, slot, header[0], 0)
                )
        for event in cas_events:
            try:
                old = yield event
            except RdmaError:
                continue
            if owned_by(old, owner):
                record.locks_released += 1

    def _replay_lock_intents(
        self, lock_intents, record: RecoveryRecord
    ) -> Generator[Event, Any, None]:
        """Traditional scheme: release each lock whose word still
        matches its lock-intent record."""
        for intent in lock_intents:
            try:
                node_id = self.placement.primary(intent.table_id, intent.slot)
            except RuntimeError:
                continue
            if not self.memory_nodes[node_id].alive:
                continue
            try:
                lock, _version, _present = yield self.verbs.read_header(
                    node_id, intent.table_id, intent.slot
                )
            except RdmaError:
                continue
            if lock == intent.word:
                yield from release_word(
                    self.verbs, record, node_id, intent.table_id, intent.slot, lock
                )

    def scan_locks(self, chunk_charge, release, tally) -> Generator[Event, Any, None]:
        """The shared keyspace scanner over the live memory nodes."""
        yield from scan_locks(
            self.sim,
            self.verbs,
            self.memory_nodes,
            self.alive_memory_ids(),
            chunk_charge,
            release,
            tally,
        )

    def _quiesce(self, pid: int) -> Generator[Event, Any, None]:
        """Stop the world and drain. One-sided reads cannot attribute
        anonymous locks to owners, so every compute server must be
        quiesced first; afterwards every remaining lock belongs to the
        failed node (§3.1.1)."""
        started = self.sim.now
        self._tell_compute_nodes("pause", excluding=pid)
        yield self.sim.timeout(self.drain_delay)
        self.obs.tracer.span("recovery", "drain", started, self.sim.now, pid=pid)

    def _release_every_lock(
        self, record: RecoveryRecord, pid: int
    ) -> Generator[Event, Any, None]:
        """Scan every slot of the quiesced store, unlock whatever is
        locked, resume. The scan issues one read per slot from a single
        recovery thread — the source of the ~5 s/million-keys latency
        the paper measures (§6.1)."""
        started = self.sim.now
        per_slot_rtt = 2 * self.network.config.one_way_latency + 4e-7
        yield from self.scan_locks(
            lambda slots: slots * per_slot_rtt,
            lambda _node, _table, _slot, _word: True,
            record,
        )
        self.obs.tracer.span(
            "recovery",
            "scan",
            started,
            self.sim.now,
            pid=pid,
            args={"scanned_slots": record.scanned_slots},
        )
        self._tell_compute_nodes("resume", excluding=pid)

    # -- memory re-replication (§3.2.5, ">f failures" path) -----------------------

    def restore_memory_node(self, node) -> Optional[Event]:
        """Bring a memory server back and re-replicate its partitions.

        §3.2.5: "Pandora adds new memory servers if there are more
        than f replica failures. For this, we stop the DKVS,
        re-replicate all the partitions, and then resume." The copy is
        charged at network bandwidth; compute servers are paused for
        its duration (this path is deliberately stop-the-world).
        """
        if node.alive:
            return None
        process = self.sim.process(
            self._restore_memory(node), name=f"rereplicate-m{node.node_id}"
        )
        self._processes[("memory-restore", node.node_id)] = process
        return process

    def _restore_memory(self, node) -> Generator[Event, Any, None]:
        try:
            yield from self._restore_memory_inner(node)
        finally:
            # Allow this node to be detected/restored again even if the
            # re-replication itself was killed mid-flight.
            self._in_progress.discard(("memory", node.node_id))
            self._processes.pop(("memory-restore", node.node_id), None)

    def _restore_memory_inner(self, node) -> Generator[Event, Any, None]:
        record = RecoveryRecord(
            node_id=node.node_id, kind="memory-restore", detected_at=self.sim.now
        )
        self.records.append(record)
        self._tell_compute_nodes("pause")
        yield self.sim.timeout(self.drain_delay)
        record.fenced_at = self.sim.now

        # Copy every partition replica this node hosts from a live
        # copy, charging the transfer at link bandwidth.
        node.restart()

        # Catch-up truncation: invalidations and truncations issued
        # while this node was down never reached it, but a restart
        # preserves DRAM — so its regions may still hold *valid*
        # records of transactions that have long since resolved. A
        # later log recovery replaying such a record can regress
        # committed data (an aborted txn's stale record rolls undo
        # images over newer versions). Every record here is stale —
        # in-flight txns that logged to this node failed their later
        # verbs against it and resolved via the interrupt path —
        # except records of a coordinator that crashed and has NOT
        # been recovered yet: those may be the surviving log copy, so
        # they are kept for the pending recovery to consume.
        pending_recovery = set()
        for compute in self.compute_nodes.values():
            if not compute.alive:
                pending_recovery.update(compute.coordinator_ids())
        for coord_id, region in node.log_regions.items():
            if (
                coord_id in pending_recovery
                and coord_id not in self.id_allocator.failed
            ):
                continue
            region.truncate()

        copied_bytes = 0
        for spec in self.catalog.tables.values():
            table_id = spec.table_id
            for slot in range(self.catalog.key_count(table_id)):
                replicas = self.placement.replicas(table_id, slot)
                if node.node_id not in replicas:
                    continue
                source_id = next(
                    (
                        nid
                        for nid in replicas
                        if nid != node.node_id and self.memory_nodes[nid].alive
                    ),
                    None,
                )
                if source_id is None:
                    continue  # data lost beyond f failures
                source = self.memory_nodes[source_id].slot(table_id, slot)
                target = node.slot(table_id, slot)
                target.lock = 0
                target.version = source.version
                target.value = source.value
                target.present = source.present
                copied_bytes += source.slot_bytes
        yield self.sim.timeout(self.network.transfer_time(copied_bytes))
        record.scanned_slots = copied_bytes  # reuse field: bytes moved
        record.log_recovered_at = self.sim.now

        self.placement.mark_up(node.node_id)
        self._tell_compute_nodes("resume")
        record.notified_at = self.sim.now
        record.finished_at = self.sim.now
        self.obs.tracer.span(
            "recovery",
            "re-replicate",
            record.detected_at,
            record.finished_at,
            pid=node.node_id,
            args={"bytes_copied": copied_bytes},
        )

    # -- memory-failure recovery (§3.2.5) -------------------------------------------------

    def _recover_memory(self, node) -> Generator[Event, Any, None]:
        try:
            yield from self._recover_memory_inner(node)
        finally:
            self._in_progress.discard(("memory", node.node_id))
            self._processes.pop(("memory", node.node_id), None)

    def _recover_memory_inner(self, node) -> Generator[Event, Any, None]:
        record = RecoveryRecord(
            node_id=node.node_id, kind="memory", detected_at=self.sim.now
        )
        self.records.append(record)

        # Tell every compute server; each pauses, interrupts in-flight
        # transactions (they self-decide commit/abort against the live
        # replica set), and recomputes primaries deterministically.
        self.placement.mark_down(node.node_id)
        self._tell_compute_nodes("begin_memory_reconfig")
        record.fenced_at = self.sim.now

        # Metadata agreement + drain window before resuming.
        yield self.sim.timeout(RECONFIG_DELAY)
        record.log_recovered_at = self.sim.now

        self._tell_compute_nodes("end_memory_reconfig")
        record.notified_at = self.sim.now
        record.finished_at = self.sim.now
        self.obs.tracer.span(
            "recovery",
            "memory-reconfig",
            record.detected_at,
            record.finished_at,
            pid=node.node_id,
        )
        self.obs.metrics.inc("recovery.memory_reconfigs")
