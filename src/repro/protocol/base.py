"""The shared transaction engine (execution / validation / commit-abort).

FORD, Pandora, the "traditional logging" variant, and the newer zoo
members (LOTUS ticket queueing, logless vote-1PC) all run the same
optimistic skeleton (§2.3): eager-lock the write-set during execution,
validate the read-set, then commit or abort. The variants differ along
three pluggable axes (see :mod:`repro.protocol.strategies`):

* the **lock strategy** — the lock-word format and acquisition flow
  (anonymous CAS vs PILL owner-id CAS-steal, §3.1.2, vs LOTUS FAA
  ticket queues),
* the **log strategy** — undo-record placement and timing
  (per-object-to-object-replicas vs a single coalesced record to f+1
  fixed log servers, §3.1.4; the traditional variant adds a pre-lock
  lock-intent round trip; vote1pc logs nothing),
* the **commit strategy** — what an apply write carries and when the
  upgrade re-check runs (logged commit, FORD's late-upgrade variant,
  or the logless vote write),

plus the six **bug flags** of Table 1, which reproduce the published
FORD behaviour for the litmus framework and stay on the engine.

``tests/integration/test_golden_outcomes.py`` pins every protocol's
seeded litmus and chaos outcomes against recorded golden values.

Application logic is a generator function ``logic(tx)`` that drives a
:class:`Txn` handle (`yield from tx.read(...)`, ``tx.write(...)``); the
engine executes it inside the protocol, exactly as the DKVS
compute-side library runs application requests (§2.1).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Hashable, List, Optional, Tuple

from repro.obs import NULL_TXN_TRACE
from repro.protocol.locks import is_locked
from repro.protocol.types import (
    OP_DELETE,
    OP_INSERT,
    OP_UPDATE,
    AbortReason,
    BugFlags,
    ReadEntry,
    TxnAbort,
    TxnOutcome,
    WriteIntent,
)
from repro.rdma.errors import LinkRevokedError, RdmaError
from repro.sim import Event, Interrupt

__all__ = ["Txn", "ProtocolEngine"]


class Txn:
    """Per-attempt transaction context handed to application logic."""

    __slots__ = (
        "engine",
        "txn_id",
        "read_set",
        "write_set",
        "lock_procs",
        "log_acks",
        "logged_records",
        "result",
        "start_time",
        "trace",
    )

    def __init__(self, engine: "ProtocolEngine", txn_id: int) -> None:
        self.engine = engine
        self.txn_id = txn_id
        self.read_set: Dict[Tuple[int, int], ReadEntry] = {}
        self.write_set: Dict[Tuple[int, int], WriteIntent] = {}
        self.lock_procs: List[Event] = []
        self.log_acks: List[Event] = []
        # (memory node id, record id) pairs of coalesced log copies.
        self.logged_records: List[Tuple[int, int]] = []
        self.result: Any = None
        self.start_time = engine.sim.now
        # Obs handle for this attempt; lock subprocesses use it to
        # attribute their verbs (run_attempt swaps in the real one).
        self.trace = NULL_TXN_TRACE

    # -- application-facing operations (BeginTx is implicit) ---------------

    def read(self, table: str, key: Hashable) -> Generator[Event, Any, Any]:
        """Read one object; returns its value or None if absent."""
        engine = self.engine
        table_id = engine.catalog.table(table).table_id
        slot = engine.catalog.slot_for(table_id, key)
        address = (table_id, slot)
        intent = self.write_set.get(address)
        if intent is not None:
            # Read-your-writes from the local buffer.
            if intent.new_value is not None or intent.kind == OP_DELETE:
                return None if intent.kind == OP_DELETE else intent.new_value
            return intent.old_value
        cached = self.read_set.get(address)
        if cached is not None:
            return cached.value if cached.present else None
        primary = engine.placement.primary(table_id, slot)
        if engine.traced:
            self.trace.focus("execute")
        image = yield engine.verbs.read_object(primary, table_id, slot)
        entry = engine._record_read(self, table_id, key, slot, primary, image)
        return entry.value if entry.present else None

    def read_many(
        self, table: str, keys: List[Hashable]
    ) -> Generator[Event, Any, List[Any]]:
        """Batched read of several keys in one round trip.

        Reads not served from the local buffers are posted together
        (doorbell batching), so the whole batch costs one round trip
        per involved memory node instead of one per key.
        """
        engine = self.engine
        table_id = engine.catalog.table(table).table_id
        values: List[Any] = [None] * len(keys)
        to_fetch = []
        for index, key in enumerate(keys):
            slot = engine.catalog.slot_for(table_id, key)
            address = (table_id, slot)
            intent = self.write_set.get(address)
            if intent is not None:
                if intent.kind == OP_DELETE:
                    values[index] = None
                elif intent.new_value is not None:
                    values[index] = intent.new_value
                else:
                    values[index] = intent.old_value
                continue
            cached = self.read_set.get(address)
            if cached is not None:
                values[index] = cached.value if cached.present else None
                continue
            to_fetch.append((index, key, slot))
        if to_fetch:
            fetched = yield from engine._execute_read_batch(
                self, table_id, to_fetch
            )
            for index, value in fetched:
                values[index] = value
        return values

    def read_range(
        self, table: str, start_key: int, count: int
    ) -> Generator[Event, Any, List[Any]]:
        """ReadRange (§2.1): batched read of *count* consecutive keys."""
        if count < 1:
            raise ValueError("count must be >= 1")
        keys = [start_key + offset for offset in range(count)]
        values = yield from self.read_many(table, keys)
        return values

    def read_for_update(self, table: str, key: Hashable) -> Generator[Event, Any, Any]:
        """Lock-and-read: eagerly acquires the write lock, returns value."""
        engine = self.engine
        table_id = engine.catalog.table(table).table_id
        slot = engine.catalog.slot_for(table_id, key)
        address = (table_id, slot)
        intent = self.write_set.get(address)
        if intent is None:
            intent = self._new_intent(table_id, key, slot, OP_UPDATE)
        if not intent.lock_proc.triggered:
            yield intent.lock_proc
        success, reason = intent.lock_result
        if not success:
            raise TxnAbort(reason, f"{table}[{key!r}]")
        return intent.old_value if intent.old_present else None

    def write(self, table: str, key: Hashable, value: Any) -> None:
        """Buffer an update; the lock is acquired eagerly in the background.

        Returns immediately — FORD pipelines blind-write locks with the
        rest of execution; the engine waits for all lock completions at
        the execution barrier (unless the relaxed-locks bug is on).
        """
        engine = self.engine
        table_id = engine.catalog.table(table).table_id
        slot = engine.catalog.slot_for(table_id, key)
        intent = self.write_set.get((table_id, slot))
        if intent is None:
            cached = self.read_set.get((table_id, slot))
            intent = self._new_intent(
                table_id,
                key,
                slot,
                OP_UPDATE,
                expected_version=cached.version if cached is not None else None,
            )
        elif intent.kind == OP_DELETE:
            # Write-after-delete within one transaction resurrects the
            # object (net effect: an update).
            intent.kind = OP_UPDATE
        intent.new_value = value

    def insert(self, table: str, key: Hashable, value: Any) -> None:
        """Buffer an insert; aborts at lock time if the key exists."""
        engine = self.engine
        table_id = engine.catalog.table(table).table_id
        slot = engine.catalog.slot_for(table_id, key)
        existing = self.write_set.get((table_id, slot))
        if existing is not None:
            if existing.kind == OP_DELETE:
                # Delete-then-insert in one transaction nets out to an
                # update with the new value.
                existing.kind = OP_UPDATE
                existing.new_value = value
                return
            raise TxnAbort(AbortReason.DUPLICATE_KEY, f"{table}[{key!r}]")
        intent = self._new_intent(table_id, key, slot, OP_INSERT)
        intent.new_value = value

    def delete(self, table: str, key: Hashable) -> None:
        """Buffer a delete; aborts at lock time if the key is absent."""
        engine = self.engine
        table_id = engine.catalog.table(table).table_id
        slot = engine.catalog.slot_for(table_id, key)
        existing = self.write_set.get((table_id, slot))
        if existing is not None:
            existing.kind = OP_DELETE
            existing.new_value = None
            return
        cached = self.read_set.get((table_id, slot))
        self._new_intent(
            table_id,
            key,
            slot,
            OP_DELETE,
            expected_version=cached.version if cached is not None else None,
        )

    def abort(self, detail: str = "") -> None:
        """Application-requested abort."""
        raise TxnAbort(AbortReason.USER, detail)

    # -- internals ----------------------------------------------------------

    def _new_intent(
        self,
        table_id: int,
        key: Hashable,
        slot: int,
        kind: str,
        expected_version: Optional[int] = None,
    ) -> WriteIntent:
        intent = WriteIntent(
            table_id=table_id,
            key=key,
            slot=slot,
            kind=kind,
            expected_version=expected_version,
        )
        self.write_set[(table_id, slot)] = intent
        intent.lock_proc = self.engine.sim.process(
            self.engine.lock.acquire(self, intent), name=f"lock-{table_id}:{slot}"
        )
        self.lock_procs.append(intent.lock_proc)
        return intent


class ProtocolEngine:
    """Shared OCC engine; *protocol* (a :class:`repro.protocol.zoo.Protocol`
    declaration) supplies the lock x log x commit strategy triple."""

    def __init__(self, coordinator, protocol, bugs: BugFlags) -> None:
        self.coordinator = coordinator
        self.name = protocol.name
        self.sim = coordinator.sim
        self.verbs = coordinator.verbs
        self.catalog = coordinator.catalog
        self.placement = coordinator.catalog.placement
        self.coord_id = coordinator.coord_id
        self.obs = coordinator.obs
        # With observability off every TxnTrace call is a no-op, so
        # the steady path tests this instead of making the call.
        self.traced = coordinator.obs.enabled
        # The injector's armed plans, a dict it only ever mutates in
        # place (empty when the cluster has no injector).
        faults = coordinator.faults
        self._crash_plans = faults.plans_by_node if faults is not None else {}
        self.bugs = bugs
        self.lock = protocol.lock(self)
        self.log = protocol.log(self)
        self.commit = protocol.commit(self)
        # The attempt in flight while it is still undecided: cleared at
        # every decision point, and by the reconfiguration that
        # interrupts it, so an attempt is interrupted at most once.
        self.current_tx: Optional[Txn] = None
        # §7 persistence: chase commit writes with a small read per
        # touched node to flush the RNIC cache into NVM before acking.
        self.nvm_flush = coordinator.config.nvm_flush

    # -- fault hooks -----------------------------------------------------------

    def _cp(self, name: str) -> Generator[Event, Any, None]:
        """Crash point: the injector may kill this compute node here.

        Each of the ~10 crash points per attempt is spelled
        ``if self._crash_plans: yield from self._cp(name)``: nearly
        every run arms no crash plan, and then a crash point costs one
        truth test and no call.
        """
        checkpoint = self.coordinator.faults.crash_point(name, self.coordinator)
        if checkpoint is not None:
            yield checkpoint

    # -- top-level attempt -------------------------------------------------------

    def run_attempt(
        self, logic, txn_id: int, attempt: int = 1
    ) -> Generator[Event, Any, TxnOutcome]:
        """Execute one attempt of *logic*; returns a TxnOutcome."""
        tx = Txn(self, txn_id)
        self.current_tx = tx
        trace = self.obs.txn_begin(
            self.name,
            self.coordinator.node.node_id,
            self.coord_id,
            txn_id,
            tx.start_time,
            attempt,
        )
        tx.trace = trace
        try:
            generated = logic(tx)
            if hasattr(generated, "__next__"):
                tx.result = yield from generated
            else:
                tx.result = generated
            if self._crash_plans:
                yield from self._cp("execution_done")
            traced = self.traced
            if traced:
                trace.phase("execute", self.sim.now)

            if self.bugs.relaxed_locks:
                # BUG (Table 1, "Relaxed Locks"): validation reads are
                # posted before the write-set locks are known to be
                # held, so validation can race ahead of locking.
                validation_groups = self._post_validation_reads(tx)
                yield from self._lock_barrier(tx)
                if traced:
                    trace.phase("lock", self.sim.now)
                self.log.post_barrier(tx)
            else:
                yield from self._lock_barrier(tx)
                if traced:
                    trace.phase("lock", self.sim.now)
                if self._crash_plans:
                    yield from self._cp("locks_held")
                self.log.post_barrier(tx)
                validation_groups = self._post_validation_reads(tx)
            if self._crash_plans:
                yield from self._cp("log_posted")

            yield from self._check_validation(tx, validation_groups)
            if self.commit.late_upgrade:
                self._check_upgrades(tx)
            if traced:
                trace.phase("validate", self.sim.now)

            # Decision point: the write-set must be durably logged
            # before any in-place update (§3.1.5 "(2) ... ensures the
            # write-set is logged").
            if tx.log_acks:
                yield self.sim.all_of(tx.log_acks)
            if traced:
                trace.phase("log", self.sim.now)
            if self._crash_plans:
                yield from self._cp("decision")

            yield from self._commit(tx, trace)
            trace.end("commit", self.sim.now, writes=len(tx.write_set))
            return TxnOutcome(
                committed=True,
                value=tx.result,
                txn_id=txn_id,
                start_time=tx.start_time,
                end_time=self.sim.now,
            )
        except TxnAbort as abort:
            self.current_tx = None
            yield from self._abort(tx, abort.reason)
            trace.phase("abort", self.sim.now)
            trace.end(f"abort:{abort.reason}", self.sim.now, writes=len(tx.write_set))
            return TxnOutcome(
                committed=False,
                reason=abort.reason,
                txn_id=txn_id,
                start_time=tx.start_time,
                end_time=self.sim.now,
            )
        except LinkRevokedError:
            # We were fenced by active-link termination (Cor1); the
            # coordinator-level handler decides what to do next. Held
            # locks are deliberately NOT released here: fencing marks
            # this coordinator dead, which makes its locks stealable,
            # and the RecoveryManager's compute-failure path owns
            # releasing or repairing them (§3.2.2).
            trace.end("fenced", self.sim.now, writes=len(tx.write_set))
            raise
        except (RdmaError, Interrupt):
            # A replica went down mid-attempt, or a memory
            # reconfiguration interrupted it: apply the compute-side
            # decision rule of §3.2.5, once. Both land only here, while
            # the attempt is undecided (see current_tx).
            outcome = yield from self.recover_interrupted(tx)
            trace.end(f"abort:{outcome.reason}", self.sim.now, writes=len(tx.write_set))
            return outcome
        except Exception:
            # Application logic raised something the protocol does not
            # model (a bug in the transaction body). The write-set may
            # hold eagerly-acquired locks under a *live* coordinator id
            # — unstealable by PILL — so run the abort path to release
            # them before the error escapes to the worker loop's
            # crash-stop conversion. Pinned by TestAppErrorReleasesLocks.
            self.current_tx = None
            yield from self._abort(tx, AbortReason.APP_ERROR)
            trace.end(
                f"abort:{AbortReason.APP_ERROR}",
                self.sim.now,
                writes=len(tx.write_set),
            )
            raise
        finally:
            self.current_tx = None

    # -- execution phase -----------------------------------------------------------

    def _execute_read_batch(
        self, tx: Txn, table_id: int, to_fetch
    ) -> Generator[Event, Any, List]:
        """Post many reads together; one round trip per memory node."""
        if self.traced:
            tx.trace.focus("execute")
        posted = []
        for index, key, slot in to_fetch:
            primary = self.placement.primary(table_id, slot)
            posted.append(
                (index, key, slot, primary, self.verbs.read_object(primary, table_id, slot))
            )
        results = []
        for index, key, slot, primary, event in posted:
            entry = self._record_read(tx, table_id, key, slot, primary, (yield event))
            results.append((index, entry.value if entry.present else None))
        return results

    def _record_read(
        self, tx: Txn, table_id: int, key: Hashable, slot: int, node: int, image
    ) -> ReadEntry:
        """Judge one ``read_object`` answer; enter it in the read-set."""
        lock, version, present, value = image
        if is_locked(lock) and not self.lock.is_stray(lock):
            # The execution phase fails if an accessed object is
            # already locked (§2.3); PILL lets reads pass stray locks.
            tx.trace.lock_event("read_locked", table_id, slot, self.sim.now)
            raise TxnAbort(AbortReason.READ_LOCKED, f"table {table_id} slot {slot}")
        entry = tx.read_set[(table_id, slot)] = ReadEntry(
            table_id=table_id,
            key=key,
            slot=slot,
            version=version,
            present=present,
            value=value,
            node=node,
        )
        return entry

    def _lock_barrier(self, tx: Txn) -> Generator[Event, Any, None]:
        """Wait for every lock subprocess; abort on any failure."""
        if tx.lock_procs:
            pending = [proc for proc in tx.lock_procs if not proc.triggered]
            if pending:
                yield self.sim.all_of(pending)
        for intent in tx.write_set.values():
            if intent.lock_result is None:
                raise AssertionError("lock subprocess finished without a result")
            success, reason = intent.lock_result
            if not success:
                raise TxnAbort(reason, f"table {intent.table_id} slot {intent.slot}")

    # -- logging ---------------------------------------------------------------------

    def _remember_log_copy(self, tx: Txn, node: int, ack: Event) -> None:
        def on_ack(event: Event) -> None:
            if event._exception is None:
                tx.logged_records.append((node, event._value))

        ack.add_callback(on_ack)

    # -- validation --------------------------------------------------------------------

    def _post_validation_reads(self, tx: Txn):
        """Batch per-node header reads for read-set members not written."""
        to_validate = [
            entry
            for address, entry in tx.read_set.items()
            if address not in tx.write_set
        ]
        if not to_validate or (len(to_validate) == 1 and not tx.write_set):
            # A lone read with no writes is trivially serializable at
            # its read point; skip the validation round trip.
            return []
        groups: Dict[int, List[ReadEntry]] = {}
        for entry in to_validate:
            node = self.placement.primary(entry.table_id, entry.slot)
            groups.setdefault(node, []).append(entry)
        if self.traced:
            tx.trace.focus("validate")
        posted = []
        for node, entries in groups.items():
            addresses = [(entry.table_id, entry.slot) for entry in entries]
            posted.append((entries, self.verbs.read_headers(node, addresses)))
        return posted

    def _check_validation(self, tx: Txn, groups) -> Generator[Event, Any, None]:
        for entries, event in groups:
            headers = yield event
            for entry, (lock, version, _present) in zip(entries, headers):
                if version != entry.version:
                    raise TxnAbort(
                        AbortReason.VALIDATION_VERSION,
                        f"table {entry.table_id} slot {entry.slot}",
                    )
                if self.bugs.covert_locks:
                    # BUG (Table 1, "Covert Locks"): only versions are
                    # compared; a concurrently locked object slips by.
                    continue
                if is_locked(lock) and not self.lock.is_stray(lock):
                    raise TxnAbort(
                        AbortReason.VALIDATION_LOCKED,
                        f"table {entry.table_id} slot {entry.slot}",
                    )

    def _check_upgrades(self, tx: Txn) -> None:
        """FORD's deferred read-then-write version re-check.

        Purely local: compares the version captured at lock time with
        the one the earlier read observed. Crucially this runs *after*
        the undo logs were posted — the ordering that makes FORD's
        "lost decision" bug possible (§3.1.3).
        """
        for intent in tx.write_set.values():
            if (
                intent.locked
                and intent.expected_version is not None
                and intent.old_version != intent.expected_version
            ):
                raise TxnAbort(
                    AbortReason.UPGRADE_VERSION,
                    f"table {intent.table_id} slot {intent.slot}",
                )

    # -- commit / abort ------------------------------------------------------------------

    def _commit(self, tx: Txn, trace=NULL_TXN_TRACE) -> Generator[Event, Any, None]:
        apply_events: List[Event] = []
        touched: Dict[int, Tuple[int, int]] = {}
        traced = self.traced
        if traced and tx.write_set:
            # Once for the whole loop: it only yields at a crash point,
            # which never resumes.
            trace.focus("commit")
        for intent in tx.write_set.values():
            if not intent.locked:
                continue
            has_change = intent.new_value is not None or intent.kind == OP_DELETE
            if has_change:
                value_size = self.catalog.value_sizes[intent.table_id]
                for node in self.placement.live_replicas(intent.table_id, intent.slot):
                    # The commit strategy decides what the apply write
                    # carries (plain write_object vs vote1pc's
                    # shadow-bearing vote_write).
                    apply_events.append(
                        self.commit.post_apply(tx, intent, node, value_size)
                    )
                    touched[node] = (intent.table_id, intent.slot)
                intent.applied = True
            if self._crash_plans:
                yield from self._cp("commit_posted")
        if apply_events:
            yield self.sim.all_of(apply_events)
        if self.nvm_flush and touched:
            # FORD's selective flush (§7): one small read per touched
            # node, posted behind the writes on the same QPs, forces
            # the RNIC cache into persistent memory before the ack.
            trace.focus("commit")
            flush_events = [
                self.verbs.read_header(node, table_id, slot)
                for node, (table_id, slot) in touched.items()
            ]
            yield self.sim.all_of(flush_events)
        # Every replica is updated: the attempt is decided (commit), so
        # no interrupt may reach it from here on (see current_tx).
        self.current_tx = None
        if self._crash_plans:
            yield from self._cp("applied")
        if traced:
            trace.phase("commit", self.sim.now)

        # Client acknowledgment happens here — after all replicas are
        # updated, before unlocking (§2.3 step 1 vs 2).
        self.coordinator.on_commit_ack(tx)

        if traced:
            trace.focus("unlock")
        self._unlock_write_set(tx)
        if self._crash_plans:
            yield from self._cp("unlocked")

        # Lazily invalidate the undo log copies (off the critical path).
        if traced:
            trace.focus("unlock")
        for node, record_id in tx.logged_records:
            self.verbs.invalidate_log(node, self.coord_id, record_id, signaled=False)
        if traced:
            trace.phase("unlock", self.sim.now)

    def _abort(self, tx: Txn, reason: str) -> Generator[Event, Any, None]:
        # Locks may still be in flight (e.g. the abort came from a read
        # during execution) — their CAS outcome decides what we must
        # release, so wait for them first.
        pending = [proc for proc in tx.lock_procs if not proc.triggered]
        if pending:
            yield self.sim.all_of(pending)
        for ack in tx.log_acks:
            # A log copy posted to a server that died in flight fails
            # with RdmaError; the abort must survive that — this runs
            # inside the TxnAbort handler, so an escaping RdmaError
            # would skip the unlocks below and leak every held lock
            # under a *live* coordinator id (unstealable by PILL).
            try:
                yield ack
            except RdmaError:
                continue

        if tx.logged_records and not self.bugs.lost_decision:
            # Pandora §3.1.5: the abort *decision* is logged by
            # truncating the records — strictly before unlocking, so
            # recovery can never confuse this txn with a committed one.
            # Per-event await for the same reason as the acks above: a
            # record on a dead log server is judged by the survivors,
            # and a stale valid record is harmless — recovery's
            # roll-back of a never-applied write-set is a no-op, and
            # truncation drops the record afterwards.
            tx.trace.focus("abort")
            events = [
                self.verbs.invalidate_log(node, self.coord_id, record_id)
                for node, record_id in tx.logged_records
            ]
            for event in events:
                try:
                    yield event
                except RdmaError:
                    continue

        tx.trace.focus("abort")
        self._unlock_write_set(tx, complicit=self.bugs.complicit_abort)
        if self._crash_plans:
            yield from self._cp("abort_unlocked")
        self.coordinator.on_abort(tx, reason)

    def _unlock_write_set(self, tx: Txn, complicit: bool = False) -> None:
        """Post the unlock of every held write-set lock — the one
        release loop of commit, abort and interrupt alike. Nothing
        waits; each caller orders its own record invalidations around
        this call."""
        for intent in tx.write_set.values():
            # BUG (Table 1, "Complicit Aborts"): FORD's abort releases
            # every write-set lock, including ones it never acquired —
            # potentially freeing a lock held by another txn.
            if intent.locked or complicit:
                node = intent.lock_node
                if node is None:
                    node = self.placement.primary(intent.table_id, intent.slot)
                self.verbs.write_lock(node, intent.table_id, intent.slot, 0)
                if self.traced:
                    tx.trace.lock_event(
                        "released", intent.table_id, intent.slot, self.sim.now
                    )
            # Held or not: an intent whose lock CAS lost may still have
            # left something behind (tradlog's lock-intent record).
            self.log.release_intent(intent)

    # -- interrupted attempts (memory reconfiguration, §3.2.5) ---------------

    def recover_interrupted(self, tx: Txn) -> Generator[Event, Any, TxnOutcome]:
        """Resolve an attempt cut short by a memory-failure interrupt.

        The compute server has complete knowledge of its in-flight
        transactions, so it applies the same criterion as log recovery:
        commit transactions that updated all live replicas, abort the
        rest (§3.2.5). Only an undecided attempt gets here — ``_commit``
        clears ``current_tx`` once every replica is updated, and no
        verb is awaited after that — so the answer is always abort:
        roll back whatever replicas took the update. Best-effort
        network errors are swallowed — replicas that vanished take
        their state with them.
        """
        self.current_tx = None
        # The compute server can crash *while* resolving an interrupted
        # attempt — the union of two failure windows the paper treats
        # separately (§3.2.2 x §3.2.5). These crash points let the
        # chaos campaign land a kill at each step of the resolution.
        if self._crash_plans:
            yield from self._cp("recover_interrupted")
        pending = [proc for proc in tx.lock_procs if not proc.triggered]
        if pending:
            try:
                yield self.sim.all_of(pending)
            except RdmaError:
                pass
        # Drain in-flight log acks (they all resolve: a copy to a dead
        # node fails at arrival) so the release below can invalidate
        # every copy we learn about — otherwise a valid undo record
        # outlives the unlock and recovery could mistake the aborted
        # txn for an in-flight one (§3.1.5 discipline, §3.2.5 path).
        for ack in tx.log_acks:
            if ack.triggered:
                continue
            try:
                yield ack
            except RdmaError:
                pass
        if self._crash_plans:
            yield from self._cp("recover_drained")

        # Roll back: restore the undo image on any replica we updated.
        # Same ordering discipline as _commit: wait for the restore
        # writes to land before the locks are released, else a stale
        # undo image on one replica could race a successor's update.
        tx.trace.focus("recover")
        undo_acks = []
        for intent in tx.write_set.values():
            if intent.applied:
                value_size = self.catalog.value_sizes[intent.table_id]
                for node in self.placement.live_replicas(intent.table_id, intent.slot):
                    undo_acks.append(
                        self.verbs.write_object(
                            node,
                            intent.table_id,
                            intent.slot,
                            intent.old_version,
                            intent.old_value,
                            intent.old_present,
                            value_size=value_size,
                        )
                    )
        for ack in undo_acks:
            try:
                yield ack
            except RdmaError:
                pass
        if self._crash_plans:
            yield from self._cp("recover_undo_written")
        tx.trace.focus("recover")
        self._best_effort_release(tx)
        self.coordinator.on_abort(tx, AbortReason.MEMORY_RECONFIG)
        return TxnOutcome(
            committed=False,
            reason=AbortReason.MEMORY_RECONFIG,
            txn_id=tx.txn_id,
            start_time=tx.start_time,
            end_time=self.sim.now,
        )

    def _best_effort_release(self, tx: Txn) -> None:
        """Drop log records, then unlock held locks, without waiting.

        Same order as :meth:`_abort`: the record invalidations are
        posted *before* the unlocks so the decision is never ambiguous
        to a concurrent recovery (§3.1.5) — even though here nothing
        waits for either.
        """
        for node, record_id in tx.logged_records:
            self.verbs.invalidate_log(node, self.coord_id, record_id, signaled=False)
        self._unlock_write_set(tx)
