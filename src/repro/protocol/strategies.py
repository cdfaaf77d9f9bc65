"""Pluggable lock / log / commit strategies — the protocol-zoo axes.

Every protocol run by the shared OCC engine
(:mod:`repro.protocol.base`) is a point in a three-axis design space,
expressed as three strategy objects plugged into the engine:

* :class:`LockStrategy` — the lock-word format and the write-lock
  acquisition flow (CAS-word anonymous / CAS-word PILL / LOTUS ticket
  queue),
* :class:`LogStrategy` — undo-record placement and timing (none /
  coalesced f+1 / per-object / coalesced + pre-lock lock-intent),
* :class:`CommitStrategy` — what an apply write carries and when the
  upgrade re-check runs (logged commit / late-upgrade logged commit /
  logless vote write).

The five protocols as triples (their seeded outcomes are pinned by
``tests/integration/test_golden_outcomes.py``):

=========  ======================  ====================  ==========================
protocol   lock                    log                   commit
=========  ======================  ====================  ==========================
pandora    PillCasLockStrategy     CoalescedLogStrategy  LoggedCommitStrategy
ford       AnonymousCasLock...     PerObjectLogStrategy  LateUpgradeLoggedCommit...
tradlog    AnonymousCasLock...     LockIntentLog...      LateUpgradeLoggedCommit...
lotus      TicketLockStrategy      CoalescedLogStrategy  LoggedCommitStrategy
vote1pc    PillCasLockStrategy     NoLogStrategy         VoteCommitStrategy
=========  ======================  ====================  ==========================

Engine-level bug flags (Table 1) stay on the engine: they model *bugs*
in a given protocol's implementation, not protocol design points. The
two per-object logging bugs ride inside :class:`PerObjectLogStrategy`
because they only exist on that axis.

Strategies hold a back-reference to their engine and call through
``engine._is_stray`` / ``engine._post_coalesced_log``-style hooks where
one exists, so engine subclasses that override those hooks (the
mutation harness's seeded-bug engines do) still intercept strategy
behaviour.
"""

from __future__ import annotations

from typing import Any, Generator, Tuple

from repro.memory.node import LogRecord
from repro.protocol.locks import (
    ANONYMOUS_OWNER,
    encode_anonymous_lock,
    encode_lock,
    is_locked,
    is_ticket_word,
    owner_of,
    serving_of,
)
from repro.protocol.types import (
    OP_DELETE,
    OP_INSERT,
    AbortReason,
    WriteIntent,
)
from repro.rdma.errors import RdmaError
from repro.sim import Event

__all__ = [
    "STEAL_RETRY_LIMIT",
    "TICKET_POLL_LIMIT",
    "LockStrategy",
    "CasLockStrategy",
    "PillCasLockStrategy",
    "AnonymousCasLockStrategy",
    "TicketLockStrategy",
    "LogStrategy",
    "NoLogStrategy",
    "CoalescedLogStrategy",
    "PerObjectLogStrategy",
    "LockIntentLogStrategy",
    "CommitStrategy",
    "LoggedCommitStrategy",
    "LateUpgradeLoggedCommitStrategy",
    "VoteCommitStrategy",
]

# Bound on steal-CAS retries when the word keeps resolving to yet
# another dead owner (stray-to-stray races during mass failover).
STEAL_RETRY_LIMIT = 4

# Bound on ticket-queue polls before a waiter cancels its ticket and
# aborts the attempt: queueing write locks can deadlock where
# abort-on-conflict cannot, so the wait must not be open-ended.
TICKET_POLL_LIMIT = 32


# ---------------------------------------------------------------------------
# Lock strategies
# ---------------------------------------------------------------------------

class LockStrategy:
    """Owns the lock-word format and the write-lock acquisition flow."""

    # Owner-attributable words: reads/validation pass stray locks and
    # recovery can release by owner id (PILL property, §3.1.2).
    pill = False
    # LOTUS ticket-queue words (FAA enqueue, server-side advance).
    ticket_based = False

    def __init__(self, engine) -> None:
        self.engine = engine

    def lock_word(self, tag: int) -> int:
        """The word a CAS-acquire installs (tag from the engine counter)."""
        raise NotImplementedError

    def is_stray(self, word: int) -> bool:
        """Is this lock owned by a recovered-failed coordinator?"""
        return False

    def _owner_is_failed(self, word: int) -> bool:
        if not is_locked(word):
            return False
        owner = owner_of(word)
        if owner == ANONYMOUS_OWNER:
            return False
        return owner in self.engine.coordinator.node.failed_ids

    def acquire(
        self, tx, intent: WriteIntent
    ) -> Generator[Event, Any, None]:
        """Lock + read one write-set object (runs inside ``_acquire``).

        An RdmaError escaping here is converted to a LINK_REVOKED
        ``lock_result`` by the engine's ``_acquire`` guard; the
        try/except keeps that hand-off explicit for the path analyzer.
        """
        try:
            yield from self._acquire_flow(tx, intent)
        except RdmaError:
            raise

    def _acquire_flow(
        self, tx, intent: WriteIntent
    ) -> Generator[Event, Any, None]:
        raise NotImplementedError


class TicketLockStrategy(LockStrategy):
    """LOTUS: FAA ticket-queue words owned by the lock server.

    Acquisition enqueues with one FAA; the lock server grants in ticket
    order, skipping cancelled tickets and — via the Cor4-pushed
    failed-ids bitset — tickets whose waiter died in the queue. A dead
    *holder* is skipped client-side: any waiter that observes a failed
    holder posts a CAS-to-0 conditioned on the full word, which the
    lock server executes as a queue advance (the queue-aware analogue
    of a PILL steal).

    Defined before :class:`CasLockStrategy` on purpose: the protocol
    linter keys method models by bare name (last definition wins), and
    the CAS flow is the one that must stay visible as the PROTO005
    subject.
    """

    pill = True
    ticket_based = True

    def lock_word(self, tag: int) -> int:
        raise NotImplementedError(
            "ticket words are minted server-side by faa_ticket"
        )

    def is_stray(self, word: int) -> bool:
        return self._owner_is_failed(word)

    def _acquire_flow(
        self, tx, intent: WriteIntent
    ) -> Generator[Event, Any, None]:
        engine = self.engine
        table_id, slot = intent.table_id, intent.slot
        primary = engine.placement.primary(table_id, slot)
        tx.trace.focus("lock")
        yield from engine._resolve_address(table_id, slot, primary)

        posted_speculatively = engine.log.post_speculative(tx, intent)

        tx.trace.focus("lock")
        faa_event = engine.verbs.faa_ticket(primary, table_id, slot, engine.coord_id)
        read_event = engine.verbs.read_object(primary, table_id, slot)
        checkpoint = engine._cp("lock_posted")
        if checkpoint is not None:
            yield checkpoint
        ticket, word = yield faa_event
        lock, version, present, value = yield read_event
        if ticket < 0:
            # The slot carries a non-ticket word (foreign lock format):
            # the server refused the enqueue.
            tx.trace.lock_event("conflict", table_id, slot, engine.sim.now)
            intent.lock_result = (False, AbortReason.LOCK_CONFLICT)
            return
        ticket &= 0xFFFF

        polls = 0
        while not (is_ticket_word(word) and serving_of(word) == ticket):
            if not is_ticket_word(word):
                # The queue vanished under us (e.g. a memory restore
                # reset the word): our ticket is gone; retry the txn.
                tx.trace.lock_event("conflict", table_id, slot, engine.sim.now)
                intent.lock_result = (False, AbortReason.LOCK_CONFLICT)
                return
            polls += 1
            if polls > TICKET_POLL_LIMIT:
                # Bounded wait (deadlock mitigation): cancel the ticket
                # and convert to the protocol's conflict abort.
                tx.trace.focus("lock")
                yield engine.verbs.cancel_ticket(primary, table_id, slot, ticket)
                tx.trace.lock_event("conflict", table_id, slot, engine.sim.now)
                intent.lock_result = (False, AbortReason.LOCK_CONFLICT)
                return
            if self._owner_is_failed(word):
                # Queue-aware steal: the holder died. A CAS conditioned
                # on the observed word asks the server to advance past
                # it (and past any dead waiters, via failed-ids).
                tx.trace.lock_event("steal", table_id, slot, engine.sim.now)
                tx.trace.focus("lock")
                observed = yield engine.verbs.cas_lock(
                    primary, table_id, slot, word, 0
                )
                if observed == word:
                    engine.coordinator.stats.locks_stolen += 1
                else:
                    # Lost the advance race; re-check the fresher word.
                    word = observed
                    continue
            tx.trace.focus("lock")
            word, _hversion, _hpresent = yield engine.verbs.read_header(
                primary, table_id, slot
            )

        if polls:
            # The pipelined read raced the queue wait; re-read the
            # image now that we hold the lock.
            tx.trace.focus("lock")
            lock, version, present, value = yield engine.verbs.read_object(
                primary, table_id, slot
            )

        intent.locked = True
        intent.lock_node = primary
        intent.old_version = version
        intent.old_value = value
        intent.old_present = present
        tx.trace.lock_event("acquired", table_id, slot, engine.sim.now)
        checkpoint = engine._cp("locked")
        if checkpoint is not None:
            yield checkpoint

        if (
            intent.expected_version is not None
            and version != intent.expected_version
            and not engine.commit.late_upgrade
        ):
            intent.lock_result = (False, AbortReason.UPGRADE_VERSION)
            return
        if intent.kind == OP_INSERT and present:
            intent.lock_result = (False, AbortReason.DUPLICATE_KEY)
            return
        if intent.kind == OP_DELETE and not present:
            intent.lock_result = (False, AbortReason.NOT_FOUND)
            return

        engine.log.post_locked(tx, intent, posted_speculatively)
        intent.lock_result = (True, "")


class CasLockStrategy(LockStrategy):
    """Shared CAS-word acquisition: one CAS pipelined with the read."""

    def _acquire_flow(
        self, tx, intent: WriteIntent
    ) -> Generator[Event, Any, None]:
        engine = self.engine
        table_id, slot = intent.table_id, intent.slot
        primary = engine.placement.primary(table_id, slot)
        tx.trace.focus("lock")
        yield from engine._resolve_address(table_id, slot, primary)
        desired = engine._lock_word()

        yield from engine.log.pre_lock(tx, intent, desired)

        posted_speculatively = engine.log.post_speculative(tx, intent)

        tx.trace.focus("lock")
        cas_event = engine.verbs.cas_lock(primary, table_id, slot, 0, desired)
        read_event = engine.verbs.read_object(primary, table_id, slot)
        checkpoint = engine._cp("lock_posted")
        if checkpoint is not None:
            yield checkpoint
        old_word = yield cas_event
        lock, version, present, value = yield read_event

        if old_word != 0:
            if engine._is_stray(old_word):
                # PILL steal: the owner is a recovered-failed
                # coordinator; a second CAS takes the lock over (§3.1.2).
                tx.trace.lock_event("steal", table_id, slot, engine.sim.now)
                tx.trace.focus("lock")
                second = yield engine.verbs.cas_lock(
                    primary, table_id, slot, old_word, desired
                )
                retries = 0
                while (
                    second != old_word
                    and engine._is_stray(second)
                    and retries < STEAL_RETRY_LIMIT
                ):
                    # Stray-to-stray race (mass failover): the word we
                    # lost to belongs to *another* dead coordinator —
                    # aborting here would leave the lock stranded until
                    # some later txn retries the whole attempt. Retry
                    # the steal against the new stray word instead.
                    retries += 1
                    engine.coordinator.stats.steal_retries += 1
                    tx.trace.lock_event(
                        "steal_retry", table_id, slot, engine.sim.now
                    )
                    tx.trace.focus("lock")
                    old_word = second
                    second = yield engine.verbs.cas_lock(
                        primary, table_id, slot, old_word, desired
                    )
                if second != old_word:
                    tx.trace.lock_event(
                        "steal_lost", table_id, slot, engine.sim.now
                    )
                    intent.lock_result = (False, AbortReason.LOCK_CONFLICT)
                    return
                engine.coordinator.stats.locks_stolen += 1
                tx.trace.focus("lock")
                lock, version, present, value = yield engine.verbs.read_object(
                    primary, table_id, slot
                )
            else:
                tx.trace.lock_event("conflict", table_id, slot, engine.sim.now)
                intent.lock_result = (False, AbortReason.LOCK_CONFLICT)
                return

        intent.locked = True
        intent.lock_node = primary
        intent.old_version = version
        intent.old_value = value
        intent.old_present = present
        tx.trace.lock_event("acquired", table_id, slot, engine.sim.now)
        checkpoint = engine._cp("locked")
        if checkpoint is not None:
            yield checkpoint

        if (
            intent.expected_version is not None
            and version != intent.expected_version
            and not engine.commit.late_upgrade
        ):
            # Read-then-write upgrade raced with another writer. FORD
            # defers this abort to validation (after logging).
            intent.lock_result = (False, AbortReason.UPGRADE_VERSION)
            return
        if intent.kind == OP_INSERT and present:
            intent.lock_result = (False, AbortReason.DUPLICATE_KEY)
            return
        if intent.kind == OP_DELETE and not present:
            intent.lock_result = (False, AbortReason.NOT_FOUND)
            return

        engine.log.post_locked(tx, intent, posted_speculatively)
        intent.lock_result = (True, "")


class PillCasLockStrategy(CasLockStrategy):
    """PILL: owner-id-embedded words, strays stolen via a second CAS."""

    pill = True

    def lock_word(self, tag: int) -> int:
        return encode_lock(self.engine.coord_id, tag)

    def is_stray(self, word: int) -> bool:
        return self._owner_is_failed(word)


class AnonymousCasLockStrategy(CasLockStrategy):
    """FORD-style: no owner identity; conflicts always abort."""

    def lock_word(self, tag: int) -> int:
        return encode_anonymous_lock(tag)


# ---------------------------------------------------------------------------
# Log strategies
# ---------------------------------------------------------------------------

class LogStrategy:
    """Owns undo-record placement and timing. The base class posts
    nothing — it doubles as the logless strategy."""

    coalesced = False
    per_object = False
    pre_lock_intent = False

    def __init__(self, engine) -> None:
        self.engine = engine

    def pre_lock(self, tx, intent: WriteIntent, lock_word: int):
        """Pre-CAS hook, yielded from inside the acquire flow."""
        return ()

    def post_speculative(self, tx, intent: WriteIntent) -> bool:
        """Post the undo record before the CAS outcome is known
        (Table 1 "logging without locking" bug hook)."""
        return False

    def post_locked(
        self, tx, intent: WriteIntent, posted_speculatively: bool
    ) -> None:
        """Per-object hook once the lock is held and checks passed."""

    def post_object_log(
        self, tx, intent: WriteIntent, speculative: bool = False
    ) -> None:
        """Engine back-compat shim target; only per-object logs post."""

    def post_barrier(self, tx) -> None:
        """Write-set-wide hook after the lock barrier."""


class NoLogStrategy(LogStrategy):
    """vote1pc: no undo records — replica state (lock word + vote
    shadow) carries everything recovery needs (logless 1PC)."""


class CoalescedLogStrategy(LogStrategy):
    """Pandora §3.1.4: one record covering the whole write-set, to the
    f+1 fixed log servers, posted after all locks are held
    (lock-to-log order); the decision point waits for the acks."""

    coalesced = True

    def post_barrier(self, tx) -> None:
        engine = self.engine
        if not tx.write_set:
            return
        tx.trace.focus("log")
        entries = tuple(
            intent.log_entry()
            for intent in tx.write_set.values()
            if intent.locked
        )
        if not entries:
            return
        value_sizes = {
            spec.table_id: spec.value_size
            for spec in engine.catalog.tables.values()
        }
        for node in engine.catalog.log_nodes(engine.coord_id):
            record = LogRecord(
                coord_id=engine.coord_id, txn_id=tx.txn_id, entries=entries
            )
            size = record.size_bytes(value_sizes)
            ack = engine.verbs.write_log(node, record, size)
            tx.log_acks.append(ack)
            engine._remember_log_copy(tx, node, ack)


class PerObjectLogStrategy(LogStrategy):
    """FORD-style: undo-log each object to its replicas at lock time.

    Both Table 1 logging bugs live on this axis: "logging without
    locking" (speculative post before the CAS outcome) and "missing
    insert log" (inserts skip their undo record).
    """

    per_object = True

    def post_speculative(self, tx, intent: WriteIntent) -> bool:
        engine = self.engine
        if not (
            engine.bugs.log_without_lock
            and intent.expected_version is not None
        ):
            return False
        # BUG (Table 1, "Logging without locking"): in a corner case
        # FORD posts the undo log — built from the earlier read's image
        # — before the CAS outcome is known.
        self.post_object_log(tx, intent, speculative=True)
        return True

    def post_locked(
        self, tx, intent: WriteIntent, posted_speculatively: bool
    ) -> None:
        engine = self.engine
        if posted_speculatively:
            return
        if engine.bugs.missing_insert_log and intent.kind == OP_INSERT:
            return
        self.post_object_log(tx, intent)

    def post_object_log(
        self, tx, intent: WriteIntent, speculative: bool = False
    ) -> None:
        """Undo-log one object to each of its replicas.

        A *speculative* log (the "logging without locking" bug) is
        posted before the CAS outcome is known, so its undo image
        comes from the transaction's earlier read of the object.
        """
        engine = self.engine
        tx.trace.focus("log")
        if speculative:
            cached = tx.read_set.get((intent.table_id, intent.slot))
            if cached is None:
                return
            entry = (
                intent.table_id,
                intent.slot,
                intent.key,
                cached.version,
                cached.version + 1,
                cached.value,
                intent.new_value,
                cached.present,
                intent.new_present,
            )
        else:
            entry = intent.log_entry()
        record_template_entries = (entry,)
        for node in engine.placement.replicas(intent.table_id, intent.slot):
            record = LogRecord(
                coord_id=engine.coord_id,
                txn_id=tx.txn_id,
                entries=record_template_entries,
            )
            size = record.size_bytes(
                {intent.table_id: engine._log_value_size(intent.table_id)}
            )
            ack = engine.verbs.write_log(node, record, size)
            tx.log_acks.append(ack)
            engine._remember_log_copy(tx, node, ack)


class LockIntentLogStrategy(CoalescedLogStrategy):
    """Traditional scheme (§6.1): coalesced undo logging plus an extra
    *lock-intent* record written before every lock CAS — one blocking
    round trip recording the exact word about to be installed."""

    pre_lock_intent = True

    def pre_lock(self, tx, intent: WriteIntent, lock_word: int):
        tx.trace.focus("log")
        yield from self.engine._write_lock_log(intent, lock_word)


# ---------------------------------------------------------------------------
# Commit strategies
# ---------------------------------------------------------------------------

class CommitStrategy:
    """Owns what an apply write carries and the upgrade-check timing."""

    # FORD defers the read-then-write version re-check to validation
    # (it validates "all objects in its read-set", §2.3) — i.e. *after*
    # undo logs were written. Pandora enforces the check at lock time,
    # before anything is logged (lock-to-log order, §3.1.5).
    late_upgrade = False
    # No durable decision record: the decision is embedded in replica
    # state (vote1pc).
    logless = False

    def __init__(self, engine) -> None:
        self.engine = engine

    def post_apply(
        self, tx, intent: WriteIntent, node: int, value_size: int
    ) -> Event:
        """Post one replica update for a locked intent; returns the ack."""
        return self.engine.verbs.write_object(
            node,
            intent.table_id,
            intent.slot,
            intent.new_version,
            intent.new_value,
            intent.new_present,
            value_size=value_size,
        )


class LoggedCommitStrategy(CommitStrategy):
    """Classic commit: the decision is the durable undo-log state; the
    decision point (run_attempt) waited for the f+1 log acks before any
    in-place update."""


class LateUpgradeLoggedCommitStrategy(LoggedCommitStrategy):
    """FORD/tradlog: logged commit with the deferred upgrade re-check."""

    late_upgrade = True


class VoteCommitStrategy(CommitStrategy):
    """Logless one-phase commit ("To Vote Before Decide"): each replica
    update carries its own undo image and the txn's write-set manifest
    in a per-slot vote shadow, skipping the f+1 log write entirely.
    Recovery re-derives the decision from replica state: roll forward
    iff every manifest address reached its new version on all live
    replicas (the client could only have acked in that case)."""

    logless = True

    def post_apply(
        self, tx, intent: WriteIntent, node: int, value_size: int
    ) -> Event:
        engine = self.engine
        shadow = (
            engine.coord_id,
            tx.txn_id,
            intent.old_version,
            intent.old_value,
            intent.old_present,
            self._manifest(tx),
        )
        return engine.verbs.vote_write(
            node,
            intent.table_id,
            intent.slot,
            intent.new_version,
            intent.new_value,
            intent.new_present,
            shadow,
            value_size=value_size,
        )

    @staticmethod
    def _manifest(tx) -> Tuple[Tuple[int, int, int], ...]:
        """(table_id, slot, new_version) for every applied address."""
        return tuple(
            (intent.table_id, intent.slot, intent.new_version)
            for intent in tx.write_set.values()
            if intent.locked
            and (intent.new_value is not None or intent.kind == OP_DELETE)
        )
