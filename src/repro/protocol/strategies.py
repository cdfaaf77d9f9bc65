"""Pluggable lock / log / commit strategies — the protocol-zoo axes.

Every protocol run by the shared OCC engine
(:mod:`repro.protocol.base`) is a point in a three-axis design space,
expressed as three strategy classes (:mod:`repro.protocol.zoo` holds
the table of triples):

* :class:`LockStrategy` — the lock-word format and the write-lock
  acquisition flow (CAS-word anonymous / CAS-word PILL / LOTUS ticket
  queue),
* :class:`LogStrategy` — undo-record placement and timing (none /
  coalesced f+1 / per-object / coalesced + pre-lock lock-intent),
* :class:`CommitStrategy` — what an apply write carries and when the
  upgrade re-check runs (logged commit / late-upgrade logged commit /
  logless vote write).

Each class owns both halves of its axis. The **forward half** is
instance methods on a strategy bound to a live engine. The **recovery
half** is class methods run by the recovery coordinator *rc*
(:class:`repro.recovery.manager.RecoveryManager`) on behalf of a dead
coordinator, reading back what the forward half left in memory: the
log axis says where a dead coordinator's records live and decodes
them, the commit axis says which transactions were interrupted and
posts their undo images, the lock axis says which words a dead owner
can be held to. The wire formats in between (:class:`UndoEntry`,
:class:`LockIntent`, :class:`VoteShadow`) are written and read here
and nowhere else.

Engine-level bug flags (Table 1) stay on the engine: they model *bugs*
in a given protocol's implementation, not protocol design points. The
two per-object logging bugs ride inside :class:`PerObjectLogStrategy`
because they only exist on that axis.

A variant — the mutation harness's seeded bugs included — is a
subclass of one of these and a :class:`~repro.protocol.zoo.Protocol`
row naming it; the engine has no hook of its own to override.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Generator,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.memory.node import LogRecord
from repro.protocol.locks import (
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
    "UndoEntry",
    "LockIntent",
    "VoteShadow",
    "StrayTxn",
    "Evidence",
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
# What the forward halves leave in memory, and what recovery makes of it
# ---------------------------------------------------------------------------

Address = Tuple[int, int]  # (table_id, slot)

# ``LogRecord.txn_id`` of a lock-intent record (no txn undo image).
LOCK_INTENT_TXN = -1


class UndoEntry(NamedTuple):
    """One written object inside an undo-log record."""

    table_id: int
    slot: int
    key: Hashable
    old_version: int
    new_version: int
    old_value: Any
    new_value: Any
    old_present: bool
    new_present: bool

    @classmethod
    def of(cls, intent: WriteIntent, old: Optional[Tuple] = None) -> "UndoEntry":
        """*intent*'s entry. The pre-image ``(version, value, present)``
        is the one read under the lock unless *old* supplies another."""
        if old is None:
            version, value, present = (
                intent.old_version, intent.old_value, intent.old_present
            )
        else:
            version, value, present = old
        return cls(
            intent.table_id,
            intent.slot,
            intent.key,
            version,
            version + 1,
            value,
            intent.new_value,
            present,
            intent.new_present,
        )


class LockIntent(NamedTuple):
    """The one entry of a lock-intent record: the exact word about to
    be CAS'd in, so recovery can release the lock iff it is still the
    one that was taken (an owner check by value)."""

    table_id: int
    slot: int
    key: Hashable
    word: int


class VoteShadow(NamedTuple):
    """Per-slot state a vote write leaves beside the new image: the
    slot's undo image plus the whole txn's ``(table_id, slot,
    new_version)`` manifest."""

    coord_id: int
    txn_id: int
    old_version: int
    old_value: Any
    old_present: bool
    manifest: Tuple[Tuple[int, int, int], ...]


@dataclass
class StrayTxn:
    """One interrupted transaction of a dead coordinator."""

    coord_id: int
    txn_id: int
    # Written address -> the version the txn was installing there.
    new_versions: Dict[Address, int] = field(default_factory=dict)
    # Logged pre-images (empty when they live in vote shadows).
    undo: Dict[Address, UndoEntry] = field(default_factory=dict)


@dataclass
class Evidence:
    """What one source — a dead coordinator's log regions, or a scan
    for dead owners' lock words — says was left behind."""

    txns: List[StrayTxn]  # in repair order
    # Log regions: the coordinator they belong to, and how many records.
    coord_id: Optional[int] = None
    records: int = 0
    # Intent log: locks to release by replaying the logged words.
    lock_intents: Sequence[LockIntent] = ()
    # Lock scan: every ``(node, table_id, slot, word)`` a dead owner
    # holds (None when no scan ran and the write-sets locate the locks).
    stray_words: Optional[List[Tuple[int, int, int, int]]] = None


# ---------------------------------------------------------------------------
# Lock strategies
# ---------------------------------------------------------------------------

class LockStrategy:
    """Owns the lock-word format and the write-lock acquisition flow."""

    # Owner-attributable words: reads/validation pass stray locks and
    # recovery can release by owner id (PILL property, §3.1.2).
    pill = False

    def __init__(self, engine) -> None:
        self.engine = engine

    @classmethod
    def owned_by(cls, word: int, owners) -> bool:
        """Is *word* a lock one of *owners* holds? Anonymous words
        never say — so nobody steals them, and recovery releases them
        from the lock-intent log or by a quiesced full scan."""
        return cls.pill and is_locked(word) and owner_of(word) in owners

    def is_stray(self, word: int) -> bool:
        """Is this lock owned by a recovered-failed coordinator?"""
        return self.owned_by(word, self.engine.coordinator.node.failed_ids)

    def mint(self) -> Optional[int]:
        """The word this acquisition installs — None when the lock
        server mints it (ticket queues)."""
        return None

    def acquire(self, tx, intent: WriteIntent) -> Generator[Event, Any, None]:
        """Lock + read one write-set object (runs as a subprocess).

        Never raises: the outcome lands in ``intent.lock_result`` and
        the execution barrier converts failures into aborts.
        """
        engine = self.engine
        primary = engine.placement.primary(intent.table_id, intent.slot)
        try:
            word = self.mint()
            yield from engine.log.pre_lock(tx, intent, word)
            posted_speculatively = engine.log.post_speculative(tx, intent)
            image = yield from self._take(tx, intent, primary, word)
            if image is None:
                intent.lock_result = (False, AbortReason.LOCK_CONFLICT)
                return
            version, present, value = image
            intent.locked = True
            intent.lock_node = primary
            intent.old_version = version
            intent.old_value = value
            intent.old_present = present
            if engine.traced:
                tx.trace.lock_event(
                    "acquired", intent.table_id, intent.slot, engine.sim.now
                )
            if engine._crash_plans:
                yield from engine._cp("locked")

            if (
                intent.expected_version is not None
                and version != intent.expected_version
                and not engine.commit.late_upgrade
            ):
                # Read-then-write upgrade raced with another writer. FORD
                # defers this abort to validation (after logging).
                intent.lock_result = (False, AbortReason.UPGRADE_VERSION)
            elif intent.kind == OP_INSERT and present:
                intent.lock_result = (False, AbortReason.DUPLICATE_KEY)
            elif intent.kind == OP_DELETE and not present:
                intent.lock_result = (False, AbortReason.NOT_FOUND)
            else:
                engine.log.post_locked(tx, intent, posted_speculatively)
                intent.lock_result = (True, "")
        except RdmaError:
            intent.lock_result = (False, AbortReason.LINK_REVOKED)

    def _take(
        self, tx, intent: WriteIntent, primary: int, word: Optional[int]
    ) -> Generator[Event, Any, Optional[Tuple[int, bool, Any]]]:
        """Take the lock word at *primary*, pipelined with the object
        read. Returns the ``(version, present, value)`` image read
        under the lock, or None on a conflict (which it has traced)."""
        raise NotImplementedError


class CasLockStrategy(LockStrategy):
    """CAS words: one CAS pipelined with the read; the subclasses say
    what the word carries."""

    def __init__(self, engine) -> None:
        super().__init__(engine)
        self._tag = 0

    def mint(self) -> int:
        self._tag = (self._tag + 1) & 0xFFFFFFFF
        return self.lock_word(self._tag)

    def lock_word(self, tag: int) -> int:
        """The word a CAS-acquire installs."""
        raise NotImplementedError

    def _take(self, tx, intent: WriteIntent, primary: int, desired: int):
        engine = self.engine
        table_id, slot = intent.table_id, intent.slot
        if engine.traced:
            tx.trace.focus("lock")
        cas_event = engine.verbs.cas_lock(primary, table_id, slot, 0, desired)
        read_event = engine.verbs.read_object(primary, table_id, slot)
        if engine._crash_plans:
            yield from engine._cp("lock_posted")
        old_word = yield cas_event
        image = (yield read_event)[1:]  # the lock word came with the CAS
        if old_word == 0:
            return image
        if not self.is_stray(old_word):
            tx.trace.lock_event("conflict", table_id, slot, engine.sim.now)
            return None

        # PILL steal: the owner is a recovered-failed coordinator; a
        # second CAS takes the lock over (§3.1.2).
        tx.trace.lock_event("steal", table_id, slot, engine.sim.now)
        tx.trace.focus("lock")
        second = yield engine.verbs.cas_lock(
            primary, table_id, slot, old_word, desired
        )
        retries = 0
        while (
            second != old_word
            and self.is_stray(second)
            and retries < STEAL_RETRY_LIMIT
        ):
            # Stray-to-stray race (mass failover): the word we lost to
            # belongs to *another* dead coordinator — aborting here
            # would leave the lock stranded until some later txn
            # retries the whole attempt. Retry the steal against the
            # new stray word instead.
            retries += 1
            engine.coordinator.stats.steal_retries += 1
            tx.trace.lock_event("steal_retry", table_id, slot, engine.sim.now)
            tx.trace.focus("lock")
            old_word = second
            second = yield engine.verbs.cas_lock(
                primary, table_id, slot, old_word, desired
            )
        if second != old_word:
            tx.trace.lock_event("steal_lost", table_id, slot, engine.sim.now)
            return None
        engine.coordinator.stats.locks_stolen += 1
        tx.trace.focus("lock")
        return (yield engine.verbs.read_object(primary, table_id, slot))[1:]


class PillCasLockStrategy(CasLockStrategy):
    """PILL: owner-id-embedded words, strays stolen via a second CAS."""

    pill = True

    def lock_word(self, tag: int) -> int:
        return encode_lock(self.engine.coord_id, tag)


class AnonymousCasLockStrategy(CasLockStrategy):
    """FORD-style: no owner identity; conflicts always abort."""

    def lock_word(self, tag: int) -> int:
        return encode_anonymous_lock(tag)


class TicketLockStrategy(LockStrategy):
    """LOTUS: FAA ticket-queue words owned by the lock server.

    Acquisition enqueues with one FAA; the lock server grants in ticket
    order, skipping cancelled tickets and — via the Cor4-pushed
    failed-ids bitset — tickets whose waiter died in the queue. A dead
    *holder* is skipped client-side: any waiter that observes a failed
    holder posts a CAS-to-0 conditioned on the full word, which the
    lock server executes as a queue advance (the queue-aware analogue
    of a PILL steal).
    """

    pill = True

    def _take(self, tx, intent: WriteIntent, primary: int, _word: None):
        engine = self.engine
        table_id, slot = intent.table_id, intent.slot
        tx.trace.focus("lock")
        faa_event = engine.verbs.faa_ticket(primary, table_id, slot, engine.coord_id)
        read_event = engine.verbs.read_object(primary, table_id, slot)
        if engine._crash_plans:
            yield from engine._cp("lock_posted")
        ticket, word = yield faa_event
        image = (yield read_event)[1:]
        if ticket < 0:
            # The slot carries a non-ticket word (foreign lock format):
            # the server refused the enqueue.
            tx.trace.lock_event("conflict", table_id, slot, engine.sim.now)
            return None
        ticket &= 0xFFFF

        polls = 0
        while not (is_ticket_word(word) and serving_of(word) == ticket):
            if not is_ticket_word(word):
                # The queue vanished under us (e.g. a memory restore
                # reset the word): our ticket is gone; retry the txn.
                tx.trace.lock_event("conflict", table_id, slot, engine.sim.now)
                return None
            polls += 1
            if polls > TICKET_POLL_LIMIT:
                # Bounded wait (deadlock mitigation): cancel the ticket
                # and convert to the protocol's conflict abort.
                tx.trace.focus("lock")
                yield engine.verbs.cancel_ticket(primary, table_id, slot, ticket)
                tx.trace.lock_event("conflict", table_id, slot, engine.sim.now)
                return None
            if self.is_stray(word):
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
            image = (yield engine.verbs.read_object(primary, table_id, slot))[1:]
        return image


# ---------------------------------------------------------------------------
# Log strategies
# ---------------------------------------------------------------------------

class LogStrategy:
    """Owns undo-record placement and timing. The base class posts
    nothing — it doubles as the logless strategy."""

    # A lock-intent record precedes every lock CAS (recovery can find a
    # dead owner's locks without owner ids in the words).
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

    def post_barrier(self, tx) -> None:
        """Write-set-wide hook after the lock barrier."""

    def release_intent(self, intent: WriteIntent) -> None:
        """Per-object hook as the engine lets go of *intent* — on
        commit, abort and interrupt alike, whether or not its lock was
        ever held."""

    def _write(self, tx, nodes, entries: Tuple[UndoEntry, ...]) -> None:
        """Post one undo record of *entries* to each of *nodes*; the
        decision point waits for the acks (``tx.log_acks``). Each node
        gets its own record (a log region stamps it); all are one size."""
        engine = self.engine
        if engine.traced:
            tx.trace.focus("log")
        size = None
        for node in nodes:
            record = LogRecord(
                coord_id=engine.coord_id, txn_id=tx.txn_id, entries=entries
            )
            if size is None:
                size = record.size_bytes(engine.catalog.value_sizes)
            ack = engine.verbs.write_log(node, record, size)
            tx.log_acks.append(ack)
            engine._remember_log_copy(tx, node, ack)

    # -- recovery half ------------------------------------------------------

    # The §4 logging claim: write_log posts per committed read-write
    # txn (f+1 == log servers, R == replication degree), and how the
    # flight report words it.
    formula = "0 (logless)"

    @staticmethod
    def expected_log_writes(writes: int, log_servers: int, replication: int) -> int:
        return 0

    @classmethod
    def sources(cls, rc, coord_id: int) -> List[int]:
        """Live memory nodes holding *coord_id*'s log regions."""
        return []

    @staticmethod
    def decode(coord_id: int, records: Sequence[LogRecord]) -> Evidence:
        """Rebuild what *coord_id*'s fetched records say it left behind:
        the write-set of every Logged-Stray-Tx, and any lock intents."""
        txns: Dict[int, StrayTxn] = {}
        lock_intents: List[LockIntent] = []
        for record in records:
            if not record.valid:
                continue
            if record.txn_id == LOCK_INTENT_TXN:
                lock_intents.extend(LockIntent._make(e) for e in record.entries)
                continue
            txn = txns.get(record.txn_id)
            if txn is None:
                txn = txns[record.txn_id] = StrayTxn(coord_id, record.txn_id)
            for entry in map(UndoEntry._make, record.entries):
                address = (entry.table_id, entry.slot)
                txn.new_versions[address] = entry.new_version
                txn.undo[address] = entry
        return Evidence(
            txns=[txns[txn_id] for txn_id in sorted(txns)],
            coord_id=coord_id,
            records=len(records),
            lock_intents=lock_intents,
        )


class NoLogStrategy(LogStrategy):
    """vote1pc: no undo records — replica state (lock word + vote
    shadow) carries everything recovery needs (logless 1PC)."""


class CoalescedLogStrategy(LogStrategy):
    """Pandora §3.1.4: one record covering the whole write-set, to the
    f+1 fixed log servers, posted after all locks are held
    (lock-to-log order); the decision point waits for the acks."""

    formula = "f+1 per txn (0 when read-only)"

    @staticmethod
    def expected_log_writes(writes: int, log_servers: int, replication: int) -> int:
        return log_servers if writes else 0

    @classmethod
    def sources(cls, rc, coord_id: int) -> List[int]:
        # Gathered in the coordinator's f+1 fixed log servers (§3.1.4).
        return [
            node_id
            for node_id in rc.catalog.log_nodes(coord_id)
            if rc.memory_nodes[node_id].alive
        ]

    def post_barrier(self, tx) -> None:
        if tx.write_set:
            self._post(tx, (i for i in tx.write_set.values() if i.locked))

    def _post(self, tx, intents) -> None:
        """One record covering *intents*, to each fixed log server."""
        entries = tuple(UndoEntry.of(intent) for intent in intents)
        if entries:
            engine = self.engine
            self._write(tx, engine.catalog.log_nodes(engine.coord_id), entries)


class PerObjectLogStrategy(LogStrategy):
    """FORD-style: undo-log each object to its replicas at lock time.

    Both Table 1 logging bugs live on this axis: "logging without
    locking" (speculative post before the CAS outcome) and "missing
    insert log" (inserts skip their undo record).
    """

    formula = "R x writes"

    @staticmethod
    def expected_log_writes(writes: int, log_servers: int, replication: int) -> int:
        return replication * writes

    @classmethod
    def sources(cls, rc, coord_id: int) -> List[int]:
        # Spread over every object's replicas: any node may hold some.
        return rc.alive_memory_ids()

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
        cached = tx.read_set.get((intent.table_id, intent.slot))
        if cached is not None:
            self._post(
                tx,
                intent,
                UndoEntry.of(intent, (cached.version, cached.value, cached.present)),
            )
        return True

    def post_locked(
        self, tx, intent: WriteIntent, posted_speculatively: bool
    ) -> None:
        engine = self.engine
        if posted_speculatively:
            return
        if engine.bugs.missing_insert_log and intent.kind == OP_INSERT:
            return
        self._post(tx, intent, UndoEntry.of(intent))

    def _post(self, tx, intent: WriteIntent, entry: UndoEntry) -> None:
        """Undo-log one object to each of its replicas."""
        replicas = self.engine.placement.replicas(intent.table_id, intent.slot)
        self._write(tx, replicas, (entry,))


class LockIntentLogStrategy(CoalescedLogStrategy):
    """Traditional scheme (§6.1): coalesced undo logging plus an extra
    *lock-intent* record written before every lock CAS — one blocking
    round trip recording the exact word about to be installed."""

    pre_lock_intent = True
    formula = "(f+1) x (writes+1)"

    @staticmethod
    def expected_log_writes(writes: int, log_servers: int, replication: int) -> int:
        # One lock-intent record per written object plus the coalesced
        # undo record, each to the f+1 log servers.
        return log_servers * (writes + 1) if writes else 0

    def pre_lock(self, tx, intent: WriteIntent, lock_word: int):
        engine = self.engine
        tx.trace.focus("log")
        nodes = engine.catalog.log_nodes(engine.coord_id)
        events = [
            engine.verbs.write_log(
                node,
                LogRecord(
                    coord_id=engine.coord_id,
                    txn_id=LOCK_INTENT_TXN,
                    entries=(
                        LockIntent(intent.table_id, intent.slot, intent.key, lock_word),
                    ),
                ),
                64,
            )
            for node in nodes
        ]
        results = yield engine.sim.all_of(events)
        intent.intent_records = tuple(zip(nodes, results))

    def release_intent(self, intent: WriteIntent) -> None:
        # The record precedes the CAS, so it exists even when the CAS
        # lost; left valid it would be replayed when this coordinator
        # later dies — and an anonymous word is only LOCKED|tag, so a
        # stale one can equal another coordinator's live lock.
        engine = self.engine
        for node, record_id in intent.intent_records:
            engine.verbs.invalidate_log(
                node, engine.coord_id, record_id, signaled=False
            )


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

    # -- recovery half ------------------------------------------------------

    @classmethod
    def find_interrupted(
        cls, rc, sources, record, pid: int
    ) -> Generator[Event, Any, List[Evidence]]:
        """Which transactions did the dead coordinators leave
        interrupted? *sources* pairs each with the live nodes holding
        its log regions (none, on a logless log axis)."""
        raise NotImplementedError

    @classmethod
    def post_undo(
        cls, rc, txn: StrayTxn, updated: List[Tuple[int, Address]]
    ) -> Generator[Event, Any, List[Event]]:
        """Post *txn*'s undo image (``rc.restore``) to each ``(node,
        address)`` replica that took its update; returns the acks."""
        raise NotImplementedError


class LoggedCommitStrategy(CommitStrategy):
    """Classic commit: the decision is the durable undo-log state; the
    decision point (run_attempt) waited for the f+1 log acks before any
    in-place update. So recovery's evidence is the log: a transaction
    was interrupted iff a valid undo record of it survives, and that
    record is its undo image."""

    @classmethod
    def find_interrupted(cls, rc, sources, record, pid):
        regions = yield from rc.read_log_regions(sources)
        decode = rc.protocol.log.decode
        return [decode(coord_id, records) for coord_id, records in regions]

    @classmethod
    def post_undo(cls, rc, txn, updated):
        yield from ()  # the images were fetched with the log regions
        return [
            rc.restore(node_id, address, txn.undo[address])
            for node_id, address in updated
        ]


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

    def post_apply(
        self, tx, intent: WriteIntent, node: int, value_size: int
    ) -> Event:
        engine = self.engine
        shadow = VoteShadow(
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

    # -- recovery half ------------------------------------------------------

    @classmethod
    def find_interrupted(cls, rc, sources, record, pid):
        """No log regions to read: the price of skipping the f+1 log
        write is a keyspace scan for the dead owners' lock words — no
        stop-the-world, live traffic keeps running — whose vote
        shadows name the interrupted transactions. A stray lock with
        no shadow is a lock-phase-only txn: nothing was applied, so
        releasing the lock is its entire roll-back."""
        dead = {coord_id for coord_id, _nodes in sources}
        owned_by = rc.protocol.lock.owned_by
        stray: List[Tuple[int, int, int, int]] = []

        def collect(node_id: int, table_id: int, slot: int, word: int) -> bool:
            if owned_by(word, dead):
                stray.append((node_id, table_id, slot, word))
            return False  # released after the repairs, not mid-scan

        # Chunks are charged as bulk 16B-header transfers (the RC reads
        # in large parallel bursts, not one slot per round trip).
        scan_started = rc.sim.now
        yield from rc.scan_locks(
            lambda slots: rc.network.transfer_time(slots * 16), collect, record
        )
        rc.obs.tracer.span(
            "recovery",
            "vote-scan",
            scan_started,
            rc.sim.now,
            pid=pid,
            args={
                "scanned_slots": record.scanned_slots,
                "stray_locks": len(stray),
            },
        )

        txns: Dict[Tuple[int, int], StrayTxn] = {}
        posted = [
            rc.verbs.read_vote(node_id, table_id, slot)
            for node_id, table_id, slot, _word in stray
        ]
        for event in posted:
            try:
                shadow = yield event
            except RdmaError:
                continue
            if shadow is None:
                continue
            shadow = VoteShadow._make(shadow)
            key = (shadow.coord_id, shadow.txn_id)
            if shadow.coord_id in dead and key not in txns:
                txns[key] = StrayTxn(
                    *key,
                    new_versions={
                        (table_id, slot): new_version
                        for table_id, slot, new_version in shadow.manifest
                    },
                )
        return [Evidence(txns=[txns[key] for key in sorted(txns)], stray_words=stray)]

    @classmethod
    def post_undo(cls, rc, txn, updated):
        """Each replica that took the update restores the pre-image
        from its own vote shadow."""
        posted = [
            (node_id, address, rc.verbs.read_vote(node_id, *address))
            for node_id, address in updated
        ]
        restores = []
        for node_id, address, event in posted:
            try:
                shadow = yield event
            except RdmaError:
                continue
            if shadow is None:
                continue
            shadow = VoteShadow._make(shadow)
            if (shadow.coord_id, shadow.txn_id) != (txn.coord_id, txn.txn_id):
                continue  # already repaired / overwritten since
            restores.append(rc.restore(node_id, address, shadow))
        return restores
