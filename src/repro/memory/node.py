"""The memory server: passive storage accessed through one-sided verbs.

A memory node holds object slots (lock word, version, payload) for each
table partition it hosts, plus one bounded log region per registered
coordinator (§3.1.4: all of a coordinator's undo logs live in the same
f+1 memory servers). It applies verbs atomically at message arrival and
runs **no transactional logic** — the only CPU it has is a wimpy core
for the control plane (connection setup and active-link termination,
§3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis import NOOP_SANITIZER

__all__ = [
    "ObjectSlot",
    "Table",
    "LogRecord",
    "LogRegion",
    "MemoryNode",
    "OBJECT_HEADER_BYTES",
]

# Lock word (8B) + version (8B) = per-object metadata read alongside values.
OBJECT_HEADER_BYTES = 16

# Fixed per-record log overhead (ids, lengths) plus per-entry metadata.
LOG_RECORD_HEADER_BYTES = 40
LOG_ENTRY_HEADER_BYTES = 32

# Each coordinator is allocated 32 KiB of log space per log server (§3.2.2).
LOG_REGION_CAPACITY_BYTES = 32 * 1024


class _TicketQueue:
    """Server-side state of one LOTUS ticket-lock word.

    ``entries`` maps ticket number → waiting coordinator id for every
    ticket not yet served or cancelled; the head (``serving``) is the
    current lock holder. The word stored in the lock column is derived
    from this state (see :func:`repro.protocol.locks.encode_ticket_word`);
    a drained queue is dropped and the word reverts to 0.
    """

    __slots__ = ("serving", "next_ticket", "entries")

    def __init__(self) -> None:
        self.serving = 0
        self.next_ticket = 0
        self.entries: Dict[int, int] = {}


class Table:
    """Columnar slot storage for one table partition.

    Slots are stored as parallel arrays keyed by the catalog's integer
    slot ids — one Python list per field (lock word, version, payload,
    valid bit) — instead of one heap object per slot. The verb handlers
    index the columns directly, which both halves per-slot memory and
    keeps the hot verbs to two list indexings instead of an attribute
    walk through a per-object ``__dict__``/slot descriptor.

    Indexing or iterating a table yields :class:`ObjectSlot` views for
    tests and cold paths that still want object-style access.
    """

    __slots__ = ("table_id", "value_size", "locks", "versions", "values", "present")

    def __init__(self, table_id: int, slots: int, value_size: int) -> None:
        self.table_id = table_id
        self.value_size = value_size
        self.locks: List[int] = [0] * slots
        self.versions: List[int] = [0] * slots
        self.values: List[Any] = [None] * slots
        self.present: List[bool] = [False] * slots

    def __len__(self) -> int:
        return len(self.locks)

    def __getitem__(self, slot: int) -> "ObjectSlot":
        return ObjectSlot(self, slot)

    def __iter__(self):
        for slot in range(len(self.locks)):
            yield ObjectSlot(self, slot)


class ObjectSlot:
    """Object-style view over one slot of a columnar :class:`Table`.

    The storage of record fields lives in the table's parallel arrays;
    this proxy keeps the historical per-object API (``slot.lock = 1``,
    ``slot.snapshot()``) working for tests, the chaos oracle, and the
    recovery restore path.
    """

    __slots__ = ("table", "index")

    def __init__(self, table: Table, index: int) -> None:
        self.table = table
        self.index = index

    @property
    def lock(self) -> int:
        return self.table.locks[self.index]

    @lock.setter
    def lock(self, word: int) -> None:
        self.table.locks[self.index] = word

    @property
    def version(self) -> int:
        return self.table.versions[self.index]

    @version.setter
    def version(self, version: int) -> None:
        self.table.versions[self.index] = version

    @property
    def value(self) -> Any:
        return self.table.values[self.index]

    @value.setter
    def value(self, value: Any) -> None:
        self.table.values[self.index] = value

    @property
    def present(self) -> bool:
        return self.table.present[self.index]

    @present.setter
    def present(self, present: bool) -> None:
        self.table.present[self.index] = present

    @property
    def value_size(self) -> int:
        return self.table.value_size

    def header(self) -> Tuple[int, int, bool]:
        """The 16-byte header: (lock word, version, present)."""
        table, index = self.table, self.index
        return (table.locks[index], table.versions[index], table.present[index])

    def snapshot(self) -> Tuple[int, int, bool, Any]:
        """Full object image: (lock, version, present, value)."""
        table, index = self.table, self.index
        return (
            table.locks[index],
            table.versions[index],
            table.present[index],
            table.values[index],
        )

    @property
    def slot_bytes(self) -> int:
        """Wire size of the slot (header + value)."""
        return OBJECT_HEADER_BYTES + self.table.value_size


@dataclass
class LogRecord:
    """A coalesced undo-log record for one transaction.

    ``entries`` is a sequence of tuples
    ``(table_id, slot, key, old_version, new_version, old_value,
    new_value, old_present, new_present)`` covering the full write-set.
    """

    coord_id: int
    txn_id: int
    entries: Sequence[Tuple]
    valid: bool = True
    record_id: int = -1
    # Bytes charged when the record entered a region (set on append).
    charged_bytes: int = 0

    def size_bytes(self, value_size_of: Optional[Dict[int, int]] = None) -> int:
        size = LOG_RECORD_HEADER_BYTES
        for entry in self.entries:
            table_id = entry[0]
            value_size = 8
            if value_size_of is not None:
                value_size = value_size_of.get(table_id, 8)
            size += LOG_ENTRY_HEADER_BYTES + 2 * value_size
        return size


@dataclass
class LogRegion:
    """A coordinator's bounded, exclusively-owned log area.

    The owner appends with plain RDMA writes (no CAS needed — the
    region is private), invalidates individual records on abort, and
    the recovery coordinator truncates the whole region by flipping the
    header's valid bit (§3.2.3).
    """

    coord_id: int
    capacity_bytes: int = LOG_REGION_CAPACITY_BYTES
    header_valid: bool = True
    used_bytes: int = 0
    records: List[LogRecord] = field(default_factory=list)
    _next_record_id: int = 0
    _by_id: Dict[int, LogRecord] = field(default_factory=dict)

    def append(self, record: LogRecord, size_bytes: int) -> int:
        """Append a record, wrapping (ring-buffer style) when full."""
        while self.used_bytes + size_bytes > self.capacity_bytes and self.records:
            evicted = self.records.pop(0)
            self._by_id.pop(evicted.record_id, None)
            self.used_bytes -= evicted.charged_bytes
        record.charged_bytes = size_bytes
        record.record_id = self._next_record_id
        self._next_record_id += 1
        self.records.append(record)
        self._by_id[record.record_id] = record
        self.used_bytes += size_bytes
        return record.record_id

    def invalidate(self, record_id: int) -> bool:
        record = self._by_id.get(record_id)
        if record is None:
            return False
        record.valid = False
        return True

    def valid_records(self) -> List[LogRecord]:
        """Records still valid (empty once truncated)."""
        if not self.header_valid:
            return []
        return [record for record in self.records if record.valid]

    def truncate(self) -> None:
        """Invalidate the whole region (recovery-side truncation)."""
        self.header_valid = False
        self.records.clear()
        self._by_id.clear()
        self.used_bytes = 0

    def reset(self) -> None:
        """Re-arm the region for a fresh coordinator id."""
        self.header_valid = True
        self.records.clear()
        self._by_id.clear()
        self.used_bytes = 0


class MemoryNode:
    """A passive memory server.

    Verbs arrive through queue pairs and are executed atomically by
    :meth:`apply`. ``ctrl_*`` kinds model the wimpy-core control plane
    (RPC-based, used only off the data path, as the paper allows).
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.alive = True
        # PILL sanitizer hook (repro.analysis); the no-op singleton
        # keeps the disabled path at one lookup + one empty call.
        self.sanitizer = NOOP_SANITIZER
        self.tables: Dict[int, Table] = {}
        self.value_sizes: Dict[int, int] = {}
        self.log_regions: Dict[int, LogRegion] = {}
        self._revoked: Set[int] = set()
        # LOTUS lock-server state: ticket queues per (table, slot) and
        # the Cor4-pushed failed-ids bitset (wired by the cluster
        # builder) consulted to skip dead waiters on queue advance.
        self._ticket_queues: Dict[Tuple[int, int], _TicketQueue] = {}
        self.failed_ids: Optional[Any] = None
        # vote1pc per-slot shadows (undo image + write-set manifest),
        # cleared by the same writes that free the lock word.
        self._vote_shadows: Dict[Tuple[int, int], Tuple] = {}
        handlers = {
            "read_object": self._op_read_object,
            "read_header": self._op_read_header,
            "read_headers": self._op_read_headers,
            "cas_lock": self._op_cas_lock,
            "write_lock": self._op_write_lock,
            "write_object": self._op_write_object,
            "faa_ticket": self._op_faa_ticket,
            "cancel_ticket": self._op_cancel_ticket,
            "vote_write": self._op_vote_write,
            "read_vote": self._op_read_vote,
            "write_value": self._op_write_value,
            "write_log": self._op_write_log,
            "invalidate_log": self._op_invalidate_log,
            "read_log_region": self._op_read_log_region,
            "truncate_log_region": self._op_truncate_log_region,
            "scan_chunk": self._op_scan_chunk,
            "ctrl_revoke": self._op_ctrl_revoke,
            "ctrl_unrevoke": self._op_ctrl_unrevoke,
            "ctrl_register_log_region": self._op_ctrl_register_log_region,
        }
        # kind -> [handler, verbs applied]: the one dict hit of an
        # apply finds both the handler and its counter.
        self._verbs: Dict[str, List[Any]] = {
            kind: [handler, 0] for kind, handler in handlers.items()
        }

    # -- provisioning (control path, done at cluster build / setup) -------

    def create_table(self, table_id: int, slots: int, value_size: int) -> None:
        """Allocate the columnar slot arrays for one table."""
        if table_id in self.tables:
            raise ValueError(f"table {table_id} already exists on node {self.node_id}")
        self.tables[table_id] = Table(table_id, slots, value_size)
        self.value_sizes[table_id] = value_size

    def load_slot(self, table_id: int, slot: int, value: Any, version: int = 1) -> None:
        """Bulk-load an object (bypasses the network; setup only)."""
        table = self.tables[table_id]
        table.values[slot] = value
        table.versions[slot] = version
        table.present[slot] = True

    def slot(self, table_id: int, slot: int) -> ObjectSlot:
        """Direct slot access (tests/introspection only)."""
        return self.tables[table_id][slot]

    def crash(self) -> None:
        """Crash-stop this memory server."""
        self.alive = False

    def restart(self) -> None:
        """Restart with memory intact (battery-backed / NVM scenario).

        Object slots and log regions survive (NVM), but the ticket
        queues and vote shadows are volatile lock-server state and die
        with the process. Keeping a stale queue across a restart would
        let the next ``faa_ticket`` re-grant the slot to a waiter whose
        transaction failed (and resolved) while this node was down —
        a live-owner lock leak. The re-replication path that calls this
        zeroes the matching lock words, so dropping the queues keeps
        word and queue state consistent.
        """
        self.alive = True
        self._ticket_queues.clear()
        self._vote_shadows.clear()

    # -- link management ----------------------------------------------------

    def is_revoked(self, compute_id: int) -> bool:
        """True if the compute id lost its RDMA access rights."""
        return compute_id in self._revoked

    # -- verb execution ------------------------------------------------------

    @property
    def verb_counts(self) -> Dict[str, int]:
        """Verbs applied so far, per kind (kinds never applied absent)."""
        return {kind: entry[1] for kind, entry in self._verbs.items() if entry[1]}

    def apply(self, src_compute_id: int, kind: str, args: Tuple) -> Tuple[Any, int]:
        """Execute one verb atomically; returns (result, response bytes)."""
        try:
            entry = self._verbs[kind]
        except KeyError:
            raise ValueError(f"unknown verb kind {kind!r}") from None
        entry[1] += 1
        sanitizer = self.sanitizer
        if sanitizer is NOOP_SANITIZER:
            # Fast path: skip even the empty hook calls. The sanitizer
            # is wired before any traffic, so the check is stable.
            return entry[0](src_compute_id, args)
        sanitizer.before_verb(self, src_compute_id, kind, args)
        result = entry[0](src_compute_id, args)
        sanitizer.after_verb(self, src_compute_id, kind, args, result[0])
        return result

    # Data-path verbs ---------------------------------------------------------

    def _op_read_object(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        table_id, slot = args
        table = self.tables[table_id]
        snapshot = (
            table.locks[slot],
            table.versions[slot],
            table.present[slot],
            table.values[slot],
        )
        return snapshot, OBJECT_HEADER_BYTES + table.value_size

    def _op_read_header(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        table_id, slot = args
        table = self.tables[table_id]
        return (table.locks[slot], table.versions[slot], table.present[slot]), OBJECT_HEADER_BYTES

    def _op_read_headers(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        """Doorbell-batched header read for a list of (table, slot)."""
        addresses = args[0]
        tables = self.tables
        headers = []
        for table_id, slot in addresses:
            table = tables[table_id]
            headers.append((table.locks[slot], table.versions[slot], table.present[slot]))
        return headers, OBJECT_HEADER_BYTES * len(headers)

    def _op_cas_lock(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        table_id, slot, expected, desired = args
        locks = self.tables[table_id].locks
        old = locks[slot]
        if old == expected:
            if desired == 0 and (self._ticket_queues or self._vote_shadows):
                # A conditional release doubles as a LOTUS queue
                # advance (dead-holder skip) and clears any vote1pc
                # shadow; both guards are falsy for CAS-word protocols,
                # keeping their hot path untouched.
                if self._release_side_effects(table_id, slot):
                    return old, 8
            locks[slot] = desired
        return old, 8

    def _op_write_lock(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        table_id, slot, word = args
        if word == 0 and (self._ticket_queues or self._vote_shadows):
            if self._release_side_effects(table_id, slot):
                return None, 8
        self.tables[table_id].locks[slot] = word
        return None, 8

    def _release_side_effects(self, table_id: int, slot: int) -> bool:
        """Shared lock-release semantics for LOTUS / vote1pc words.

        Clears the slot's vote shadow and, when a ticket queue exists,
        advances it in place of clearing the word. Returns True when
        the advance already updated the lock word (the caller must not
        overwrite it).
        """
        if self._vote_shadows:
            self._vote_shadows.pop((table_id, slot), None)
        queue = self._ticket_queues.get((table_id, slot))
        if queue is not None:
            self._ticket_advance(table_id, slot, queue)
            return True
        return False

    def _op_write_object(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        """In-place update of value + version (+ presence)."""
        table_id, slot, version, value, present = args
        table = self.tables[table_id]
        table.versions[slot] = version
        table.values[slot] = value
        table.present[slot] = present
        return None, 8

    def _op_write_value(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        table_id, slot, value = args
        self.tables[table_id].values[slot] = value
        return None, 8

    # LOTUS ticket-queue verbs ---------------------------------------------------

    def _ticket_word(self, table: Table, slot: int, queue: _TicketQueue) -> int:
        from repro.protocol.locks import encode_ticket_word

        word = encode_ticket_word(
            queue.entries[queue.serving],
            queue.serving & 0xFFFF,
            queue.next_ticket & 0xFFFF,
        )
        table.locks[slot] = word
        return word

    def _ticket_advance(
        self, table_id: int, slot: int, queue: _TicketQueue
    ) -> None:
        """Grant the lock to the next *live, uncancelled* ticket.

        Dead waiters are skipped via the Cor4-pushed failed-ids bitset
        — the queue-aware half of PILL recovery: a coordinator that
        died while queued must never be granted the lock, or the slot
        would deadlock until someone steals it. A drained queue is
        dropped and the word reverts to 0 (the universal free word).
        """
        queue.entries.pop(queue.serving, None)
        queue.serving += 1
        failed = self.failed_ids
        while queue.serving < queue.next_ticket:
            coord = queue.entries.get(queue.serving)
            if coord is None:
                # Cancelled ticket: nothing to grant.
                queue.serving += 1
                continue
            if failed is not None and coord in failed:
                # Dead waiter: skip its ticket.
                queue.entries.pop(queue.serving)
                queue.serving += 1
                continue
            break
        table = self.tables[table_id]
        if queue.serving >= queue.next_ticket:
            del self._ticket_queues[(table_id, slot)]
            table.locks[slot] = 0
        else:
            self._ticket_word(table, slot, queue)

    def _op_faa_ticket(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        """FAA enqueue: take a ticket, maybe get granted immediately."""
        table_id, slot, coord_id = args
        table = self.tables[table_id]
        key = (table_id, slot)
        queue = self._ticket_queues.get(key)
        if queue is None:
            word = table.locks[slot]
            if word != 0:
                # Foreign (CAS-format) lock word: refuse the enqueue.
                return (-1, word), 16
            queue = _TicketQueue()
            self._ticket_queues[key] = queue
        ticket = queue.next_ticket
        queue.next_ticket += 1
        queue.entries[ticket] = coord_id
        word = self._ticket_word(table, slot, queue)
        return (ticket, word), 16

    def _op_cancel_ticket(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        """Withdraw a ticket (bounded-wait abort path)."""
        table_id, slot, ticket = args
        queue = self._ticket_queues.get((table_id, slot))
        if queue is None:
            return False, 8
        if ticket == queue.serving:
            # The canceller holds the lock: cancel is a release.
            self._ticket_advance(table_id, slot, queue)
        else:
            queue.entries.pop(ticket, None)
        return True, 8

    # vote1pc verbs --------------------------------------------------------------

    def _op_vote_write(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        """Apply the new image and store the per-slot vote shadow."""
        table_id, slot, version, value, present, shadow = args
        table = self.tables[table_id]
        table.versions[slot] = version
        table.values[slot] = value
        table.present[slot] = present
        self._vote_shadows[(table_id, slot)] = shadow
        return None, 8

    def _op_read_vote(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        table_id, slot = args
        shadow = self._vote_shadows.get((table_id, slot))
        if shadow is None:
            return None, 8
        value_size = self.value_sizes.get(table_id, 8)
        size = OBJECT_HEADER_BYTES + value_size + 16 * len(shadow[5])
        return shadow, size

    # Log verbs ----------------------------------------------------------------

    def _op_write_log(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        (record,) = args
        region = self.log_regions.get(record.coord_id)
        if region is None:
            region = LogRegion(coord_id=record.coord_id)
            self.log_regions[record.coord_id] = region
        size = record.size_bytes(self.value_sizes)
        record_id = region.append(record, size)
        return record_id, 8

    def _op_invalidate_log(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        coord_id, record_id = args
        region = self.log_regions.get(coord_id)
        found = region.invalidate(record_id) if region is not None else False
        return found, 8

    def _op_read_log_region(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        (coord_id,) = args
        region = self.log_regions.get(coord_id)
        if region is None:
            return [], 8
        records = region.valid_records()
        return list(records), max(region.used_bytes, 8)

    def _op_truncate_log_region(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        (coord_id,) = args
        region = self.log_regions.get(coord_id)
        if region is not None:
            region.truncate()
        return None, 8

    # Scan verb (used only by the Baseline's blocking recovery) ----------------

    def _op_scan_chunk(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        """Raw read of *count* slots starting at (table, start).

        One-sided reads cannot filter server-side, so the response is
        charged for the full chunk even though the caller only wants
        the lock words — this is what makes FORD-style stray-lock
        scans take seconds (§3.1.1).
        """
        table_id, start, count = args
        table = self.tables[table_id]
        end = min(start + count, len(table))
        locks = table.locks
        locked = [
            (index, locks[index])
            for index in range(start, end)
            if locks[index] != 0
        ]
        value_size = self.value_sizes.get(table_id, 8)
        chunk_bytes = (end - start) * (OBJECT_HEADER_BYTES + value_size)
        return (locked, end), chunk_bytes

    # Control-plane RPCs (wimpy core) -------------------------------------------

    def _op_ctrl_revoke(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        (target_compute_id,) = args
        self._revoked.add(target_compute_id)
        return True, 8

    def _op_ctrl_unrevoke(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        (target_compute_id,) = args
        self._revoked.discard(target_compute_id)
        return True, 8

    def _op_ctrl_register_log_region(self, _src: int, args: Tuple) -> Tuple[Any, int]:
        (coord_id,) = args
        region = self.log_regions.get(coord_id)
        if region is None:
            self.log_regions[coord_id] = LogRegion(coord_id=coord_id)
        else:
            region.reset()
        return True, 8

    # Introspection (test/bench support; not part of the data path) -------------

    def locked_slots(self, table_id: int) -> List[int]:
        """Indices of currently locked slots in a table."""
        return [
            index
            for index, lock in enumerate(self.tables[table_id].locks)
            if lock != 0
        ]

    def total_data_bytes(self) -> int:
        """Bytes of object data hosted by this node."""
        return sum(
            len(table) * (OBJECT_HEADER_BYTES + self.value_sizes[table_id])
            for table_id, table in self.tables.items()
        )
