"""Online PILL protocol sanitizer — a lockset checker for RDMA verbs.

In the spirit of lockset race detectors (Eraser), the sanitizer shadows
the cluster's lock table at the verb layer and asserts the paper's
lock/log discipline on every simulated verb, online:

``PILL-STEAL``   a CAS that replaces a held lock word is legal only
                 when the embedded owner id is in the failed-ids bitset
                 (§3.1.2) — or when it is recovery's owner-conditioned
                 release.
``PILL-WRITE``   ``write_object`` may only move an object *forward*
                 (version-advancing) while the issuing compute holds
                 the object's lock (§2.3 / §3.1.5).
``PILL-LOG``     an undo-log record may only cover objects its issuer
                 currently holds — the lock-to-log order (§3.1.5).
``PILL-APPLY``   a version-advancing ``write_object`` requires a valid
                 landed log record covering the object at (at least)
                 that version: the write-set is durably logged before
                 any in-place update (§3.1.5, the decision point).
``PILL-DECIDE``  unlocking an object with a still-valid undo record and
                 no commit evidence loses the abort decision (§3.1.5:
                 aborts truncate their records *before* unlocking).
``PILL-UNLOCK``  only the lock's owner (or recovery) may release it —
                 FORD's complicit abort violates exactly this.
``PILL-OVERWRITE`` lock words are acquired by CAS, never by direct
                 write of a nonzero word.

The sanitizer hooks two layers:

* ``MemoryNode.apply`` (``before_verb``/``after_verb``) — state checks
  against ground truth at the atomic execution point;
* ``QueuePair.post`` (``on_post``) — compute-side *ordering* checks
  (PILL-DECIDE), where the engine's post order is ground truth even
  though arrivals at different memory nodes may interleave.

It mirrors the ``NOOP_OBS`` pattern: disabled runs use the slotted
:data:`repro.analysis.NOOP_SANITIZER` singleton and stay bit-identical
(the sanitizer is passive — it never schedules events or touches RNG
state). Violations carry the recent verb timeline and, when an ``Obs``
tracer is attached, also drop an instant event into the trace.

Cost model (docs/ANALYSIS.md): the sanitizer *records*, it does not
render. A verb costs two appends of a raw tuple to the timeline ring
(post and exec) plus one lookup per hook in that hook's per-kind rule
table; a kind with no rule — every read — costs the dict miss. Timeline
text is formatted only when a violation is built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.protocol.locks import (
    ANONYMOUS_OWNER,
    is_locked,
    is_ticket_word,
    owner_of,
)

__all__ = [
    "SanitizerViolation",
    "PillSanitizer",
    "DEFAULT_RECOVERY_ID",
    "STEAL_LIVE_OWNER",
    "WRITE_WITHOUT_LOCK",
    "WRITE_WITHOUT_LOG",
    "LOG_WITHOUT_LOCK",
    "UNLOCK_BEFORE_TRUNCATE",
    "UNLOCK_BY_NON_OWNER",
    "LOCK_OVERWRITE",
]

# Violation codes (stable identifiers; tests and CI match on these).
STEAL_LIVE_OWNER = "PILL-STEAL"
WRITE_WITHOUT_LOCK = "PILL-WRITE"
WRITE_WITHOUT_LOG = "PILL-APPLY"
LOG_WITHOUT_LOCK = "PILL-LOG"
UNLOCK_BEFORE_TRUNCATE = "PILL-DECIDE"
UNLOCK_BY_NON_OWNER = "PILL-UNLOCK"
LOCK_OVERWRITE = "PILL-OVERWRITE"

# Mirrors repro.cluster.builder.RECOVERY_SERVER_ID (kept as a literal
# here so the sanitizer never imports the builder it is wired into).
DEFAULT_RECOVERY_ID = 10_000

# Lock-intent records (tradlog's pre-lock log) carry txn_id == -1 and
# 4-tuple entries; they are exempt from undo-record invariants.
_LOCK_INTENT_TXN = -1


class SanitizerViolation(AssertionError):
    """A PILL invariant broke; carries the recent verb timeline."""

    def __init__(
        self,
        code: str,
        message: str,
        time: float = 0.0,
        compute: Optional[int] = None,
        node: Optional[int] = None,
        verb: Optional[str] = None,
        timeline: Iterable[str] = (),
    ) -> None:
        self.code = code
        self.message = message
        self.time = time
        self.compute = compute
        self.node = node
        self.verb = verb
        self.timeline = list(timeline)
        lines = [
            f"[{code}] {message} "
            f"(t={time * 1e6:.2f}us compute={compute} memory={node} verb={verb})"
        ]
        if self.timeline:
            lines.append("recent verbs (oldest first):")
            lines.extend(f"  {entry}" for entry in self.timeline)
        super().__init__("\n".join(lines))


class _TrackedRecord:
    """Compute-side view of one posted undo-log record copy."""

    __slots__ = ("record", "coord_id", "node_id", "covers", "record_id")

    def __init__(self, record, node_id: int, covers: Dict[Tuple[int, int], int]) -> None:
        self.record = record  # pins the object so id() stays unique
        self.coord_id = record.coord_id
        self.node_id = node_id
        self.covers = covers
        self.record_id: Optional[int] = None


class _StoppedClock:
    """Time source of a sanitizer wired to no simulator (raw-verb tests)."""

    now = 0.0


def _render(entry: Tuple) -> str:
    """One timeline line from the raw tuple :meth:`PillSanitizer._trace` kept."""
    now, layer, compute, node, kind, args = entry
    if kind == "write_log":
        # The record is the one argument that changes after it is
        # traced: show it as it was then.
        record, valid, record_id, charged_bytes = args
        args = (
            replace(
                record, valid=valid, record_id=record_id, charged_bytes=charged_bytes
            ),
        )
    brief = repr(args)
    if len(brief) > 96:
        brief = brief[:93] + "..."
    return f"{now * 1e6:10.3f}us {layer:5s} c{compute}->m{node} {kind} {brief}"


class PillSanitizer:
    """Shadow lock table + undo-record tracker asserting PILL online.

    ``strict=True`` raises :class:`SanitizerViolation` at the violating
    verb (unit-test mode); ``strict=False`` collects violations in
    :attr:`violations` so buggy runs complete and report at the end
    (cluster / mutation-harness mode). Either way the verb executes —
    the sanitizer observes, it never alters simulation behaviour.
    """

    enabled = True

    def __init__(
        self,
        memory_nodes: Dict[int, Any],
        failed_ids: Any = frozenset(),
        recovery_id: int = DEFAULT_RECOVERY_ID,
        sim: Any = None,
        obs: Any = None,
        strict: bool = True,
        timeline_depth: int = 64,
    ) -> None:
        self.memory_nodes = memory_nodes
        # Anything supporting ``in`` (IdAllocator.failed Bitset, a set).
        self.failed_ids = failed_ids
        self.recovery_id = recovery_id
        self.sim = sim
        self._clock = sim if sim is not None else _StoppedClock
        self.obs = obs
        self.strict = strict
        self.violations: List[SanitizerViolation] = []
        # Raw ``(now, layer, compute, node, kind, args)`` tuples; see
        # :func:`_render` for the text a violation shows.
        self._timeline: deque = deque(maxlen=timeline_depth)
        # Shadow lockset: (table, slot) -> (holder compute id, lock word).
        self._locks: Dict[Tuple[int, int], Tuple[int, int]] = {}
        # Posted-record tracking for the compute-side ordering check:
        # every tracked record is in _records_by_coord and, once per
        # covered object, in _records_by_address, both in post order.
        self._records_by_obj: Dict[int, _TrackedRecord] = {}
        self._records_by_id: Dict[Tuple[int, int, int], _TrackedRecord] = {}
        self._records_by_coord: Dict[int, List[_TrackedRecord]] = {}
        self._records_by_address: Dict[Tuple[int, int], List[_TrackedRecord]] = {}
        # Logical records (coord, txn) with at least one invalidation
        # posted: the decision reached the log before any unlock.
        self._decided: set = set()
        # compute -> {coordinator: rank}, ranked by first posted record;
        # the order PILL-DECIDE names a coordinator in.
        self._coords_on_compute: Dict[int, Dict[int, int]] = {}
        # Highest version posted via write_object, per compute per object.
        self._written: Dict[Tuple[int, Tuple[int, int]], int] = {}
        # LOTUS: slots under ticket-queue management (the lock server
        # re-grants on release, so the shadow lockset resyncs from
        # ground truth there), and the coord-id -> compute-node map
        # learned from faa_ticket posts (ticket words name the holding
        # *coordinator*; the lockset names the issuing *compute*).
        self._ticket_slots: set = set()
        self._coord_compute: Dict[int, int] = {}

    # -- helpers -------------------------------------------------------------

    def _trace(
        self, now: float, layer: str, compute: int, node: int, kind: str, args: Tuple
    ) -> None:
        if kind == "write_log":
            # The memory node assigns record_id / charged_bytes on
            # append and an invalidation flips valid: pin all three.
            record = args[0]
            args = (record, record.valid, record.record_id, record.charged_bytes)
        self._timeline.append((now, layer, compute, node, kind, args))

    def _violate(
        self,
        code: str,
        message: str,
        compute: int,
        node: int,
        verb: str,
        now: Optional[float] = None,
    ) -> None:
        if now is None:
            now = self._clock.now
        violation = SanitizerViolation(
            code,
            message,
            time=now,
            compute=compute,
            node=node,
            verb=verb,
            # Rendered here, not when read: the ring moves on.
            timeline=map(_render, self._timeline),
        )
        self.violations.append(violation)
        if self.obs is not None:
            self.obs.tracer.instant("sanitizer", code, now, args={"message": message})
        if self.strict:
            raise violation

    def _is_failed(self, coord_id: int) -> bool:
        return coord_id in self.failed_ids

    def _has_landed_record(
        self, lock_word: int, table_id: int, slot: int, version: int
    ) -> bool:
        """A valid undo record covering (table, slot) at >= *version*
        exists in some alive log region — i.e. the write-set was
        durably logged before this in-place update (§3.1.5).

        Read from the memory nodes' log regions (ground truth), entries
        by index, newest record first — never from the tracked records
        above, which shadow what the engine *posted*."""
        owner = owner_of(lock_word) if is_locked(lock_word) else ANONYMOUS_OWNER
        for memory in self.memory_nodes.values():
            if not memory.alive:
                continue
            if owner != ANONYMOUS_OWNER:
                region = memory.log_regions.get(owner)
                regions: Iterable = () if region is None else (region,)
            else:
                # Anonymous lock words (FORD/tradlog) cannot be
                # attributed; accept a covering record from any region.
                regions = memory.log_regions.values()
            for region in regions:
                if not region.header_valid:
                    continue
                for record in reversed(region.records):
                    if not record.valid or record.txn_id == _LOCK_INTENT_TXN:
                        continue
                    for entry in record.entries:
                        if (
                            len(entry) >= 5
                            and entry[0] == table_id
                            and entry[1] == slot
                            and entry[4] >= version
                        ):
                            return True
        return False

    # -- compute-side hook (queue-pair post order) ---------------------------

    def on_post(self, compute_id: int, node_id: int, kind: str, args: Tuple, now: float) -> None:
        self._trace(now, "post", compute_id, node_id, kind, args)
        rule = self._POST_RULES.get(kind)
        if rule is not None:
            rule(self, compute_id, node_id, args, now)

    def _post_write_log(self, compute_id: int, node_id: int, args: Tuple, _now: float) -> None:
        record = args[0]
        if record.txn_id == _LOCK_INTENT_TXN:
            return
        covers: Dict[Tuple[int, int], int] = {}
        for entry in record.entries:
            if len(entry) < 9:
                continue
            # Changeless entries (read_for_update never followed by
            # a write: new_value None, not a delete) commit without
            # any write_object, so they cannot demand one.
            if entry[6] is None and entry[8]:
                continue
            covers[(entry[0], entry[1])] = entry[4]
        tracked = _TrackedRecord(record, node_id, covers)
        self._records_by_obj[id(record)] = tracked
        self._records_by_coord.setdefault(record.coord_id, []).append(tracked)
        for address in covers:
            self._records_by_address.setdefault(address, []).append(tracked)
        coords = self._coords_on_compute.setdefault(compute_id, {})
        coords.setdefault(record.coord_id, len(coords))

    def _post_invalidate_log(
        self, _compute_id: int, node_id: int, args: Tuple, _now: float
    ) -> None:
        coord_id, record_id = args
        tracked = self._records_by_id.get((node_id, coord_id, record_id))
        if tracked is not None:
            self._decided.add((coord_id, tracked.record.txn_id))
            self._drop_record(tracked)

    def _post_truncate(self, _compute_id: int, node_id: int, args: Tuple, _now: float) -> None:
        (coord_id,) = args
        for tracked in list(self._records_by_coord.get(coord_id, ())):
            if tracked.node_id == node_id:
                self._decided.add((coord_id, tracked.record.txn_id))
                self._drop_record(tracked)

    def _post_write(self, compute_id: int, _node_id: int, args: Tuple, _now: float) -> None:
        key = (compute_id, (args[0], args[1]))
        version = args[2]
        if version > self._written.get(key, -1):
            self._written[key] = version

    def _post_write_lock(self, compute_id: int, node_id: int, args: Tuple, now: float) -> None:
        table_id, slot, word = args
        if word == 0 and compute_id != self.recovery_id:
            self._check_unlock_order(compute_id, node_id, table_id, slot, now)

    def _check_unlock_order(
        self, compute_id: int, node_id: int, table_id: int, slot: int, now: float
    ) -> None:
        """PILL-DECIDE: at unlock-post time, every still-valid record of
        this compute covering the object must either have had its
        invalidation posted first (abort decided) or be justified by a
        posted commit write at the logged version (commit decided)."""
        address = (table_id, slot)
        covering = self._records_by_address.get(address)
        coords = self._coords_on_compute.get(compute_id)
        if not covering or coords is None:
            return
        applied = self._written.get((compute_id, address), -1)
        # This compute's coordinators in rank order, each one's records
        # in post order (the sort is stable): the first hit is reported.
        mine = [tracked for tracked in covering if tracked.coord_id in coords]
        mine.sort(key=lambda tracked: coords[tracked.coord_id])
        for tracked in mine:
            needed = tracked.covers[address]
            if applied >= needed:
                continue
            coord_id = tracked.coord_id
            if (coord_id, tracked.record.txn_id) in self._decided:
                # A sibling copy's invalidation was already posted:
                # the abort decision reached the log first. The
                # engine cannot invalidate copies it was never
                # acked (dead log node / ack in flight at a crash,
                # §3.2.5), so one posted invalidation is proof.
                continue
            host = self.memory_nodes.get(tracked.node_id)
            if host is None or not host.alive:
                # The copy died with its log node; the engine can
                # neither invalidate it nor is recovery misled by
                # it. Forget it (a restore resets the region).
                self._drop_record(tracked)
                continue
            if tracked.record_id is None:
                # Still in flight: its ack cannot have reached the
                # compute, so the engine does not know this copy
                # exists (interrupted-attempt cleanup, §3.2.5).
                continue
            self._violate(
                UNLOCK_BEFORE_TRUNCATE,
                f"unlock of table {table_id} slot {slot} posted while undo "
                f"record (coord {coord_id}, txn {tracked.record.txn_id}) is "
                f"still valid and no commit write at version {needed} was "
                "posted — the abort decision was lost (§3.1.5)",
                compute=compute_id,
                node=node_id,
                verb="write_lock",
                now=now,
            )
            return

    def _drop_record(self, tracked: _TrackedRecord) -> None:
        self._records_by_obj.pop(id(tracked.record), None)
        if tracked.record_id is not None:
            self._records_by_id.pop(
                (tracked.node_id, tracked.coord_id, tracked.record_id), None
            )
        self._records_by_coord[tracked.coord_id].remove(tracked)
        for address in tracked.covers:
            covering = self._records_by_address[address]
            covering.remove(tracked)
            if not covering:
                del self._records_by_address[address]

    # -- memory-side hooks (atomic execution point) --------------------------

    def before_verb(self, node, src: int, kind: str, args: Tuple) -> None:
        self._trace(self._clock.now, "exec", src, node.node_id, kind, args)
        rule = self._BEFORE_RULES.get(kind)
        if rule is not None:
            rule(self, node, src, args)

    def after_verb(self, node, src: int, kind: str, args: Tuple, result: Any) -> None:
        rule = self._AFTER_RULES.get(kind)
        if rule is not None:
            rule(self, node, src, args, result)

    def _after_cas(self, node, src: int, args: Tuple, result: Any) -> None:
        table_id, slot, expected, desired = args
        if result == expected:  # the CAS succeeded
            self._lock_word_written(node, src, table_id, slot, desired)

    def _after_write_lock(self, node, src: int, args: Tuple, _result: Any) -> None:
        table_id, slot, word = args
        self._lock_word_written(node, src, table_id, slot, word)

    def _lock_word_written(
        self, node, src: int, table_id: int, slot: int, word: int
    ) -> None:
        key = (table_id, slot)
        if word != 0:
            self._locks[key] = (src, word)
            return
        self._locks.pop(key, None)
        if key in self._ticket_slots:
            self._resync_ticket_slot(node, table_id, slot)

    def _after_faa_ticket(self, node, src: int, args: Tuple, result: Any) -> None:
        table_id, slot, coord_id = args
        self._coord_compute[coord_id] = src
        ticket, _word = result
        if ticket >= 0:
            self._ticket_slots.add((table_id, slot))
            self._resync_ticket_slot(node, table_id, slot)

    def _after_cancel_ticket(self, node, _src: int, args: Tuple, _result: Any) -> None:
        table_id, slot = args[0], args[1]
        if (table_id, slot) in self._ticket_slots:
            self._resync_ticket_slot(node, table_id, slot)

    def _after_write_log(self, node, _src: int, args: Tuple, result: Any) -> None:
        record = args[0]
        tracked = self._records_by_obj.get(id(record))
        if tracked is not None and tracked.record_id is None:
            tracked.record_id = result
            self._records_by_id[(node.node_id, record.coord_id, result)] = tracked

    def _resync_ticket_slot(self, node, table_id: int, slot: int) -> None:
        """Re-read a queue-managed slot's ground-truth word.

        The lock server re-grants on release (queue advance), so the
        holder can change without any grant verb. Resyncing keeps the
        shadow lockset's holder — and therefore PILL-WRITE /
        PILL-UNLOCK — meaningful under LOTUS.
        """
        key = (table_id, slot)
        word = node.tables[table_id].locks[slot]
        if word == 0:
            self._locks.pop(key, None)
            self._ticket_slots.discard(key)
            return
        if not is_ticket_word(word):
            return  # foreign word (e.g. a restore reset it); leave as-is
        self._locks[key] = (self._coord_compute.get(owner_of(word), -1), word)

    def _before_vote_write(self, node, src: int, args: Tuple) -> None:
        """vote1pc apply: holder-checked like ``write_object``, but the
        decision lives in replica state, so no landed undo record is
        demanded (the point of the logless 1PC)."""
        if src == self.recovery_id:
            return
        table_id, slot = args[0], args[1]
        held = self._locks.get((table_id, slot))
        if held is None or held[0] != src:
            holder = "nobody" if held is None else f"compute {held[0]}"
            self._violate(
                WRITE_WITHOUT_LOCK,
                f"vote_write to table {table_id} slot {slot} by compute "
                f"{src} while the lock is held by {holder}",
                compute=src,
                node=node.node_id,
                verb="vote_write",
            )

    def _before_cas(self, node, src: int, args: Tuple) -> None:
        table_id, slot, expected, desired = args
        if expected == 0 or src == self.recovery_id:
            # Fresh acquisition, or recovery's owner-conditioned
            # release/steal — recovery only ever CASes words of
            # coordinators it has just marked failed.
            return
        owner = owner_of(expected)
        if owner == ANONYMOUS_OWNER:
            self._violate(
                STEAL_LIVE_OWNER,
                f"CAS replaces anonymous lock word {expected:#x} on table "
                f"{table_id} slot {slot}; anonymous locks carry no owner id "
                "and can never be proven stray (§3.1.1)",
                compute=src,
                node=node.node_id,
                verb="cas_lock",
            )
            return
        if not self._is_failed(owner):
            self._violate(
                STEAL_LIVE_OWNER,
                f"CAS replaces lock of live coordinator {owner} on table "
                f"{table_id} slot {slot} (owner not in the failed-ids "
                "bitset, §3.1.2)",
                compute=src,
                node=node.node_id,
                verb="cas_lock",
            )

    def _before_write_lock(self, node, src: int, args: Tuple) -> None:
        table_id, slot, word = args
        if word != 0:
            self._violate(
                LOCK_OVERWRITE,
                f"direct write of nonzero lock word {word:#x} to table "
                f"{table_id} slot {slot}; locks are acquired by CAS only",
                compute=src,
                node=node.node_id,
                verb="write_lock",
            )
            return
        held = self._locks.get((table_id, slot))
        if held is not None and src != self.recovery_id and held[0] != src:
            self._violate(
                UNLOCK_BY_NON_OWNER,
                f"compute {src} releases table {table_id} slot {slot} held by "
                f"compute {held[0]} (word {held[1]:#x}) — complicit abort "
                "(Table 1 C1)",
                compute=src,
                node=node.node_id,
                verb="write_lock",
            )

    def _before_write_object(self, node, src: int, args: Tuple) -> None:
        if src == self.recovery_id:
            return  # recovery's roll-forward/back repairs are exempt
        table_id, slot, version = args[0], args[1], args[2]
        held = self._locks.get((table_id, slot))
        if held is None or held[0] != src:
            holder = "nobody" if held is None else f"compute {held[0]}"
            self._violate(
                WRITE_WITHOUT_LOCK,
                f"write_object to table {table_id} slot {slot} by compute "
                f"{src} while the lock is held by {holder}",
                compute=src,
                node=node.node_id,
                verb="write_object",
            )
            return
        current = node.tables[table_id][slot].version
        if version > current and not self._has_landed_record(
            held[1], table_id, slot, version
        ):
            # Version-advancing writes must be durably logged first;
            # undo writes (restoring an old image) are exempt — their
            # log regions may have died with the memory node.
            self._violate(
                WRITE_WITHOUT_LOG,
                f"commit write of table {table_id} slot {slot} version "
                f"{version} with no valid landed undo record covering it "
                "(§3.1.5: log before any in-place update)",
                compute=src,
                node=node.node_id,
                verb="write_object",
            )

    def _before_write_log(self, node, src: int, args: Tuple) -> None:
        record = args[0]
        if record.txn_id == _LOCK_INTENT_TXN:
            return  # tradlog lock-intent records precede the CAS by design
        for entry in record.entries:
            if len(entry) < 5:
                continue
            table_id, slot = entry[0], entry[1]
            held = self._locks.get((table_id, slot))
            if held is None or held[0] != src:
                holder = "nobody" if held is None else f"compute {held[0]}"
                self._violate(
                    LOG_WITHOUT_LOCK,
                    f"undo record of txn {record.txn_id} covers table "
                    f"{table_id} slot {slot} which is held by {holder}, not "
                    f"by issuer compute {src} (lock-to-log order, §3.1.5)",
                    compute=src,
                    node=node.node_id,
                    verb="write_log",
                )
                return

    # -- per-kind rule tables: a verb kind absent from a hook's table
    # has no rule there (every read; most kinds on the post side) ------------

    _POST_RULES = {
        "write_log": _post_write_log,
        "invalidate_log": _post_invalidate_log,
        "truncate_log_region": _post_truncate,
        "write_object": _post_write,
        "vote_write": _post_write,
        "write_lock": _post_write_lock,
    }
    _BEFORE_RULES = {
        "cas_lock": _before_cas,
        "write_lock": _before_write_lock,
        "write_object": _before_write_object,
        "vote_write": _before_vote_write,
        "write_log": _before_write_log,
    }
    _AFTER_RULES = {
        "cas_lock": _after_cas,
        "write_lock": _after_write_lock,
        "faa_ticket": _after_faa_ticket,
        "cancel_ticket": _after_cancel_ticket,
        "write_log": _after_write_log,
    }
