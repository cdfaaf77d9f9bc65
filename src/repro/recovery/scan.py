"""The one keyspace scanner, and the one way to release an observed word.

Three callers walk every slot of the store looking at lock words: the
Baseline's quiesced recovery scan (§3.1.1 / §6.1), vote1pc's
dead-owner scan, and background coordinator-id recycling (§3.1.2).
They differ only in what a chunk costs in virtual time and in what
they do with a locked word.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Iterable

from repro.rdma.errors import RdmaError
from repro.sim import Event, Simulator

__all__ = ["scan_locks", "release_word"]

#: Slots read per ``scan_chunk`` verb.
SCAN_CHUNK_SLOTS = 512


def release_word(
    verbs, tally, node_id: int, table_id: int, slot: int, word: int
) -> Generator[Event, Any, None]:
    """CAS an observed lock word to 0 — a no-op if the lock was released
    (and maybe re-taken by a live transaction) since it was observed."""
    try:
        old = yield verbs.cas_lock(node_id, table_id, slot, word, 0)
    except RdmaError:
        return
    if old == word:
        tally.locks_released += 1


def scan_locks(
    sim: Simulator,
    verbs,
    memory_nodes: Dict[int, Any],
    node_ids: Iterable[int],
    chunk_charge: Callable[[int], float],
    release: Callable[[int, int, int, int], bool],
    tally,
) -> Generator[Event, Any, None]:
    """Read every slot of every table on *node_ids*, a chunk at a time.

    Each chunk first costs ``chunk_charge(slots)`` seconds of virtual
    time; then every locked word in it is shown to ``release(node_id,
    table_id, slot, word)`` and, where that returns true, CAS'd to 0
    before the scan moves on. ``tally.scanned_slots`` and
    ``tally.locks_released`` advance as the scan does.
    """
    for node_id in node_ids:
        for table_id, table in memory_nodes[node_id].tables.items():
            position = 0
            total = len(table)
            while position < total:
                chunk = min(SCAN_CHUNK_SLOTS, total - position)
                yield sim.timeout(chunk_charge(chunk))
                try:
                    locked, position = yield verbs.scan_chunk(
                        node_id, table_id, position, chunk
                    )
                except RdmaError:
                    break
                tally.scanned_slots += chunk
                for slot, word in locked:
                    if release(node_id, table_id, slot, word):
                        yield from release_word(
                            verbs, tally, node_id, table_id, slot, word
                        )
