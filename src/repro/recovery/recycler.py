"""Background coordinator-id recycling (§3.1.2 "Recycling coordinator-ids").

The 16-bit id space allows 64K coordinator spawns over the system's
lifetime. When more than 95% of the ids have been consumed, the FD
triggers this background mechanism:

1. **Scan** every memory server and release all remaining stray locks
   owned by failed coordinators, using CAS operations — CAS is
   sufficient to resolve races with in-flight transactions (a
   concurrent PILL steal and the recycler's unlock target the same
   observed word; exactly one wins and both outcomes are safe).
2. **Notify** every compute server to clear the recycled ids from its
   failed-ids bitset, and wait for the acknowledgments — an id must
   not be reusable while any live node could still "steal" locks
   under it.
3. **Return** the ids to the allocator's pool.

Unlike the Baseline's recovery scan this runs concurrently with
transaction processing: nothing is paused.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Set

from repro.protocol.locks import is_locked, owner_of
from repro.recovery.scan import scan_locks
from repro.sim import Event, Simulator

__all__ = ["IdRecycler"]


class IdRecycler:
    """Scans for stray locks and recycles failed coordinator ids."""

    def __init__(
        self,
        sim: Simulator,
        verbs,
        catalog,
        network,
        memory_nodes: Dict[int, Any],
        compute_nodes: Dict[int, Any],
        id_allocator,
    ) -> None:
        self.sim = sim
        self.verbs = verbs
        self.catalog = catalog
        self.network = network
        self.memory_nodes = memory_nodes
        self.compute_nodes = compute_nodes
        self.id_allocator = id_allocator
        self.runs = 0
        self.scanned_slots = 0
        self.locks_released = 0
        self.ids_recycled = 0

    def run_once(self):
        """Start one recycling pass; returns its process (an Event)."""
        return self.sim.process(self._run(), name="id-recycler")

    def _run(self) -> Generator[Event, Any, None]:
        candidates: Set[int] = set(self.id_allocator.failed_ids())
        if not candidates:
            return

        # 1. Scan all memory, releasing stray locks under candidate ids.
        #    Liveness is checked as the scan reaches each node.
        per_slot_rtt = 2 * self.network.config.one_way_latency + 4e-7
        yield from scan_locks(
            self.sim,
            self.verbs,
            self.memory_nodes,
            (nid for nid, memory in self.memory_nodes.items() if memory.alive),
            lambda slots: slots * per_slot_rtt,
            lambda _node, _table, _slot, word: (
                is_locked(word) and owner_of(word) in candidates
            ),
            self,
        )

        # 2. Tell every live compute node to forget these ids, and wait
        #    for all acknowledgments before the ids become reusable.
        pending = [
            node for node in self.compute_nodes.values() if node.alive
        ]
        if pending:
            acks = Event(self.sim)
            remaining = {"count": len(pending)}

            def deliver(node) -> None:
                for coord_id in candidates:
                    node.failed_ids.discard(coord_id)
                # Ack travels back over the network.
                delay = self.network.delay(64)
                self.sim.call_at(self.sim.now + delay, acked)

            def acked() -> None:
                remaining["count"] -= 1
                if remaining["count"] == 0 and not acks.triggered:
                    acks.succeed(None)

            for node in pending:
                delay = self.network.delay(128)
                self.sim.call_at(self.sim.now + delay, lambda n=node: deliver(n))
            yield acks

        # 3. Only now can the ids be handed out again.
        self.ids_recycled += self.id_allocator.recycle(candidates)
        self.runs += 1
