"""One-sided verb facade used by compute-side code.

Every method posts exactly one verb on the queue pair to the target
memory node and returns the completion :class:`~repro.sim.Event`; the
caller yields on it (or batches several with ``sim.all_of``). Sizes are
accounted so the bandwidth model charges bulk operations (log-region
reads, Baseline scans) realistically.

The compute node can only *read, write, CAS and FAA* remote memory on
the data path; ``ctrl_*`` RPCs exist solely for connection management
and active-link termination, mirroring the paper's assumption of wimpy
memory-side cores (§2.1).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.memory.node import LogRecord, OBJECT_HEADER_BYTES
from repro.obs import NOOP_OBS
from repro.rdma.network import Network
from repro.rdma.qp import QueuePair
from repro.sim import Event, Simulator

__all__ = ["Verbs", "VERB_CATEGORIES"]

# Wimpy-core processing time for a control-plane RPC (setup / revoke).
CTRL_RPC_CPU_SECONDS = 2e-6

# Verb kind → cost category, used by the report layer to group the
# round-trip accounting tables. Every kind a QP can post appears here;
# unknown kinds (future verbs) are reported under "other".
VERB_CATEGORIES = {
    "read_object": "data",
    "read_header": "data",
    "read_headers": "data",
    "cas_lock": "data",
    "write_lock": "data",
    "write_object": "data",
    "faa_ticket": "data",
    "cancel_ticket": "data",
    "vote_write": "data",
    "read_vote": "data",
    "write_log": "log",
    "invalidate_log": "log",
    "read_log_region": "log",
    "truncate_log_region": "log",
    "scan_chunk": "data",
    "ctrl_rpc": "ctrl",
    "ctrl_revoke": "ctrl",
    "ctrl_unrevoke": "ctrl",
    "ctrl_register_log_region": "ctrl",
}


class _QueuePairs(dict):
    """Memory node id -> :class:`QueuePair`. A lookup is one C-level
    dict hit; only a miss runs Python, to name what is missing."""

    __slots__ = ("compute_id",)

    def __init__(self, compute_id: int, pairs: Dict[int, QueuePair]) -> None:
        super().__init__(pairs)
        self.compute_id = compute_id

    def __missing__(self, memory_node_id: int) -> QueuePair:
        raise KeyError(
            f"compute {self.compute_id} has no QP to memory node {memory_node_id}"
        )


class Verbs:
    """Per-compute-node handle over its queue pairs."""

    def __init__(
        self,
        sim: Simulator,
        compute_id: int,
        network: Network,
        memory_nodes: Dict[int, Any],
        obs: Optional[Any] = None,
        sanitizer: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.compute_id = compute_id
        self.network = network
        self.obs = obs if obs is not None else NOOP_OBS
        self.qps: Dict[int, QueuePair] = _QueuePairs(compute_id, {
            node_id: QueuePair(
                sim, network, compute_id, node, obs=self.obs, sanitizer=sanitizer
            )
            for node_id, node in memory_nodes.items()
        })

    # -- data-path verbs -----------------------------------------------------

    def read_object(self, node: int, table: int, slot: int) -> Event:
        """READ the full object (lock, version, present, value)."""
        return self.qps[node].post("read_object", (table, slot), 16)

    def read_header(self, node: int, table: int, slot: int) -> Event:
        """READ only the 16B header (lock word + version)."""
        return self.qps[node].post("read_header", (table, slot), 16)

    def read_headers(self, node: int, addresses: Sequence[Tuple[int, int]]) -> Event:
        """Doorbell-batched header read of several objects on one node."""
        return self.qps[node].post(
            "read_headers", (tuple(addresses),), 16 * len(addresses)
        )

    def cas_lock(
        self, node: int, table: int, slot: int, expected: int, desired: int
    ) -> Event:
        """Atomic compare-and-swap on the object's lock word."""
        return self.qps[node].post("cas_lock", (table, slot, expected, desired), 24)

    def write_lock(self, node: int, table: int, slot: int, word: int) -> Event:
        """WRITE the lock word directly (used for unlock)."""
        return self.qps[node].post("write_lock", (table, slot, word), 16)

    def write_object(
        self,
        node: int,
        table: int,
        slot: int,
        version: int,
        value: Any,
        present: bool = True,
        value_size: int = 8,
        signaled: bool = True,
    ) -> Event:
        """WRITE value + version in place (commit-phase update)."""
        return self.qps[node].post(
            "write_object",
            (table, slot, version, value, present),
            OBJECT_HEADER_BYTES + value_size,
            signaled=signaled,
        )

    def faa_ticket(self, node: int, table: int, slot: int, coord_id: int) -> Event:
        """FAA on the ticket word (LOTUS): take a queue ticket.

        Returns ``(ticket, word)`` — the fetched ticket number and the
        post-FAA lock word; ``ticket < 0`` means the slot carries a
        foreign (non-ticket) lock word and the enqueue was refused.
        """
        return self.qps[node].post("faa_ticket", (table, slot, coord_id), 16)

    def cancel_ticket(self, node: int, table: int, slot: int, ticket: int) -> Event:
        """Withdraw a ticket (bounded-wait abort; LOTUS)."""
        return self.qps[node].post("cancel_ticket", (table, slot, ticket), 16)

    def vote_write(
        self,
        node: int,
        table: int,
        slot: int,
        version: int,
        value: Any,
        present: bool,
        shadow: Tuple,
        value_size: int = 8,
        signaled: bool = True,
    ) -> Event:
        """vote1pc apply: WRITE the new image + the per-slot vote shadow.

        The shadow carries ``(coord_id, txn_id, old_version, old_value,
        old_present, manifest)`` — roughly double the object payload on
        the wire, which is the price of skipping the f+1 log write.
        """
        return self.qps[node].post(
            "vote_write",
            (table, slot, version, value, present, shadow),
            OBJECT_HEADER_BYTES + 2 * value_size + 16 * len(shadow[5]) + 32,
            signaled=signaled,
        )

    def read_vote(self, node: int, table: int, slot: int) -> Event:
        """READ one slot's vote shadow (None when clear); vote1pc recovery."""
        return self.qps[node].post("read_vote", (table, slot), 16)

    # -- log verbs --------------------------------------------------------------

    def write_log(
        self, node: int, record: LogRecord, size_bytes: int, signaled: bool = True
    ) -> Event:
        """Append one (possibly coalesced) undo-log record."""
        return self.qps[node].post("write_log", (record,), size_bytes, signaled=signaled)

    def invalidate_log(
        self, node: int, coord_id: int, record_id: int, signaled: bool = True
    ) -> Event:
        """Flip a single log record's valid bit (abort-path truncation)."""
        return self.qps[node].post(
            "invalidate_log", (coord_id, record_id), 16, signaled=signaled
        )

    def read_log_region(self, node: int, coord_id: int) -> Event:
        """READ a coordinator's entire log region in one large verb."""
        return self.qps[node].post("read_log_region", (coord_id,), 16)

    def truncate_log_region(self, node: int, coord_id: int) -> Event:
        """Invalidate the region header (recovery-side truncation)."""
        return self.qps[node].post("truncate_log_region", (coord_id,), 16)

    # -- scan (Baseline recovery only) -------------------------------------------

    def scan_chunk(self, node: int, table: int, start: int, count: int) -> Event:
        """READ *count* raw slots; returns (locked slot list, next index)."""
        return self.qps[node].post("scan_chunk", (table, start, count), 24)

    # -- control plane -------------------------------------------------------------

    def ctrl_rpc(self, node: int, kind: str, args: Tuple) -> Event:
        """Send a control RPC to the memory node's wimpy core.

        Adds a small CPU-processing delay on top of the network cost:
        memory-side cores are slow, which is precisely why they are
        kept off the data path.
        """
        completion = self.qps[node].post(kind, args, 32)
        delayed = Event(self.sim)

        def relay(event: Event) -> None:
            def fire() -> None:
                if event._exception is not None:
                    delayed.fail(event._exception)
                else:
                    delayed.succeed(event._value)

            self.sim.call_at(self.sim.now + CTRL_RPC_CPU_SECONDS, fire)

        completion.add_callback(relay)
        return delayed

    def revoke_link(self, node: int, target_compute_id: int) -> Event:
        """Active-link termination: revoke *target*'s access (Cor1)."""
        return self.ctrl_rpc(node, "ctrl_revoke", (target_compute_id,))

    def register_log_region(self, node: int, coord_id: int) -> Event:
        return self.ctrl_rpc(node, "ctrl_register_log_region", (coord_id,))

    # -- introspection ----------------------------------------------------------------

    def posted_verb_count(self) -> int:
        """Total verbs posted across the QPs of this node."""
        return sum(qp.posted_verbs for qp in self.qps.values())
