"""Replica placement via consistent hashing.

The paper statically partitions data across memory servers with
consistent hashing (§3.2.5), so that when a memory server fails, the
new primary for each affected object is computed *deterministically*
by every compute server from the same metadata, without resizing or
coordination.

We hash partitions (not individual keys) onto a ring of virtual nodes;
each partition's replica list is the first ``replication_degree``
distinct memory nodes clockwise from its point. The *primary* is the
first **alive** node in that list, which is exactly the promotion rule
compute servers apply after a memory failure.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Set, Tuple

__all__ = ["ConsistentHashRing", "Placement"]


def _stable_hash(data: str) -> int:
    """Deterministic across processes (unlike built-in ``hash``)."""
    return int.from_bytes(hashlib.blake2b(data.encode(), digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Classic consistent-hash ring with virtual nodes."""

    def __init__(self, node_ids: Sequence[int], virtual_nodes: int = 64) -> None:
        if not node_ids:
            raise ValueError("ring needs at least one node")
        if virtual_nodes <= 0:
            raise ValueError("virtual_nodes must be positive")
        self.node_ids = list(node_ids)
        self.virtual_nodes = virtual_nodes
        points: List[Tuple[int, int]] = []
        for node_id in node_ids:
            for replica in range(virtual_nodes):
                points.append((_stable_hash(f"node-{node_id}-vn-{replica}"), node_id))
        points.sort()
        self._points = points

    def successors(self, key: str, count: int) -> List[int]:
        """First *count* distinct node ids clockwise from hash(key)."""
        if count > len(self.node_ids):
            raise ValueError(
                f"requested {count} replicas but ring has {len(self.node_ids)} nodes"
            )
        start = _stable_hash(key)
        # Binary search for the first point >= start.
        lo, hi = 0, len(self._points)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._points[mid][0] < start:
                lo = mid + 1
            else:
                hi = mid
        chosen: List[int] = []
        seen: Set[int] = set()
        index = lo
        while len(chosen) < count:
            _point, node_id = self._points[index % len(self._points)]
            if node_id not in seen:
                seen.add(node_id)
                chosen.append(node_id)
            index += 1
        return chosen


class Placement:
    """Maps (table, key slot) -> replica list; primary = first alive.

    Partition count is fixed at build time; keys map to partitions by
    ``slot % partitions``, and partitions map to replica lists through
    the consistent-hash ring. Every compute server holds an identical
    copy of this metadata, so primary promotion after a memory failure
    is deterministic and coordination-free.
    """

    def __init__(
        self,
        memory_node_ids: Sequence[int],
        replication_degree: int,
        partitions: int = 64,
        virtual_nodes: int = 64,
    ) -> None:
        if replication_degree < 1:
            raise ValueError("replication_degree must be >= 1")
        if replication_degree > len(memory_node_ids):
            raise ValueError(
                f"replication degree {replication_degree} exceeds "
                f"{len(memory_node_ids)} memory nodes"
            )
        self.memory_node_ids = list(memory_node_ids)
        self.replication_degree = replication_degree
        self.partitions = partitions
        self._ring = ConsistentHashRing(memory_node_ids, virtual_nodes)
        self._partition_replicas: List[Tuple[int, ...]] = [
            tuple(self._ring.successors(f"partition-{index}", replication_degree))
            for index in range(partitions)
        ]
        self._down: Set[int] = set()
        # coord id -> log_nodes() answer; valid until _down changes.
        self._log_nodes: Dict[int, Tuple[int, ...]] = {}

    def mark_down(self, node_id: int) -> None:
        """Record a memory-server failure (affects primaries)."""
        self._down.add(node_id)
        self._log_nodes.clear()

    def mark_up(self, node_id: int) -> None:
        """Record a memory-server rejoin."""
        self._down.discard(node_id)
        self._log_nodes.clear()

    @property
    def down_nodes(self) -> Set[int]:
        """Ids of memory servers currently marked down."""
        return set(self._down)

    def partition_of(self, table_id: int, slot: int) -> int:
        """Partition index owning (table, slot)."""
        return (slot * 0x9E3779B1 + table_id) % self.partitions

    def replicas(self, table_id: int, slot: int) -> Tuple[int, ...]:
        """Full (static) replica list, including any down nodes."""
        return self._partition_replicas[self.partition_of(table_id, slot)]

    def live_replicas(self, table_id: int, slot: int) -> Tuple[int, ...]:
        """Replica list restricted to live memory servers."""
        return tuple(
            node for node in self.replicas(table_id, slot) if node not in self._down
        )

    def primary(self, table_id: int, slot: int) -> int:
        """First alive replica — the deterministic promotion rule."""
        for node in self.replicas(table_id, slot):
            if node not in self._down:
                return node
        raise RuntimeError(
            f"all replicas of table {table_id} slot {slot} are down "
            f"(more than f failures)"
        )

    def backups(self, table_id: int, slot: int) -> Tuple[int, ...]:
        """Live replicas other than the current primary."""
        primary = self.primary(table_id, slot)
        return tuple(
            node
            for node in self.replicas(table_id, slot)
            if node != primary and node not in self._down
        )

    def log_nodes(self, coord_id: int) -> Tuple[int, ...]:
        """The f+1 fixed log servers for a coordinator (§3.1.4).

        All of a coordinator's transaction logs are gathered in the
        same f+1 memory servers so the recovery coordinator can fetch
        everything with f+1 large reads. When a log server fails, the
        next live ring successor takes its place — the same
        deterministic promotion rule as for data primaries.
        """
        nodes = self._log_nodes.get(coord_id)
        if nodes is None:
            nodes = self._log_nodes[coord_id] = self._derive_log_nodes(coord_id)
        return nodes

    def _derive_log_nodes(self, coord_id: int) -> Tuple[int, ...]:
        candidates = self._ring.successors(
            f"coord-log-{coord_id}", len(self.memory_node_ids)
        )
        live = [node for node in candidates if node not in self._down]
        if not live:
            raise RuntimeError("no live log server remains (more than f failures)")
        # Degraded mode: with f failures and no spare server, fewer
        # than f+1 live log servers remain. Like the data path (the
        # primary promotion rule above), logging continues on the live
        # subset — with reduced fault tolerance — until §3.2.5
        # re-replication restores the degree. Raising here instead
        # killed every in-flight transaction at its log write *after*
        # the lock barrier, leaking locks under live coordinator ids.
        return tuple(live[: self.replication_degree])
