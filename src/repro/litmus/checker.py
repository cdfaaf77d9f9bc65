"""Serializability checking over committed-transaction footprints.

A complement to the application-observable litmus assertions: given the
read/write version footprints of committed transactions (collected via
``Cluster.record_history()`` / ``Coordinator.history_sink``), build the
direct serialization graph and check it for cycles.

Edges follow Adya's dependency taxonomy:

* **wr** (reads-from): T2 read the version T1 installed → T1 → T2.
* **ww** (version order): versions of an object are installed in
  increasing order → writer of v → writer of v' for v < v'.
* **rw** (anti-dependency): T1 read version v and T2 installed v+1 →
  T1 → T2.

A cycle means the committed transactions admit no serial order.

The graph is a plain insertion-ordered adjacency map and the verdict,
the witness and the serial order all come from one depth-first walk
that visits transactions in history order and successors in the order
their edges were first added — so a witness is a function of the
history alone (the golden outcomes record two).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

__all__ = ["SerializabilityChecker", "check_history"]

# History element layout (what Coordinator.on_commit_ack records):
# (txn_id, commit_time, reads, rmw_reads, writes)
# where reads / rmw_reads map (table, slot) -> version observed, and
# writes maps (table, slot) -> version installed.
HistoryEntry = Tuple[int, float, Dict, Dict, Dict]


class SerializabilityChecker:
    """Builds and analyses the direct serialization graph."""

    def __init__(self, history: Iterable[HistoryEntry]) -> None:
        self.history = list(history)
        #: txn id -> {successor txn id: edge kind ("ww" / "wr" / "rw")}.
        self.edges: Dict[int, Dict[int, str]] = {}
        self._build()
        self._cycle, self._order = self._walk()

    def _build(self) -> None:
        edges = self.edges
        # Writers by (object, installed version).
        installer: Dict[Tuple, int] = {}
        # All installed versions per object, with their writers.
        versions: Dict[Tuple, List[Tuple[int, int]]] = {}
        for txn_id, _time, _reads, _rmw, writes in self.history:
            edges.setdefault(txn_id, {})
            for address, version in writes.items():
                installer[(address, version)] = txn_id
                versions.setdefault(address, []).append((version, txn_id))

        # ww edges: install order per object.
        for address, installed in versions.items():
            installed.sort()
            for (v1, t1), (v2, t2) in zip(installed, installed[1:]):
                if t1 != t2:
                    edges[t1][t2] = "ww"

        # wr and rw edges.
        for txn_id, _time, reads, rmw_reads, _writes in self.history:
            observed = dict(reads)
            observed.update(rmw_reads)
            for address, version in observed.items():
                writer = installer.get((address, version))
                if writer is not None and writer != txn_id:
                    edges[writer][txn_id] = "wr"
                # Anti-dependency to the *next* installed version.
                for installed_version, next_writer in versions.get(address, ()):
                    if installed_version > version:
                        if next_writer != txn_id:
                            edges[txn_id][next_writer] = "rw"
                        break

    def _walk(self) -> Tuple[List[Tuple[int, int]], List[int]]:
        """Depth-first over the whole graph: ``(cycle, [])`` at the
        first edge back into the path being explored, else
        ``([], reverse postorder)`` — a topological order."""
        edges = self.edges
        finished: Dict[int, bool] = {}  # absent: unseen; False: on the path
        postorder: List[int] = []
        for root in edges:
            if root in finished:
                continue
            finished[root] = False
            path = [root]
            pending = [iter(edges[root])]
            while pending:
                for successor in pending[-1]:
                    state = finished.get(successor)
                    if state is None:
                        finished[successor] = False
                        path.append(successor)
                        pending.append(iter(edges[successor]))
                        break
                    if not state:
                        walk = path[path.index(successor):] + [successor]
                        return list(zip(walk, walk[1:])), []
                else:
                    pending.pop()
                    node = path.pop()
                    finished[node] = True
                    postorder.append(node)
        postorder.reverse()
        return [], postorder

    def is_serializable(self) -> bool:
        return not self._cycle

    def find_cycle(self) -> List[Tuple[int, int]]:
        """A witness cycle (edge list), or [] when serializable."""
        return list(self._cycle)

    def serial_order(self) -> List[int]:
        """A valid serial order of the committed transactions."""
        if self._cycle:
            raise ValueError("history is not serializable")
        return list(self._order)


def check_history(history: Iterable[HistoryEntry]) -> bool:
    """True iff the committed history is serializable."""
    return SerializabilityChecker(history).is_serializable()
