"""One preloaded table for runs whose transactions the caller scripts.

The litmus runner, the directed scenarios, the mutation harness and the
history fuzzer all want the same thing from a workload: a single table
of 8-byte values holding a known set of keys, registered in a known
order — ``Catalog.slot_for`` hands out slots in call order, and slot
numbers decide primaries and appear in sanitizer violation text.
Transactions then enter through ``Coordinator.submit``.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Tuple

from repro.kvs.catalog import TableSpec
from repro.workloads.base import Workload

__all__ = ["ABSENT", "KeyValueTable"]

#: Initial value of a key whose slot is registered but holds no object
#: (insert variants).
ABSENT = object()


class KeyValueTable(Workload):
    """Table 0, named *table*, preloaded with *initial* in order."""

    name = "kv"

    def __init__(
        self, table: str, initial: Iterable[Tuple[Hashable, Any]], max_keys: int
    ) -> None:
        self.table = table
        self.initial = list(initial)
        # Includes headroom for keys first inserted during the run.
        self.max_keys = max_keys

    def create_schema(self, catalog) -> None:
        catalog.add_table(TableSpec(0, self.table, self.max_keys, value_size=8))

    def load(self, catalog, memory_nodes, rng) -> None:
        for key, value in self.initial:
            slot = catalog.slot_for(0, key)
            if value is ABSENT:
                continue
            for node_id in catalog.replicas(0, slot):
                memory_nodes[node_id].load_slot(0, slot, value)

    def next_transaction(self, rng):  # pragma: no cover - caller-driven
        raise RuntimeError("transactions on this table are submitted directly")
