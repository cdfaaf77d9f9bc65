"""One preloaded table, for scripted runs and for random fuzz traffic.

The litmus runner, the directed scenarios and the mutation harness all
want the same thing from a workload: a single table of 8-byte values
holding a known set of keys, registered in a known order —
``Catalog.slot_for`` hands out slots in call order, and slot numbers
decide primaries and appear in sanitizer violation text. Transactions
then enter through ``Coordinator.submit``.

``FuzzWorkload`` is the same table driven by the coordinator loop with
random transactions; it is the traffic of every chaos run.
"""

from __future__ import annotations

import random
from typing import Any, Hashable, Iterable, Tuple

from repro.kvs.catalog import TableSpec
from repro.workloads.base import Workload

__all__ = ["ABSENT", "FuzzWorkload", "KeyValueTable"]

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


class FuzzWorkload(KeyValueTable):
    """Random single- and multi-key transactions over one table."""

    name = "fuzz"

    def __init__(self, keys: int) -> None:
        super().__init__("kv", ((key, 0) for key in range(keys)), max_keys=keys)
        self.keys = keys

    def next_transaction(self, rng: random.Random):
        kind = rng.random()
        key_a = rng.randrange(self.keys)
        key_b = rng.randrange(self.keys)
        if kind < 0.25:

            def read_pair(tx):
                a = yield from tx.read("kv", key_a)
                b = yield from tx.read("kv", key_b)
                return (a, b)

            return read_pair
        if kind < 0.50:

            def rmw(tx):
                value = yield from tx.read_for_update("kv", key_a)
                tx.write("kv", key_a, (value or 0) + 1)
                return None

            return rmw
        if kind < 0.65:
            stamp = rng.getrandbits(20)

            def blind(tx):
                tx.write("kv", key_a, stamp)
                if key_b != key_a:
                    tx.write("kv", key_b, stamp)
                return None

            return blind
        if kind < 0.80:

            def transfer(tx):
                a = yield from tx.read_for_update("kv", key_a)
                if key_b == key_a:
                    return None
                b = yield from tx.read_for_update("kv", key_b)
                tx.write("kv", key_a, (a or 0) - 1)
                tx.write("kv", key_b, (b or 0) + 1)
                return None

            return transfer
        if kind < 0.95:
            # Read one key, write another — the write-skew shape whose
            # serializability depends on read-set validation.
            def read_a_write_b(tx):
                a = yield from tx.read("kv", key_a)
                if key_b == key_a:
                    return None
                tx.write("kv", key_b, (a or 0) + 1)
                return None

            return read_a_write_b

        def delete_or_revive(tx):
            value = yield from tx.read("kv", key_a)
            if value is None:
                tx.write("kv", key_a, 0)  # revive
            else:
                tx.delete("kv", key_a)
            return None

        return delete_or_revive
