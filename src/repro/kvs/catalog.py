"""The cluster catalog: table schemas and key -> slot addressing.

Compute servers access objects through their exact remote addresses
(FORD-style address caching keeps the hash-index probe off the common
path). The catalog is the shared, deterministic metadata that maps a
workload key to its slot index and replica set. In the real system it
is materialized from the memory-side hash index; here it is a plain
in-process registry that every compute server reads identically —
the simulation analogue of a warmed address cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Tuple

from repro.kvs.placement import Placement

__all__ = ["TableSpec", "Catalog"]


@dataclass(frozen=True)
class TableSpec:
    """Schema of one table.

    ``max_keys`` bounds the keyspace (including keys inserted during
    the run); slots for insertable keys are pre-addressed, as a hash
    index would pre-own their buckets.
    """

    table_id: int
    name: str
    max_keys: int
    value_size: int

    def __post_init__(self) -> None:
        if self.max_keys <= 0:
            raise ValueError(f"table {self.name!r}: max_keys must be positive")
        if self.value_size <= 0:
            raise ValueError(f"table {self.name!r}: value_size must be positive")


class Catalog:
    """Tables, key addressing, and replica placement in one handle."""

    def __init__(self, placement: Placement) -> None:
        self.placement = placement
        self.tables: Dict[int, TableSpec] = {}
        self.tables_by_name: Dict[str, TableSpec] = {}
        # table id -> value size: what sizing a log record needs.
        self.value_sizes: Dict[int, int] = {}
        self._key_slots: Dict[int, Dict[Hashable, int]] = {}
        self._next_slot: Dict[int, int] = {}

    def add_table(self, spec: TableSpec) -> TableSpec:
        """Register a table schema; ids and names must be unique."""
        if spec.table_id in self.tables:
            raise ValueError(f"duplicate table id {spec.table_id}")
        if spec.name in self.tables_by_name:
            raise ValueError(f"duplicate table name {spec.name!r}")
        self.tables[spec.table_id] = spec
        self.tables_by_name[spec.name] = spec
        self.value_sizes[spec.table_id] = spec.value_size
        self._key_slots[spec.table_id] = {}
        self._next_slot[spec.table_id] = 0
        return spec

    def table(self, name_or_id) -> TableSpec:
        """Look a table up by name or numeric id."""
        if isinstance(name_or_id, str):
            return self.tables_by_name[name_or_id]
        return self.tables[name_or_id]

    # -- addressing -----------------------------------------------------------

    def slot_for(self, table_id: int, key: Hashable) -> int:
        """Dense slot index for *key*, assigned deterministically.

        Assignment order is deterministic because the simulation is
        single-threaded; every compute server observes the same
        mapping, mirroring a shared hash index.
        """
        slots = self._key_slots[table_id]
        slot = slots.get(key)
        if slot is None:
            slot = self._next_slot[table_id]
            if slot >= self.tables[table_id].max_keys:
                raise RuntimeError(
                    f"table {self.tables[table_id].name!r} keyspace exhausted "
                    f"({self.tables[table_id].max_keys} slots)"
                )
            slots[key] = slot
            self._next_slot[table_id] = slot + 1
        return slot

    def known_keys(self, table_id: int) -> List[Hashable]:
        """Every key that has been assigned a slot so far."""
        return list(self._key_slots[table_id])

    def key_count(self, table_id: int) -> int:
        """Number of keys with assigned slots in the table."""
        return self._next_slot[table_id]

    # -- placement shortcuts -----------------------------------------------------

    def replicas(self, table_id: int, slot: int) -> Tuple[int, ...]:
        """Static replica list for (table, slot)."""
        return self.placement.replicas(table_id, slot)

    def primary(self, table_id: int, slot: int) -> int:
        """Current primary memory server for (table, slot)."""
        return self.placement.primary(table_id, slot)

    def backups(self, table_id: int, slot: int) -> Tuple[int, ...]:
        """Live non-primary replicas for (table, slot)."""
        return self.placement.backups(table_id, slot)

    def log_nodes(self, coord_id: int) -> Tuple[int, ...]:
        """The f+1 log servers assigned to this coordinator."""
        return self.placement.log_nodes(coord_id)

    # -- provisioning helpers --------------------------------------------------------

    def provision(self, memory_nodes: Iterable) -> None:
        """Create every table's slot array on every memory node.

        Each replica addresses objects by the same global slot index,
        so each participating node allocates the full slot range for
        tables it can host.
        """
        for node in memory_nodes:
            for spec in self.tables.values():
                if spec.table_id not in node.tables:
                    node.create_table(spec.table_id, spec.max_keys, spec.value_size)

    def load(
        self,
        memory_nodes: Dict[int, Any],
        table_id: int,
        items: Iterable[Tuple[Hashable, Any]],
    ) -> int:
        """Bulk-load key/value pairs into every replica (setup path)."""
        count = 0
        for key, value in items:
            slot = self.slot_for(table_id, key)
            for node_id in self.replicas(table_id, slot):
                memory_nodes[node_id].load_slot(table_id, slot, value)
            count += 1
        return count

    def total_dataset_bytes(self) -> int:
        """Primary-copy dataset size (drives Baseline scan times)."""
        from repro.memory.node import OBJECT_HEADER_BYTES

        return sum(
            self.key_count(spec.table_id) * (OBJECT_HEADER_BYTES + spec.value_size)
            for spec in self.tables.values()
        )
