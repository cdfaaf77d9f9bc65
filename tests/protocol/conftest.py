"""A small hand-wired rig for protocol-level tests.

Unlike the full :class:`~repro.cluster.Cluster`, the rig has no failure
detector or workload loop — tests drive individual transactions through
coordinators directly, which makes interleavings explicit.
"""

from __future__ import annotations

import random
from typing import Optional

import pytest

from repro.cluster.node import ComputeNode
from repro.kvs.catalog import Catalog, TableSpec
from repro.kvs.placement import Placement
from repro.memory.node import MemoryNode
from repro.protocol.coordinator import Coordinator, CoordinatorConfig
from repro.protocol.types import BugFlags
from repro.protocol.zoo import ZOO
from repro.rdma.network import Network, NetworkConfig
from repro.rdma.verbs import Verbs
from repro.sim import Simulator


class _NoWorkload:
    """Placeholder workload; rig tests submit transactions directly."""

    def next_transaction(self, rng):  # pragma: no cover - never called
        raise RuntimeError("rig coordinators are driven manually")


class ProtocolRig:
    """Sim + memory nodes + catalog + N compute nodes with coordinators."""

    def __init__(
        self,
        protocol: str = "pandora",
        bugs: Optional[BugFlags] = None,
        memory_nodes: int = 2,
        compute_nodes: int = 2,
        replication: int = 2,
        keys: int = 64,
        coordinators_per_node: int = 1,
        jitter: float = 0.0,
    ) -> None:
        self.sim = Simulator()
        self.network = Network(NetworkConfig(jitter=jitter), random.Random(11))
        self.memory = {i: MemoryNode(i) for i in range(memory_nodes)}
        self.placement = Placement(
            list(self.memory), replication_degree=replication, partitions=16
        )
        self.catalog = Catalog(self.placement)
        # Headroom beyond the loaded keys so inserts have free slots.
        self.catalog.add_table(TableSpec(0, "kv", max_keys=keys + 16, value_size=8))
        self.catalog.provision(self.memory.values())
        self.catalog.load(self.memory, 0, ((k, 0) for k in range(keys)))

        # A zoo name, or a Protocol declaration of the test's own.
        declaration = ZOO[protocol] if isinstance(protocol, str) else protocol
        factory = declaration.engine_factory(bugs)

        self.nodes = []
        self.coordinators = []
        next_coord_id = 0
        for node_id in range(compute_nodes):
            verbs = Verbs(self.sim, node_id, self.network, self.memory)
            node = ComputeNode(self.sim, node_id, verbs, self.catalog)
            self.nodes.append(node)
            for _ in range(coordinators_per_node):
                coordinator = Coordinator(
                    node,
                    next_coord_id,
                    factory,
                    _NoWorkload(),
                    random.Random(1000 + next_coord_id),
                    CoordinatorConfig(max_attempts=1),
                )
                next_coord_id += 1
                node.add_coordinator(coordinator)
                self.coordinators.append(coordinator)

    # -- helpers ----------------------------------------------------------------

    def submit(self, coordinator, logic):
        """Start one transaction; returns its Process (an Event)."""
        return self.sim.process(
            coordinator.run_transaction(logic),
            name=f"txn-c{coordinator.coord_id}",
        )

    def run_txn(self, coordinator, logic):
        """Run one transaction to completion; returns the outcome."""
        process = self.submit(coordinator, logic)
        self.sim.run()
        return process.value

    def value_at(self, key: int, memory_node: Optional[int] = None):
        slot = self.catalog.slot_for(0, key)
        node_id = (
            memory_node
            if memory_node is not None
            else self.placement.primary(0, slot)
        )
        return self.memory[node_id].slot(0, slot).value

    def slot_state(self, key: int, memory_node: Optional[int] = None):
        slot = self.catalog.slot_for(0, key)
        node_id = (
            memory_node
            if memory_node is not None
            else self.placement.primary(0, slot)
        )
        return self.memory[node_id].slot(0, slot)

    def replica_values(self, key: int):
        slot = self.catalog.slot_for(0, key)
        return [
            self.memory[node].slot(0, slot).value
            for node in self.placement.replicas(0, slot)
        ]


@pytest.fixture
def rig_factory():
    return ProtocolRig
