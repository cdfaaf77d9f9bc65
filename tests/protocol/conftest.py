"""A small rig for protocol-level tests: a view over an unstarted cluster.

An unstarted :class:`~repro.cluster.Cluster` runs no failure detector,
heartbeats or worker loops — tests drive individual transactions through
coordinators directly, which makes interleavings explicit, and
``sim.run()`` drains.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.protocol.types import BugFlags
from repro.workloads import KeyValueTable


class ProtocolRig:
    """Sim + memory nodes + catalog + N compute nodes with coordinators."""

    def __init__(
        self,
        protocol="pandora",  # a zoo name, or a Protocol declaration of the test's own
        bugs: Optional[BugFlags] = None,
        memory_nodes: int = 2,
        compute_nodes: int = 2,
        replication: int = 2,
        keys: int = 64,
        coordinators_per_node: int = 1,
        jitter: float = 0.0,
        sanitize: bool = False,
    ) -> None:
        config = ClusterConfig(
            memory_nodes=memory_nodes,
            compute_nodes=compute_nodes,
            coordinators_per_node=coordinators_per_node,
            replication_degree=replication,
            partitions=16,
            protocol=protocol,
            bugs=bugs,
            max_attempts=1,
            sanitize=sanitize,
        )
        config.network.jitter = jitter
        # Headroom beyond the loaded keys so inserts have free slots.
        table = KeyValueTable("kv", ((k, 0) for k in range(keys)), max_keys=keys + 16)
        self.cluster = cluster = Cluster(config, table)
        self.sim = cluster.sim
        self.network = cluster.network
        self.memory = cluster.memory_nodes
        self.placement = cluster.placement
        self.catalog = cluster.catalog
        self.nodes = list(cluster.compute_nodes.values())
        self.coordinators = cluster.all_coordinators()

    # -- helpers ----------------------------------------------------------------

    def submit(self, coordinator, logic):
        """Start one transaction; returns its Process (an Event)."""
        return coordinator.submit(logic)

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
