"""Cluster configuration: one dataclass describing a whole deployment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.protocol.locks import MAX_COORD_ID
from repro.protocol.types import BugFlags
from repro.protocol.zoo import ZOO, Protocol
from repro.rdma.network import NetworkConfig

__all__ = ["ClusterConfig"]

@dataclass
class ClusterConfig:
    """Everything needed to build a simulated DKVS deployment.

    Defaults mirror the paper's testbed topology scaled for
    simulation: 2 memory + 2 compute nodes, a separate failure-detector
    / recovery server, and f+1 = 2 replication.
    """

    # Topology.
    memory_nodes: int = 2
    compute_nodes: int = 2
    coordinators_per_node: int = 8
    replication_degree: int = 2
    partitions: int = 64

    # Protocol: the name of a repro.protocol.zoo.ZOO row, or a
    # declaration of the caller's own (a mutant is a `replace(...)`d
    # row that is in no table); None for `bugs` means that row's own
    # default flags.
    protocol: Union[str, Protocol] = "pandora"
    bugs: Optional[BugFlags] = None

    # Persistence (§7): 'dram' assumes battery-backed DRAM (no flush on
    # the critical path); 'nvm-flush' models FORD's selective one-sided
    # flush — a small read chasing the commit writes on each touched
    # memory node to flush the RNIC cache into NVM before the ack.
    persistence: str = "dram"

    # Networking.
    network: NetworkConfig = field(default_factory=NetworkConfig)

    # Failure detection.
    fd_timeout: float = 5e-3
    fd_heartbeat_interval: float = 1e-3
    fd_check_interval: float = 0.5e-3
    # Detector replicas (1 = standalone, Figure 4a; an odd quorum,
    # Figure 4b) and the quorum-commit delay before each declaration.
    fd_replicas: int = 1
    fd_agreement_delay: float = 0.0

    # Recovery.
    drain_delay: float = 0.5e-3
    # Reuse freed resources: restart a crashed compute node this long
    # after recovery completes (None = never, the "no reuse" curve).
    restart_failed_after: Optional[float] = None

    # Coordinator retry policy.
    max_attempts: int = 64
    abandon_on_conflict: bool = False

    # First coordinator id the allocator hands out (ids below count as
    # consumed). Default 0; boundary tests raise it to place the
    # initial wave hard against MAX_COORD_ID = 0xFFFE and prove the
    # anonymous-owner sentinel is never minted into a lock word.
    first_coord_id: int = 0

    # Determinism.
    seed: int = 42

    # Opt-in PILL protocol sanitizer (repro.analysis): shadow the lock
    # table at the verb layer and record protocol violations. Disabled
    # runs are bit-identical to runs without the sanitizer wired in.
    sanitize: bool = False

    # Measurement.
    throughput_window: float = 1e-3

    def resolve_protocol(self) -> Tuple[str, Protocol]:
        """(the name reports print, the declaration engines build from).

        A ``ZOO`` key prints as itself — ``baseline`` runs the row whose
        engines call themselves ``ford`` — and a declaration prints as
        the name it carries.
        """
        if isinstance(self.protocol, Protocol):
            return self.protocol.name, self.protocol
        if self.protocol not in ZOO:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; expected one of {tuple(ZOO)}"
            )
        return self.protocol, ZOO[self.protocol]

    def validate(self) -> None:
        self.resolve_protocol()
        if self.memory_nodes < 1:
            raise ValueError("need at least one memory node")
        if self.compute_nodes < 1:
            raise ValueError("need at least one compute node")
        if self.coordinators_per_node < 1:
            raise ValueError("need at least one coordinator per node")
        if not 0 <= self.first_coord_id <= MAX_COORD_ID:
            raise ValueError(
                f"first_coord_id {self.first_coord_id} outside 0..{MAX_COORD_ID}"
            )
        initial = self.compute_nodes * self.coordinators_per_node
        if self.first_coord_id + initial > MAX_COORD_ID + 1:
            # Initial ids are allocated strictly serially, so the first
            # wave alone must fit in first_coord_id..MAX_COORD_ID —
            # 0xFFFF is the reserved anonymous-owner sentinel and never
            # handed out.
            raise ValueError(
                f"{initial} initial coordinators starting at id "
                f"{self.first_coord_id} exceed the id space (max id "
                f"{MAX_COORD_ID}; 0xFFFF is reserved as the "
                "anonymous-owner sentinel)"
            )
        if not 1 <= self.replication_degree <= self.memory_nodes:
            raise ValueError(
                f"replication degree {self.replication_degree} must be in "
                f"[1, {self.memory_nodes}]"
            )
        for name in (
            "fd_timeout",
            "fd_heartbeat_interval",
            "fd_check_interval",
            "throughput_window",
        ):
            # A zero period respawns its timer at the same virtual
            # instant forever: the run never advances past it.
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.persistence not in ("dram", "nvm-flush"):
            raise ValueError(
                f"unknown persistence mode {self.persistence!r}; "
                "expected 'dram' or 'nvm-flush'"
            )
