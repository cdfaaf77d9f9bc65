"""Builds and runs a complete simulated DKVS deployment.

The :class:`Cluster` wires together every substrate: the simulation
kernel, the RDMA fabric, memory servers, the catalog/placement
metadata, compute servers with their coordinators, the failure
detector, the recovery manager, and the fault injector. It is the
single entry point the examples, tests, and the benchmark harness use.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.cluster.config import ClusterConfig
from repro.cluster.node import ComputeNode
from repro.faults.injector import FaultInjector
from repro.kvs.catalog import Catalog
from repro.kvs.placement import Placement
from repro.memory.node import MemoryNode
from repro.obs import NOOP_OBS
from repro.protocol.coordinator import Coordinator, CoordinatorConfig, CoordinatorStats
from repro.rdma.network import Network
from repro.rdma.verbs import Verbs
from repro.recovery.distributed_fd import DistributedFailureDetector
from repro.recovery.failure_detector import FailureDetector
from repro.recovery.idalloc import IdAllocator
from repro.recovery.manager import RecoveryManager
from repro.recovery.recycler import IdRecycler
from repro.sim import Simulator
from repro.util.stats import ThroughputTimeline

__all__ = ["Cluster"]

# The recovery server borrows a compute identity that no memory node
# will ever revoke (it is not a transaction coordinator host).
RECOVERY_SERVER_ID = 10_000


class Cluster:
    """A fully wired simulated deployment."""

    def __init__(
        self, config: ClusterConfig, workload, obs=None, sanitizer=None, profiler=None
    ) -> None:
        config.validate()
        self.config = config
        # The protocol's declaration — engines and recovery both build
        # from it — and the name reports print for it.
        self.protocol_name, self.protocol = config.resolve_protocol()
        self.workload = workload
        # Observability facade shared by every layer; the no-op default
        # keeps all instrumented hot paths at a single empty call.
        self.obs = obs if obs is not None else NOOP_OBS
        self.sim = Simulator(profiler=profiler)
        self.rng = random.Random(config.seed)
        self.network = Network(config.network, random.Random(config.seed + 1))
        # Wall-clock profiler propagation: the network and (enabled)
        # obs facade share the simulator's profiler so Network.delay
        # frames and TxnTrace.focus phase assertions land in one place.
        # NOOP_OBS is slotted and must stay untouched.
        self.network.profiler = self.sim.profiler
        if self.obs.enabled and self.sim.profiler.enabled:
            self.obs.profiler = self.sim.profiler

        # Memory servers.
        self.memory_nodes: Dict[int, MemoryNode] = {
            node_id: MemoryNode(node_id) for node_id in range(config.memory_nodes)
        }

        # Shared metadata.
        self.placement = Placement(
            list(self.memory_nodes),
            replication_degree=config.replication_degree,
            partitions=config.partitions,
        )
        self.catalog = Catalog(self.placement)

        # Schema + data load (setup path, no simulated traffic).
        workload.create_schema(self.catalog)
        self.catalog.provision(self.memory_nodes.values())
        workload.load(self.catalog, self.memory_nodes, random.Random(config.seed + 2))

        # Fault injection.
        self.injector = FaultInjector(self.sim, random.Random(config.seed + 3))

        # Failure detector (+ coordinator-id allocation).
        self.id_allocator = IdAllocator(first_id=config.first_coord_id)
        # Cor4 also pushes the failed-ids bitset to LOTUS lock servers:
        # queue advances consult it to skip dead waiters' tickets.
        for memory in self.memory_nodes.values():
            memory.failed_ids = self.id_allocator.failed
        fd_timing = dict(
            timeout=config.fd_timeout,
            check_interval=config.fd_check_interval,
            redetect_interval=config.fd_redetect_interval,
        )
        if config.distributed_fd:
            self.fd: FailureDetector = DistributedFailureDetector(
                self.sim,
                self.id_allocator,
                replicas=config.fd_replicas,
                agreement_delay=config.fd_agreement_delay,
                **fd_timing,
            )
        else:
            self.fd = FailureDetector(self.sim, self.id_allocator, **fd_timing)
        self.fd.obs = self.obs

        # Optional PILL sanitizer (repro.analysis). Collect mode: buggy
        # protocols must run to completion so litmus/bench report the
        # violations at the end instead of dying on the first one.
        if sanitizer is None and config.sanitize:
            from repro.analysis.sanitizer import PillSanitizer

            sanitizer = PillSanitizer(
                self.memory_nodes,
                failed_ids=self.id_allocator.failed,
                recovery_id=RECOVERY_SERVER_ID,
                sim=self.sim,
                obs=obs,
                strict=False,
            )
        self.sanitizer = sanitizer
        if sanitizer is not None:
            for memory in self.memory_nodes.values():
                memory.sanitizer = sanitizer

        # Recovery manager with its own verbs (dedicated server).
        recovery_verbs = Verbs(
            self.sim, RECOVERY_SERVER_ID, self.network, self.memory_nodes,
            obs=self.obs, sanitizer=sanitizer,
        )
        # Filled below; recovery and the recycler share the dict.
        self.compute_nodes: Dict[int, ComputeNode] = {}
        self.recovery = RecoveryManager(
            self.sim,
            recovery_verbs,
            self.catalog,
            self.network,
            compute_nodes=self.compute_nodes,
            memory_nodes=self.memory_nodes,
            id_allocator=self.id_allocator,
            protocol=self.protocol,
            drain_delay=config.drain_delay,
            restart_hook=self.restart_compute,
            restart_after=config.restart_failed_after,
            obs=self.obs,
        )
        self.fd.recovery_manager = self.recovery
        self.recycler = IdRecycler(
            self.sim,
            recovery_verbs,
            self.catalog,
            self.network,
            memory_nodes=self.memory_nodes,
            compute_nodes=self.compute_nodes,
            id_allocator=self.id_allocator,
        )

        # The committed-history feed; None until record_history().
        self._history: Optional[list] = None

        # Compute servers + coordinators.
        for node_id in range(config.compute_nodes):
            verbs = Verbs(
                self.sim, node_id, self.network, self.memory_nodes,
                obs=self.obs, sanitizer=sanitizer,
            )
            node = ComputeNode(
                self.sim, node_id, verbs, self.catalog, faults=self.injector
            )
            self.compute_nodes[node_id] = node
            self._spawn_coordinators(node)

        # Measurement.
        self.timeline = ThroughputTimeline(window=config.throughput_window)
        self._started = False
        self._run_coordinator_loops = True
        self._retired_stats = CoordinatorStats()

        # Run-level facts the report layer cannot derive from events
        # (a no-op on the disabled obs path).
        self.obs.set_run_meta(
            protocol=self.protocol_name,
            workload=type(workload).__name__,
            seed=config.seed,
            replication_degree=config.replication_degree,
            log_servers=len(self.catalog.log_nodes(0)),
            memory_nodes=config.memory_nodes,
            compute_nodes=config.compute_nodes,
            coordinators_per_node=config.coordinators_per_node,
        )

    # -- construction helpers ---------------------------------------------------

    def _spawn_coordinators(self, node: ComputeNode) -> None:
        config = self.config
        factory = self.protocol.engine_factory(config.bugs)
        coordinator_config = CoordinatorConfig(
            max_attempts=config.max_attempts,
            abandon_on_conflict=config.abandon_on_conflict,
            nvm_flush=(config.persistence == "nvm-flush"),
        )
        for _ in range(config.coordinators_per_node):
            coord_id = self.fd.allocate_coordinator_id()
            coordinator = Coordinator(
                node,
                coord_id,
                factory,
                self.workload,
                random.Random((config.seed << 20) ^ (coord_id * 2654435761)),
                coordinator_config,
            )
            coordinator.history_sink = self._history
            node.add_coordinator(coordinator)

    # -- lifecycle --------------------------------------------------------------------

    def start(self, run_coordinators: bool = True) -> None:
        """Start heartbeats, the detector, and every coordinator.

        ``run_coordinators=False`` starts only the failure-detection
        and recovery machinery; callers (e.g. the litmus runner) then
        drive individual transactions through the coordinators.
        """
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        self._run_coordinator_loops = run_coordinators
        for node in self.compute_nodes.values():
            self._join_compute(node)
        for memory in self.memory_nodes.values():
            self._join_memory(memory)
        self.fd.start()
        self._start_recycler_watch()

    def _join_compute(self, node: ComputeNode) -> None:
        """FD tracking, heartbeats and (unless callers drive the
        coordinators themselves) worker loops for a live node."""
        self.fd.register("compute", node)
        node.start_heartbeats(
            self.network, self.fd.heartbeat_sinks(), self.config.fd_heartbeat_interval
        )
        if self._run_coordinator_loops:
            node.start_coordinators(on_commit=self.timeline.record)

    def _start_recycler_watch(self) -> None:
        """Trigger the id-recycling scan past 95% id consumption
        (§3.1.2) — the FD's contingency for long-running systems."""

        def watch():
            active = None
            while True:
                yield self.sim.timeout(5e-3)
                done = active is None or active.triggered
                if done and self.id_allocator.needs_recycling:
                    active = self.recycler.run_once()

        self.sim.process(watch(), name="recycler-watch")

    def _join_memory(self, memory: MemoryNode) -> None:
        self.fd.register("memory", memory)
        sinks = self.fd.heartbeat_sinks()
        interval = self.config.fd_heartbeat_interval

        def loop():
            while memory.alive:
                sent_at = self.sim.now
                for sink in sinks:
                    delay = self.network.delay(64)
                    self.sim.call_at(
                        self.sim.now + delay,
                        lambda s=sink, t=sent_at: s("memory", memory.node_id, t),
                    )
                yield self.sim.timeout(interval)

        self.sim.process(loop(), name=f"heartbeat-m{memory.node_id}")

    def run(self, until: float) -> None:
        """Advance the simulation to absolute virtual time *until*."""
        self.sim.run(until=until)

    # -- failures & restarts ----------------------------------------------------------------

    def crash_compute(self, node_id: int, at: Optional[float] = None) -> None:
        """Crash a compute server now or at a future time."""
        node = self.compute_nodes[node_id]
        if at is None:
            node.crash()
        else:
            self.injector.crash_at(node, at)

    def crash_memory(self, node_id: int, at: Optional[float] = None) -> None:
        """Crash a memory server now or at a future time."""
        node = self.memory_nodes[node_id]
        if at is None:
            node.crash()
        else:
            self.sim.call_at(at, node.crash)

    def restore_memory(self, node_id: int) -> None:
        """Re-add a failed memory server (stop-the-world
        re-replication, §3.2.5)."""
        node = self.memory_nodes[node_id]
        process = self.recovery.restore_memory_node(node)
        if process is None or not self._started:
            return

        def rejoin(_event) -> None:
            # Heartbeats and FD tracking resume only once the node is
            # actually serving again, else it is immediately
            # re-suspected.
            if node.alive:
                self._join_memory(node)

        process.add_callback(rejoin)

    def restart_compute(self, node: ComputeNode) -> None:
        """Bring a crashed compute node back with fresh coordinators.

        The node re-joins with *new* coordinator ids (its old ids stay
        failed forever, §3.1.2) and re-established, un-revoked links.
        """
        if node.alive:
            fenced = any(
                memory.alive and memory.is_revoked(node.node_id)
                for memory in self.memory_nodes.values()
            )
            if not fenced:
                return
            # Falsely-suspected node that stayed idle through its own
            # recovery: it never touched memory, so it never observed
            # the revocation and never crashed itself — but its links
            # are revoked everywhere and its coordinator ids are marked
            # failed, so it can never commit again. Treat the restart
            # as crash + rejoin instead of silently leaving it fenced.
            node.crash()
        if self.recovery.recovering("compute", node.node_id):
            # Recovery is mid-flight for this node; restarting now
            # would race link revocation against the new QPs. Defer.
            self.sim.call_at(
                self.sim.now + 0.5e-3, lambda n=node: self.restart_compute(n)
            )
            return
        for coordinator in node.coordinators:
            self._retired_stats.merge(coordinator.stats)
        for memory in self.memory_nodes.values():
            memory._op_ctrl_unrevoke(RECOVERY_SERVER_ID, (node.node_id,))
        node.alive = True
        node.fenced = False
        node.paused = False
        node.coordinators = []
        # §3.1.2: the FD's initial configuration includes the complete
        # failed-ids list — failures that happened while this node was
        # down must be visible to its fresh coordinators.
        node.failed_ids.update_from(self.id_allocator.failed)
        self._spawn_coordinators(node)
        if self._started:
            self._join_compute(node)

    # -- reporting ----------------------------------------------------------------------------

    def aggregate_stats(self) -> CoordinatorStats:
        """Merged coordinator statistics (incl. retired ones)."""
        total = CoordinatorStats()
        total.merge(self._retired_stats)
        for node in self.compute_nodes.values():
            for coordinator in node.coordinators:
                total.merge(coordinator.stats)
        return total

    def record_history(self) -> list:
        """The one committed-history feed (always the same list).

        From the first call on, every coordinator this cluster has or
        will ever spawn — restarts included — appends the footprint of
        each commit it acknowledges, so the list holds exactly the
        commits ``aggregate_stats()`` counts from then on: what the
        serializability checker and the oracle's durability check
        judge.
        """
        if self._history is None:
            self._history = []
            for coordinator in self.all_coordinators():
                coordinator.history_sink = self._history
        return self._history

    def busy(self) -> str:
        """Why the deployment is not at rest — ``""`` when it is.

        At rest: no recovery in flight, no transaction mid-protocol on
        a live node, no crashed compute node with a coordinator id
        still undetected or mid-recovery, no dead memory node awaiting
        reconfiguration. The chaos quiesce drains to this fixpoint.
        """
        recovering = self.recovery.recovering()
        if recovering:
            return f"recovery in flight for {recovering}"
        failed = self.id_allocator.failed
        for node in self.compute_nodes.values():
            if node.alive:
                for coordinator in node.coordinators:
                    if coordinator.engine.current_tx is not None:
                        return f"coordinator {coordinator.coord_id} is mid-transaction"
            elif any(cid not in failed for cid in node.coordinator_ids()):
                return f"crashed c{node.node_id} holds ids not yet marked failed"
        for memory in self.memory_nodes.values():
            if not memory.alive and memory.node_id not in self.placement.down_nodes:
                return f"dead m{memory.node_id} is not yet reconfigured"
        return ""

    def live_coordinator_count(self) -> int:
        """Coordinators on currently alive nodes."""
        return sum(
            len(node.coordinators)
            for node in self.compute_nodes.values()
            if node.alive
        )

    def all_coordinators(self) -> List[Coordinator]:
        """Every coordinator on every compute node."""
        coordinators = []
        for node in self.compute_nodes.values():
            coordinators.extend(node.coordinators)
        return coordinators
