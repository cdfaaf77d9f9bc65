"""Runs one chaos schedule against the fuzz workload and judges it.

The runner builds a cluster, arms every fault in the schedule
(including the *triggered* faults that watch recovery progress), drives
random traffic for the scheduled duration, then forces quiescence:
traffic stops, every armed fault is disarmed, the fabric and the
failure detector are healed, and the simulation runs until no recovery
is in flight and no transaction is mid-protocol. Only then does the
consistency oracle judge the final state — a cluster that *cannot*
reach quiescence (e.g. a recovery claim leaked forever) is itself a
violation (``CHAOS-QUIESCE``).

Everything is derived from the schedule's seed, so a result — including
its state fingerprint — replays bit-identically from the JSON artifact.
"""

from __future__ import annotations

import hashlib

from dataclasses import dataclass, field
from typing import List, Optional

from repro.chaos.oracle import OracleViolation, check_cluster
from repro.chaos.schedule import COMPUTE_NODES, MEMORY_NODES, Schedule
from repro.cluster.builder import Cluster
from repro.cluster.config import ClusterConfig
from repro.litmus.fuzzer import _FuzzWorkload

__all__ = [
    "ChaosResult",
    "ChaosRunner",
    "run_schedule",
]

# Wall-clock guards, in virtual seconds past the schedule's duration.
_QUIESCE_DEADLINE = 60e-3
# After quiescence, in-flight fire-and-forget verbs (lazy log
# invalidations, stray-lock notifications) land within a few RTTs.
_SETTLE_MARGIN = 2e-3

_FINGERPRINT_MASK = (1 << 61) - 1


def _stable_int(value) -> int:
    """Process-stable digest of a non-int slot value (builtin ``hash``
    of strings is PYTHONHASHSEED-dependent)."""
    return int.from_bytes(
        hashlib.blake2b(repr(value).encode(), digest_size=8).digest(), "big"
    )


@dataclass
class ChaosResult:
    """Outcome of one schedule run."""

    schedule: Schedule
    committed: int = 0
    crashes: int = 0
    recovery_kills: int = 0
    redetections: int = 0
    violations: List[OracleViolation] = field(default_factory=list)
    fingerprint: int = 0
    end_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (
            f"chaos[seed={self.schedule.seed} {self.schedule.family}/"
            f"{self.schedule.protocol}] committed={self.committed} "
            f"crashes={self.crashes} rc_kills={self.recovery_kills} "
            f"redetects={self.redetections} "
            f"fp={self.fingerprint:016x}  {verdict}"
        )


class ChaosRunner:
    """Builds a cluster, arms one schedule's faults, runs, judges."""

    def __init__(self, schedule: Schedule, sanitize: bool = False) -> None:
        self.schedule = schedule
        config = ClusterConfig(
            protocol=schedule.protocol,
            memory_nodes=MEMORY_NODES,
            compute_nodes=COMPUTE_NODES,
            coordinators_per_node=3,
            replication_degree=2,
            seed=schedule.seed,
            # Tight detection so recovery happens inside the short run.
            fd_timeout=1e-3,
            fd_heartbeat_interval=0.3e-3,
            fd_check_interval=0.15e-3,
            restart_failed_after=2e-3,
            sanitize=sanitize,
        )
        self.cluster = Cluster(config, _FuzzWorkload(schedule.keys))
        self.history: List = self.cluster.record_history()
        self._baseline_loss = config.network.loss_probability
        self._baseline_jitter = config.network.jitter
        self._blackholed: List[int] = []
        self.recovery_kills = 0

    # -- fault arming --------------------------------------------------------

    def _arm(self) -> None:
        for fault in self.schedule.faults:
            # One applier per FAULT_KINDS entry (checked at load).
            getattr(self, f"_arm_{fault.kind}")(fault)

    def _arm_crash_compute(self, fault) -> None:
        self.cluster.crash_compute(fault.node % COMPUTE_NODES, at=fault.at)

    def _arm_crash_memory(self, fault) -> None:
        self.cluster.crash_memory(fault.node % MEMORY_NODES, at=fault.at)

    def _arm_restore_memory(self, fault) -> None:
        node_id = fault.node % MEMORY_NODES
        self.cluster.sim.call_at(
            fault.at, lambda: self.cluster.restore_memory(node_id)
        )

    def _arm_crash_point(self, fault) -> None:
        self.cluster.injector.crash_on_point(
            fault.node % COMPUTE_NODES, fault.point, nth=fault.nth
        )

    def _arm_net_degrade(self, fault) -> None:
        network_config = self.cluster.config.network

        def degrade() -> None:
            network_config.loss_probability = fault.loss
            network_config.jitter = fault.jitter

        def restore() -> None:
            network_config.loss_probability = self._baseline_loss
            network_config.jitter = self._baseline_jitter

        self.cluster.sim.call_at(max(fault.at, 0.0), degrade)
        self.cluster.sim.call_at(max(fault.at, 0.0) + fault.after, restore)

    def _arm_fd_blackhole(self, fault) -> None:
        node_id = fault.node % COMPUTE_NODES
        self._blackholed.append(node_id)
        self.cluster.sim.call_at(
            fault.at, lambda: self.cluster.fd.blackhole("compute", node_id)
        )
        self.cluster.sim.call_at(
            fault.at + fault.after,
            lambda: self.cluster.fd.heal("compute", node_id),
        )

    def _arm_crash_recovery(self, fault) -> None:
        """Kill the recovery process for *node* mid-recovery, then
        re-trigger recovery after ``restart_after`` (the recovery
        coordinator itself crash-restarting, §3.2.3)."""
        sim = self.cluster.sim
        recovery = self.cluster.recovery
        node_id = fault.node % COMPUTE_NODES

        def watcher():
            # Fine-grained poll: a compute recovery completes in tens
            # of microseconds, so a coarse poll would always miss it.
            deadline = self.schedule.duration + _QUIESCE_DEADLINE
            while not recovery.recovering("compute", node_id):
                if sim.now >= deadline:
                    return
                yield sim.timeout(2e-6)
            yield sim.timeout(fault.after)
            if not recovery.kill_recovery("compute", node_id):
                return
            self.recovery_kills += 1
            yield sim.timeout(fault.restart_after)
            node = self.cluster.compute_nodes[node_id]
            if not node.alive and not recovery.recovering("compute", node_id):
                recovery.handle_compute_failure(node)

        sim.process(watcher(), name=f"chaos-rc-kill-c{node_id}")

    def _arm_crash_memory_during_recovery(self, fault) -> None:
        """Crash a memory node while compute recovery for *node* is in
        flight — the fence/log-read window of §3.2.2."""
        sim = self.cluster.sim
        recovery = self.cluster.recovery
        node_id = fault.node % COMPUTE_NODES
        memory_id = (fault.memory_node or 0) % MEMORY_NODES

        def watcher():
            deadline = self.schedule.duration + _QUIESCE_DEADLINE
            while not recovery.recovering("compute", node_id):
                if sim.now >= deadline:
                    return
                yield sim.timeout(2e-6)
            if fault.after:
                yield sim.timeout(fault.after)
            memory = self.cluster.memory_nodes[memory_id]
            if memory.alive:
                memory.crash()

        sim.process(watcher(), name=f"chaos-mem-kill-m{memory_id}")

    # -- run -----------------------------------------------------------------

    def _quiesce(self) -> Optional[OracleViolation]:
        """Stop traffic and faults, then drain recovery to a fixpoint."""
        cluster = self.cluster
        sim = cluster.sim
        # Disarm everything: no further crash plans fire, the fabric
        # and the detector heal, restarts come back without workers.
        cluster.injector.clear()
        cluster.config.network.loss_probability = self._baseline_loss
        cluster.config.network.jitter = self._baseline_jitter
        for node_id in self._blackholed:
            cluster.fd.heal("compute", node_id)
        cluster._run_coordinator_loops = False
        deadline = sim.now + _QUIESCE_DEADLINE
        while True:
            for node in cluster.compute_nodes.values():
                if node.alive:
                    node.pause()
            cluster.run(until=sim.now + 1e-3)
            busy = cluster.busy()
            if not busy:
                return None
            if sim.now >= deadline:
                return OracleViolation(
                    "CHAOS-QUIESCE",
                    "cluster failed to quiesce within "
                    f"{_QUIESCE_DEADLINE * 1e3:.0f}ms: {busy}",
                )

    def _fingerprint(self) -> int:
        """Order-independent-free digest of the final object state.

        Iterates tables/slots in a fixed order and folds integers only
        (``hash`` of ints is process-stable), so the same seed produces
        the same fingerprint in any interpreter session.
        """
        state = 0

        def fold(*values: int) -> None:
            nonlocal state
            for value in values:
                state = (state * 1000003 + value) & _FINGERPRINT_MASK

        cluster = self.cluster
        for spec in sorted(cluster.catalog.tables.values(), key=lambda s: s.table_id):
            slot_count = cluster.catalog.key_count(spec.table_id)
            for slot in range(slot_count):
                for node_id in sorted(cluster.memory_nodes):
                    memory = cluster.memory_nodes[node_id]
                    if not memory.alive:
                        continue
                    obj = memory.slot(spec.table_id, slot)
                    fold(
                        node_id,
                        obj.version,
                        int(obj.present),
                        obj.value if isinstance(obj.value, int) else _stable_int(obj.value),
                        obj.lock,
                    )
        fold(len(self.history))
        return state

    def run(self) -> ChaosResult:
        schedule = self.schedule
        cluster = self.cluster
        result = ChaosResult(schedule=schedule)
        self._arm()
        cluster.start()
        cluster.run(until=schedule.duration)
        quiesce_violation = self._quiesce()
        # Let fire-and-forget verbs still on the wire (lazy log
        # invalidations, stray-lock notifications) land before judging.
        cluster.run(until=cluster.sim.now + _SETTLE_MARGIN)
        result.end_time = cluster.sim.now
        result.committed = len(self.history)
        result.crashes = len(cluster.injector.crashes)
        result.recovery_kills = self.recovery_kills
        result.redetections = len(cluster.fd.redetections)
        if quiesce_violation is not None:
            result.violations.append(quiesce_violation)
        result.violations.extend(check_cluster(cluster, self.history))
        result.fingerprint = self._fingerprint()
        return result


def run_schedule(schedule: Schedule, sanitize: bool = False) -> ChaosResult:
    """Build a fresh cluster and run *schedule* to a judged result."""
    return ChaosRunner(schedule, sanitize=sanitize).run()
