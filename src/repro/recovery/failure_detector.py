"""Heartbeat-based failure detection (§3.2.2 step 1, §3.2.4).

Compute and memory nodes send periodic heartbeats; the detector scans
its last-seen tables every ``check_interval`` and declares a node
failed once its heartbeat is older than ``timeout`` (5 ms in the
paper's evaluation). False positives are possible and allowed —
active-link termination (Cor1) makes them safe, and the detector
itself never needs to be perfect, only eventually accurate (partial
synchrony).

The detector is standalone (Figure 4a, one replica) or replicated over
a quorum (Figure 4b, ZooKeeper in the paper): every replica keeps its
own last-heartbeat table, nodes heartbeat all of them, a node is
declared failed once a **majority** has timed it out, and the decision
is committed to the quorum (``agreement_delay``) before recovery acts
on it — with three replicas the paper still recovers in under 20 ms.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.obs import NOOP_OBS
from repro.recovery.idalloc import IdAllocator
from repro.sim import Event, Simulator

__all__ = ["FailureDetector"]


class FailureDetector:
    """Heartbeat failure detector over ``replicas`` last-seen tables."""

    #: Quiet period after a declaration before a dead compute node whose
    #: recovery died mid-flight is declared again (§3.2.2 step-1 rerun).
    REDETECT_INTERVAL = 2e-3

    def __init__(
        self,
        sim: Simulator,
        id_allocator: Optional[IdAllocator] = None,
        timeout: float = 5e-3,
        check_interval: float = 0.5e-3,
        replicas: int = 1,
        agreement_delay: float = 0.0,
    ) -> None:
        if timeout <= 0 or check_interval <= 0:
            raise ValueError("timeout and check_interval must be positive")
        if replicas < 1 or replicas % 2 == 0:
            raise ValueError("replica count must be a positive odd number")
        if agreement_delay < 0:
            raise ValueError("agreement_delay must be non-negative")
        self.sim = sim
        self.id_allocator = id_allocator or IdAllocator()
        self.timeout = timeout
        self.check_interval = check_interval
        self.replicas = replicas
        self.agreement_delay = agreement_delay
        self.recovery_manager = None  # wired by the cluster builder
        self.obs = NOOP_OBS  # wired by the cluster builder
        # One last-heartbeat table per replica.
        self._last_heartbeat: List[Dict[Tuple[str, int], float]] = [
            {} for _ in range(replicas)
        ]
        self._last_declared: Dict[Tuple[str, int], float] = {}
        self._registered: Dict[Tuple[str, int], Any] = {}
        self._suspected: Set[Tuple[str, int]] = set()
        # Heartbeats from these keys are dropped on arrival (a network
        # partition between the node and the detector).
        self._blackholed: Set[Tuple[str, int]] = set()
        self.detections: List[Tuple[float, str, int]] = []
        # Subset of detections that were *re*-declarations of an
        # already-suspected node (the §3.2.2 step-1 rerun); the chaos
        # campaign and the evaluation report surface this count.
        self.redetections: List[Tuple[float, str, int]] = []
        self._process = None

    # -- registration ----------------------------------------------------------

    def allocate_coordinator_id(self) -> int:
        """Serialized id allocation at coordinator spawn (§3.1.2)."""
        return self.id_allocator.allocate()

    def register(self, kind: str, node) -> None:
        """Track *node* ('compute' or 'memory') from now on."""
        key = (kind, node.node_id)
        self._registered[key] = node
        for table in self._last_heartbeat:
            table[key] = self.sim.now
        self._suspected.discard(key)

    # -- heartbeat ingestion ------------------------------------------------------

    def heartbeat_sinks(self) -> List[Callable[[str, int, float], None]]:
        """One sink per replica; a node sends each heartbeat to all.

        A heartbeat can reach some replicas and not others (each sink
        call pays its own network delay), which is the false-negative
        scenario replication defends against.
        """
        return [partial(self._heartbeat, table) for table in self._last_heartbeat]

    def _heartbeat(
        self, table: Dict[Tuple[str, int], float], kind: str, node_id: int, sent_at: float
    ) -> None:
        """Record a heartbeat arrival for (kind, node) at one replica."""
        profiler = self.sim.profiler
        profiler.push("fd", "heartbeat")
        try:
            key = (kind, node_id)
            if key in self._registered and key not in self._blackholed:
                table[key] = self.sim.now
        finally:
            profiler.pop()

    # -- partitions (false-positive injection) ---------------------------------

    def blackhole(self, kind: str, node_id: int) -> None:
        """Drop subsequent heartbeats from (kind, node).

        Models a network partition between a *healthy* node and the
        detector: once ``timeout`` elapses the node is declared failed
        even though it is still running — the FD false positive the
        paper explicitly allows (§3.2.2; Cor1 makes it safe). Chaos
        schedules use this to manufacture false positives at an exact
        virtual time instead of hoping a loss spike lines up.
        """
        self._blackholed.add((kind, node_id))

    def heal(self, kind: str, node_id: int) -> None:
        """Deliver heartbeats from (kind, node) again."""
        self._blackholed.discard((kind, node_id))

    # -- detection loop --------------------------------------------------------------

    def start(self) -> None:
        """Start the periodic detection loop."""
        self._process = self.sim.process(self._run(), name="failure-detector")

    def stop(self) -> None:
        """Stop the detection loop."""
        if self._process is not None:
            self._process.kill()
            self._process = None

    def _run(self) -> Generator[Event, Any, None]:
        majority = self.replicas // 2 + 1
        tables = self._last_heartbeat
        while True:
            yield self.sim.timeout(self.check_interval)
            now = self.sim.now
            for key, node in list(self._registered.items()):
                if key in self._suspected:
                    continue
                timed_out = 0
                for table in tables:
                    if now - table[key] > self.timeout:
                        timed_out += 1
                if timed_out >= majority:
                    self._suspected.add(key)
                    yield from self._declare_failed(key, node)
            yield from self._redetect_pass()

    def _redetect_pass(self) -> Generator[Event, Any, None]:
        """Re-declare dead compute nodes whose recovery never finished.

        A node stays in ``_suspected`` once declared, so a recovery
        process that crashes mid-flight (the RC itself failing) would
        leave the node down with its coordinator ids never marked
        failed — permanently, since nothing declares it again. A
        candidate for re-declaration must be: actually dead (never a
        false positive — the node would heartbeat), not currently being
        recovered, with its latest recovery unfinished, and quiet for
        ``REDETECT_INTERVAL`` since the last declaration. Only a killed
        recovery leaves a node in that state, so a run that kills none
        never re-declares; a fresh recovery starts over from scratch,
        which is safe because every step is idempotent (§3.2.3). (The
        failed-ids bitset is no such witness: the id recycler clears a
        recovered node's ids while the node is still down.)
        """
        manager = self.recovery_manager
        if manager is None:
            return
        now = self.sim.now
        for key in sorted(self._suspected):
            kind, node_id = key
            if kind != "compute":
                continue
            node = self._registered.get(key)
            if node is None or node.alive:
                continue
            if manager.recovering(kind, node_id) or manager.recovered(kind, node_id):
                continue
            if now - self._last_declared.get(key, 0.0) < self.REDETECT_INTERVAL:
                continue
            self.redetections.append((now, kind, node_id))
            self.obs.tracer.instant(
                "recovery", "redetect", now, pid=node_id, args={"kind": kind}
            )
            self.obs.metrics.inc("fd.redetections", kind=kind)
            yield from self._declare_failed(key, node)

    def _declare_failed(self, key, node) -> Generator[Event, Any, None]:
        """Commit the suspicion to the quorum, then hand it to the
        recovery manager."""
        if self.agreement_delay:
            yield self.sim.timeout(self.agreement_delay)
        kind, node_id = key
        self._last_declared[key] = self.sim.now
        self.detections.append((self.sim.now, kind, node_id))
        # The heartbeat-miss window: silence from the latest heartbeat
        # any replica saw until the detector declared the node failed.
        self.obs.tracer.span(
            "recovery",
            "heartbeat-miss",
            max(table[key] for table in self._last_heartbeat),
            self.sim.now,
            pid=node_id,
            args={"kind": kind},
        )
        self.obs.tracer.instant(
            "recovery", "declare-failed", self.sim.now, pid=node_id,
            args={"kind": kind},
        )
        self.obs.metrics.inc("fd.detections", kind=kind)
        if self.recovery_manager is None:
            return
        if kind == "compute":
            self.recovery_manager.handle_compute_failure(node)
        else:
            self.recovery_manager.handle_memory_failure(node)
