"""Heartbeat-based failure detection (§3.2.2 step 1, §3.2.4).

Compute and memory nodes send periodic heartbeats; the detector scans
its last-seen table every ``check_interval`` and declares a node failed
once its heartbeat is older than ``timeout`` (5 ms in the paper's
evaluation). False positives are possible and allowed — active-link
termination (Cor1) makes them safe, and the detector itself never
needs to be perfect, only eventually accurate (partial synchrony).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.obs import NOOP_OBS
from repro.recovery.idalloc import IdAllocator
from repro.sim import Event, Simulator

__all__ = ["FailureDetector"]


class FailureDetector:
    """Standalone heartbeat failure detector (Figure 4a)."""

    #: How many replicas of the detector state exist (1 = standalone).
    replica_count = 1

    def __init__(
        self,
        sim: Simulator,
        id_allocator: Optional[IdAllocator] = None,
        timeout: float = 5e-3,
        check_interval: float = 0.5e-3,
        redetect_interval: Optional[float] = None,
    ) -> None:
        if timeout <= 0 or check_interval <= 0:
            raise ValueError("timeout and check_interval must be positive")
        if redetect_interval is not None and redetect_interval <= 0:
            raise ValueError("redetect_interval must be positive")
        self.sim = sim
        self.id_allocator = id_allocator or IdAllocator()
        self.timeout = timeout
        self.check_interval = check_interval
        # Re-detection (§3.2.2 step 1 rerun): a declared-failed compute
        # node whose recovery *died mid-flight* (the RC itself crashed)
        # is declared again after this much silence, so a fresh
        # recovery starts over — safe because every step is idempotent.
        # None (the default) preserves the historical declare-once
        # behaviour: ``_suspected`` permanently gates re-declaration.
        self.redetect_interval = redetect_interval
        self._last_declared: Dict[Tuple[str, int], float] = {}
        self.recovery_manager = None  # wired by the cluster builder
        self.obs = NOOP_OBS  # wired by the cluster builder
        self._last_heartbeat: Dict[Tuple[str, int], float] = {}
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
        self._last_heartbeat[key] = self.sim.now
        self._suspected.discard(key)

    # -- heartbeat ingestion ------------------------------------------------------

    def heartbeat_sinks(self) -> List[Callable[[str, int, float], None]]:
        """Sinks a node sends heartbeats to (one per FD replica)."""
        return [self.heartbeat]

    def heartbeat(self, kind: str, node_id: int, sent_at: float) -> None:
        """Record a heartbeat arrival for (kind, node)."""
        profiler = self.sim.profiler
        profiler.push("fd", "heartbeat")
        try:
            key = (kind, node_id)
            if key in self._registered and key not in self._blackholed:
                self._last_heartbeat[key] = self.sim.now
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
        while True:
            yield self.sim.timeout(self.check_interval)
            now = self.sim.now
            for key, node in list(self._registered.items()):
                if key in self._suspected:
                    continue
                if now - self._last_heartbeat[key] > self.timeout:
                    self._suspected.add(key)
                    yield from self._declare_failed(key, node)
            yield from self._redetect_pass()

    def _redetect_pass(self) -> Generator[Event, Any, None]:
        """Re-declare dead compute nodes whose recovery never finished.

        A node stays in ``_suspected`` forever once declared; without
        re-detection, a recovery process that crashes mid-flight (the
        RC itself failing) leaves the node down with its coordinator
        ids never marked failed — permanently, since nothing declares
        it again. A candidate for re-declaration must be: actually dead
        (never a false positive — the node would heartbeat), not
        currently being recovered, with recovery demonstrably
        unfinished (some coordinator id not yet marked failed), and
        quiet for ``redetect_interval`` since the last declaration.
        """
        if self.redetect_interval is None or self.recovery_manager is None:
            return
        now = self.sim.now
        for key in sorted(self._suspected):
            kind, _node_id = key
            if kind != "compute":
                continue
            node = self._registered.get(key)
            if node is None or node.alive:
                continue
            if self.recovery_manager.recovering(kind, _node_id):
                continue
            if now - self._last_declared.get(key, 0.0) < self.redetect_interval:
                continue
            coord_ids = node.coordinator_ids()
            if all(cid in self.id_allocator.failed for cid in coord_ids):
                continue
            self.redetections.append((now, kind, _node_id))
            self.obs.tracer.instant(
                "recovery", "redetect", now, pid=_node_id, args={"kind": kind}
            )
            self.obs.metrics.inc("fd.redetections", kind=kind)
            yield from self._declare_failed(key, node)

    def _declare_failed(self, key, node) -> Generator[Event, Any, None]:
        """Hand a suspicion to the recovery manager.

        Subclasses insert the quorum-agreement delay here (Figure 4b).
        """
        kind, node_id = key
        self._last_declared[key] = self.sim.now
        self.detections.append((self.sim.now, kind, node_id))
        # The heartbeat-miss window: silence from the last heartbeat
        # until the detector declared the node failed.
        self.obs.tracer.span(
            "recovery",
            "heartbeat-miss",
            self._last_heartbeat.get(key, self.sim.now),
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
        # Make this a generator even when no delay is inserted.
        if False:  # pragma: no cover - generator marker
            yield
