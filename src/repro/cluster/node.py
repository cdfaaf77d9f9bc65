"""The compute server: coordinators, failed-ids, heartbeats, pausing.

A compute server hosts many transaction coordinators (worker threads),
one shared :class:`~repro.rdma.Verbs` handle, and the node-wide PILL
state — the failed-ids bitset that every lock-conflict check consults
(§3.1.2). Crashing the node kills every coordinator at its current
protocol step; verbs already posted to the network still execute at
the memory side, which is precisely what leaves stray locks behind.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.protocol.locks import ANONYMOUS_OWNER
from repro.sim import Event, Simulator
from repro.util.bitset import Bitset

__all__ = ["ComputeNode"]


class ComputeNode:
    """One compute server in the DKVS."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        verbs,
        catalog,
        faults=None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.verbs = verbs
        self.catalog = catalog
        self.faults = faults
        self.alive = True
        self.paused = False
        self.fenced = False
        self.coordinators: List = []
        # PILL state: coordinator-ids of every recovered-failed
        # coordinator; O(1) membership via a 64K bitset. Sized over the
        # full owner-field range (like IdAllocator.failed, which
        # update_from requires capacity-matching) so any `owner_of`
        # result — including the anonymous sentinel — probes in-range.
        self.failed_ids = Bitset(ANONYMOUS_OWNER + 1)
        self._resume_event: Optional[Event] = None
        self._heartbeat_process = None
        self.crash_time: Optional[float] = None

    # -- coordinator management ------------------------------------------------

    def add_coordinator(self, coordinator) -> None:
        """Attach a coordinator to this compute server."""
        self.coordinators.append(coordinator)

    def coordinator_ids(self) -> List[int]:
        """Coordinator ids currently hosted here."""
        return [coordinator.coord_id for coordinator in self.coordinators]

    def start_coordinators(self, on_commit: Callable[[float], None]) -> None:
        """Start every hosted coordinator worker loop."""
        for coordinator in self.coordinators:
            coordinator.start(on_commit=on_commit)

    # -- failure ---------------------------------------------------------------------

    def crash(self) -> None:
        """Crash-stop: all coordinators die at their current step."""
        if not self.alive:
            return
        self.alive = False
        self.crash_time = self.sim.now
        for coordinator in self.coordinators:
            coordinator.stop()
        if self._heartbeat_process is not None:
            self._heartbeat_process.kill()
            self._heartbeat_process = None

    def on_fenced(self, coordinator) -> None:
        """A coordinator discovered its RDMA rights were revoked (Cor1).

        The node was declared failed (perhaps falsely); it must stop
        issuing transactions immediately — memory will drop everything
        it sends, so continuing is pointless and unsafe.
        """
        self.fenced = True
        self.crash()

    # -- heartbeats ----------------------------------------------------------------------

    def start_heartbeats(
        self,
        network,
        sinks: Iterable[Callable[[str, int, float], None]],
        interval: float,
    ) -> None:
        """Send periodic heartbeats to every failure-detector replica."""
        sinks = list(sinks)

        def loop() -> Generator[Event, Any, None]:
            while self.alive:
                sent_at = self.sim.now
                for sink in sinks:
                    delay = network.delay(64)
                    self.sim.call_at(
                        self.sim.now + delay,
                        lambda s=sink, t=sent_at: s("compute", self.node_id, t),
                    )
                yield self.sim.timeout(interval)

        self._heartbeat_process = self.sim.process(
            loop(), name=f"heartbeat-c{self.node_id}"
        )

    # -- PILL notifications ------------------------------------------------------------------

    def add_failed_ids(self, coord_ids: Iterable[int]) -> None:
        """Stray-lock notification: record newly failed coordinator ids."""
        for coord_id in coord_ids:
            self.failed_ids.add(coord_id)

    # -- pausing (stop-the-world phases) --------------------------------------------------------

    def pause(self) -> None:
        """Enter a stop-the-world phase."""
        if not self.paused:
            self.paused = True
            self._resume_event = Event(self.sim)

    def resume(self) -> None:
        """Leave the stop-the-world phase and wake waiters."""
        if self.paused:
            self.paused = False
            event, self._resume_event = self._resume_event, None
            if event is not None and not event.triggered:
                event.succeed(None)

    def wait_if_paused(self) -> Generator[Event, Any, None]:
        while self.paused and self.alive:
            if self._resume_event is None:  # defensive; pause() sets it
                self._resume_event = Event(self.sim)
            yield self._resume_event

    # -- memory reconfiguration (§3.2.5) ----------------------------------------------------------

    def begin_memory_reconfig(self) -> None:
        """Pause and interrupt undecided transactions so each applies
        the commit/abort decision rule against the new replica set."""
        if not self.alive:
            return
        self.pause()
        for coordinator in self.coordinators:
            engine = coordinator.engine
            if coordinator.process is not None and engine.current_tx is not None:
                # Taking the attempt off current_tx makes this its one
                # interrupt: a second reconfiguration finds nothing.
                engine.current_tx = None
                coordinator.process.interrupt()

    def end_memory_reconfig(self) -> None:
        if self.alive:
            self.resume()
