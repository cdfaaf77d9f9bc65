"""Reliable-connection queue pairs.

A queue pair (QP) connects one compute node to one memory node and
delivers posted verbs *in order* — the property FORD and Pandora rely
on to guarantee that a lock CAS lands before the subsequent object read
(§3.1.1, "the role of RDMA").

Execution of a verb happens atomically at the memory node at the
message's arrival event, which is exactly the atomicity unit the NIC
provides for one-sided CAS/FAA. Crashed compute nodes are *not*
special-cased here: requests they posted before dying still land at
memory — this is the mechanism that produces stray locks.

Hot-path structure (see docs/KERNEL.md): each QP direction owns an
:class:`_ArrivalBatch` that coalesces back-to-back deliveries due at
the same arrival timestamp into **one** kernel entry instead of N heap
pushes. Batching is purely a scheduling-cost optimisation — the items
still execute in exactly the order one kernel entry per delivery would
have produced (a batch only absorbs an item while no other kernel entry
could sort between them), and ``processed_events`` is compensated so
the count stays one per delivery.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.analysis import NOOP_SANITIZER
from repro.obs import NOOP_OBS
from repro.rdma.errors import LinkRevokedError, RemoteNodeDownError
from repro.rdma.network import Network
from repro.sim import Event, Simulator

__all__ = ["QueuePair", "VERB_HEADER_BYTES"]

# Approximate wire overhead of a one-sided verb (headers, CRCs).
VERB_HEADER_BYTES = 36


class _ArrivalBatch:
    """Coalesces same-arrival-time deliveries on one FIFO channel.

    A QP direction posts work due at computed arrival times that are
    monotone (FIFO). Pipelined verbs frequently share one arrival
    instant (the ``max(last, ...)`` serialisation), which would cost
    one heap push/pop per delivery. Instead the first delivery at a
    given instant schedules one kernel entry holding a list; subsequent
    same-instant deliveries append to the list as long as **no other
    heap push happened in between** (``sim._seq`` unchanged) — any
    intervening push could order between the batch and the new item at
    that timestamp, so the new item conservatively opens a fresh batch.
    Ring appends cannot land at a future timestamp and need no guard.

    The fired batch bumps ``sim._processed_events`` (and an enabled
    profiler's step counter) by ``len - 1`` so every delivery still
    counts as one processed event.
    """

    __slots__ = ("sim", "items", "when", "seq")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.items: Optional[List[Callable[[], None]]] = None
        self.when = 0.0
        self.seq = -1

    def schedule(self, arrival: float, fn: Callable[[], None]) -> None:
        sim = self.sim
        items = self.items
        if items is not None and arrival == self.when and sim._seq == self.seq:
            items.append(fn)
            return
        if arrival <= sim.now:
            # Due immediately (zero-latency networks in unit tests):
            # no batching window exists, schedule directly.
            sim.call_at(arrival, fn)
            return
        items = [fn]
        self.items = items
        self.when = arrival

        def fire(self=self, items=items, sim=sim) -> None:
            if self.items is items:
                self.items = None
            if len(items) == 1:
                items[0]()
                return
            extra = len(items) - 1
            sim._processed_events += extra
            profiler = sim.profiler
            if profiler.enabled:
                # Keep the profiler's step counter in delivery units
                # too, so profiled events/sec stays comparable.
                profiler.steps += extra
            for fn in items:
                fn()

        sim.call_at(arrival, fire)
        self.seq = sim._seq


class QueuePair:
    """One compute-to-memory reliable connection."""

    __slots__ = (
        "sim",
        "network",
        "compute_id",
        "memory_node",
        "_last_request_arrival",
        "_last_response_arrival",
        "posted_verbs",
        "obs",
        "sanitizer",
        "_requests",
        "_responses",
        "_instrumented",
    )

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        compute_id: int,
        memory_node: Any,
        obs: Optional[Any] = None,
        sanitizer: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.compute_id = compute_id
        self.memory_node = memory_node
        self._last_request_arrival = 0.0
        self._last_response_arrival = 0.0
        self.posted_verbs = 0
        # Observability hooks; the no-op singleton keeps the disabled
        # path at one attribute lookup + one empty call per verb.
        self.obs = obs if obs is not None else NOOP_OBS
        # PILL sanitizer hook (repro.analysis), same no-op pattern.
        self.sanitizer = sanitizer if sanitizer is not None else NOOP_SANITIZER
        self._requests = _ArrivalBatch(sim)
        self._responses = _ArrivalBatch(sim)
        # Hooks are fixed at construction (the cluster builder wires
        # obs/sanitizer/profiler before any traffic), so the no-op case
        # is decided once: when every hook is the disabled singleton the
        # post path skips even the empty calls. Instrumented and fast
        # paths schedule identically, so virtual time cannot diverge.
        self._instrumented = (
            sim.profiler.enabled
            or self.obs is not NOOP_OBS
            or self.sanitizer is not NOOP_SANITIZER
        )

    def post(
        self,
        kind: str,
        args: Tuple,
        request_size: int,
        signaled: bool = True,
    ) -> Event:
        """Post a one-sided verb; returns its completion event.

        The request arrives at the memory node after the network delay
        (FIFO-ordered within this QP), executes atomically there, and
        the completion fires back at the compute side one more delay
        later.

        ``signaled=False`` models unsignaled work requests: the verb
        still executes remotely but the returned event fires
        immediately at post time (the coordinator does not wait for
        it). FORD posts its background undo-log writes unsignaled.
        """
        self.posted_verbs += 1
        if self._instrumented:
            return self._post_instrumented(kind, args, request_size, signaled)

        # -- fast path: no profiler, no obs, no sanitizer ----------------
        sim = self.sim
        arrival = sim.now + self.network.delay(request_size + VERB_HEADER_BYTES)
        last = self._last_request_arrival
        if arrival < last:
            arrival = last
        self._last_request_arrival = arrival
        memory_node = self.memory_node
        compute_id = self.compute_id

        if not signaled:
            def execute_unsignaled() -> None:
                if memory_node.alive and not memory_node.is_revoked(compute_id):
                    memory_node.apply(compute_id, kind, args)

            self._requests.schedule(arrival, execute_unsignaled)
            done = Event(sim)
            done.finish_now(None)
            return done

        completion = Event(sim)

        def execute() -> None:
            if not memory_node.alive:
                self._respond(completion, None, RemoteNodeDownError(memory_node.node_id), 0)
                return
            if memory_node.is_revoked(compute_id):
                self._respond(
                    completion, None, LinkRevokedError(compute_id, memory_node.node_id), 0
                )
                return
            result, response_size = memory_node.apply(compute_id, kind, args)
            self._respond(completion, result, None, response_size)

        self._requests.schedule(arrival, execute)
        return completion

    def _respond(
        self,
        completion: Event,
        result: Any,
        error: Optional[Exception],
        response_size: int,
    ) -> None:
        """Fast-path response leg: delay, FIFO-serialise, deliver."""
        sim = self.sim
        arrival = sim.now + self.network.delay(response_size + VERB_HEADER_BYTES)
        last = self._last_response_arrival
        if arrival < last:
            arrival = last
        self._last_response_arrival = arrival
        self._responses.schedule(
            arrival, lambda: completion.finish_now(result, error)
        )

    # -- instrumented twin (profiler frames + obs + sanitizer hooks) ------

    def _post_instrumented(
        self,
        kind: str,
        args: Tuple,
        request_size: int,
        signaled: bool,
    ) -> Event:
        posted_at = self.sim.now
        profiler = self.sim.profiler
        # The rdma.post frame also carries the ambient txn-phase tag
        # (asserted by TxnTrace.focus), feeding the per-phase wall-time
        # rollup in `repro perf`.
        profiler.push("rdma.post", kind)
        try:
            return self._post_inner(kind, args, request_size, signaled, posted_at, profiler)
        finally:
            profiler.pop()

    def _post_inner(
        self,
        kind: str,
        args: Tuple,
        request_size: int,
        signaled: bool,
        posted_at: float,
        profiler: Any,
    ) -> Event:
        profiler.push("shim", "verb-post")
        try:
            self.obs.on_verb_post(
                kind,
                self.compute_id,
                self.memory_node.node_id,
                request_size + VERB_HEADER_BYTES,
                posted_at,
            )
            # Flight-recorder attribution: returns a token the completion
            # path fills with the measured latency (None when disabled or
            # the verb is system traffic with no focused attempt).
            flight_token = self.obs.flight.on_post(
                kind, self.compute_id, self.memory_node.node_id, posted_at, args
            )
            self.sanitizer.on_post(
                self.compute_id, self.memory_node.node_id, kind, args, posted_at
            )
        finally:
            profiler.pop()
        arrival = max(
            self._last_request_arrival,
            self.sim.now + self.network.delay(request_size + VERB_HEADER_BYTES),
        )
        self._last_request_arrival = arrival
        memory_node = self.memory_node
        compute_id = self.compute_id

        if not signaled:
            # No one waits for an unsignaled verb: execute it at
            # arrival, skip the response path, and hand the caller an
            # already-satisfied event.
            def execute_unsignaled() -> None:
                if memory_node.alive and not memory_node.is_revoked(compute_id):
                    memory_node.apply(compute_id, kind, args)

            self._requests.schedule(arrival, execute_unsignaled)
            done = Event(self.sim)
            done.finish_now(None)
            return done

        completion = Event(self.sim)

        def execute() -> None:
            if not memory_node.alive:
                self._complete(
                    completion,
                    None,
                    RemoteNodeDownError(memory_node.node_id),
                    0,
                    kind,
                    posted_at,
                    flight_token,
                )
                return
            if memory_node.is_revoked(compute_id):
                self._complete(
                    completion,
                    None,
                    LinkRevokedError(compute_id, memory_node.node_id),
                    0,
                    kind,
                    posted_at,
                    flight_token,
                )
                return
            result, response_size = memory_node.apply(compute_id, kind, args)
            self._complete(
                completion, result, None, response_size, kind, posted_at, flight_token
            )

        self._requests.schedule(arrival, execute)
        return completion

    def _complete(
        self,
        completion: Event,
        result: Any,
        error: Optional[Exception],
        response_size: int,
        kind: str = "",
        posted_at: float = 0.0,
        flight_token: Optional[Any] = None,
    ) -> None:
        profiler = self.sim.profiler
        profiler.push("rdma.complete", kind)
        try:
            arrival = max(
                self._last_response_arrival,
                self.sim.now + self.network.delay(response_size + VERB_HEADER_BYTES),
            )
            self._last_response_arrival = arrival
            self.obs.on_verb_complete(
                kind,
                self.memory_node.node_id,
                arrival - posted_at,
                response_size + VERB_HEADER_BYTES,
                error is None,
            )
            self.obs.flight.on_complete(
                flight_token, arrival - posted_at, error is None
            )
        finally:
            profiler.pop()

        def deliver() -> None:
            # finish_now runs waiters synchronously — we are already
            # executing exactly at the completion's due time.
            completion.finish_now(result, error)

        self._responses.schedule(arrival, deliver)
