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

Hot-path structure (see docs/KERNEL.md): a posted verb is **one
object**, a :class:`WorkRequest`, which is the completion event the
caller waits on *and* the thing the kernel dispatches on both legs — at
the memory node (:meth:`WorkRequest._arrive`) and back at the compute
side (:meth:`WorkRequest._deliver`). Each QP direction is a
:class:`_Channel` that FIFO-serialises arrivals and links back-to-back
work requests due at the same instant into an intrusive chain, so N
pipelined verbs cost one timer-heap entry, not N. Chaining is purely a
scheduling-cost optimisation — the members still run in exactly the
order one kernel entry per delivery would have produced (a chain only
absorbs a work request while no other kernel entry could sort between
them), and ``processed_events`` is compensated so the count stays one
per delivery.
"""

from __future__ import annotations

from types import MethodType
from typing import Any, Callable, Optional, Tuple

from repro.rdma.errors import LinkRevokedError, RemoteNodeDownError
from repro.rdma.network import Network
from repro.sim import Event, Simulator

__all__ = ["QueuePair", "WorkRequest", "VERB_HEADER_BYTES"]

# Approximate wire overhead of a one-sided verb (headers, CRCs).
VERB_HEADER_BYTES = 36


class WorkRequest(Event):
    """One posted verb: the request, and the completion event it becomes.

    The caller of :meth:`QueuePair.post` sees an :class:`Event`. The
    kernel sees bound methods of the same object: ``_arrive`` when the
    request reaches the memory node, ``_deliver`` when the response
    reaches the compute side. ``_next`` links the work requests that
    share one kernel entry (see :class:`_Channel`); only the head of a
    chain is ever on the kernel queue.

    ``posted_at`` is set only on a QP with an ``Obs`` (which reads it
    for the verb latency), ``flight_token`` only with a flight recorder.
    """

    __slots__ = ("qp", "kind", "args", "signaled", "_next", "posted_at", "flight_token")

    def __init__(self, qp: "QueuePair", kind: str, args: Tuple, signaled: bool) -> None:
        Event.__init__(self, qp.sim)
        self.qp = qp
        self.kind = kind
        self.args = args
        self.signaled = signaled
        self._next: Optional["WorkRequest"] = None

    def _count_chain(self) -> None:
        """A chain is one kernel entry: count its other members too.

        Keeps ``processed_events`` — and an enabled profiler's step
        counter — in delivery units, however deliveries happened to
        chain.
        """
        extra = 0
        verb = self._next
        while verb is not None:
            extra += 1
            verb = verb._next
        sim = self.sim
        sim._processed_events += extra
        profiler = sim.profiler
        if profiler.enabled:
            profiler.steps += extra

    def _arrive(self) -> None:
        """Request leg: execute this chain atomically at the memory node."""
        if self._next is not None:
            self._count_chain()
        qp = self.qp
        memory_node = qp.memory_node
        compute_id = qp.compute_id
        respond = qp._respond
        verb: Optional[WorkRequest] = self
        while verb is not None:
            # The response leg reuses the link, so detach first.
            following, verb._next = verb._next, None
            result, size = None, 0
            if not memory_node.alive:
                error = RemoteNodeDownError(memory_node.node_id)
            elif memory_node.is_revoked(compute_id):
                error = LinkRevokedError(compute_id, memory_node.node_id)
            else:
                error = None
                result, size = memory_node.apply(compute_id, verb.kind, verb.args)
            # No one waits for an unsignaled verb: its event fired at
            # post time, so a refusal is dropped with the response.
            if verb.signaled:
                verb._value = result
                verb._exception = error
                respond(verb, size)
            verb = following

    def _deliver(self) -> None:
        """Response leg: complete this chain, in order, at its due time."""
        if self._next is not None:
            self._count_chain()
        verb: Optional[WorkRequest] = self
        while verb is not None:
            following = verb._next
            verb._run_callbacks()
            verb = following


class _Channel:
    """One direction of a QP: FIFO arrival times, same-instant chaining.

    Arrival times on a channel are monotone (``max(last, now + delay)``),
    so pipelined verbs frequently share one arrival instant. The first
    work request due at an instant is scheduled as a kernel entry; a
    later one due at the same instant is linked behind it instead, as
    long as **no other timer push happened in between** (``sim._seq``
    unchanged) — any intervening push could order between the two at
    that timestamp, so the newcomer conservatively opens a fresh chain.
    Ring appends cannot land at a future timestamp and need no guard.

    ``arrival > now`` is tested first: a chain can only be appended to
    while it is still in the timer heap, never once it has fired (its
    instant is then ``<= now``, which no later arrival can equal).
    """

    __slots__ = ("sim", "network", "_entry", "_last_arrival", "_tail", "_when", "_seq")

    def __init__(
        self, sim: Simulator, network: Network, entry: Callable[[WorkRequest], None]
    ) -> None:
        self.sim = sim
        self.network = network
        self._entry = entry
        self._last_arrival = 0.0
        self._tail: Optional[WorkRequest] = None
        self._when = -1.0
        self._seq = -1

    def send(self, verb: WorkRequest, size: int) -> float:
        """Schedule *verb*'s leg on this channel; returns its arrival time."""
        sim = self.sim
        now = sim.now
        arrival = now + self.network.delay(size + VERB_HEADER_BYTES)
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        else:
            self._last_arrival = arrival
        if arrival > now and arrival == self._when and sim._seq == self._seq:
            self._tail._next = verb
        else:
            sim.call_at(arrival, MethodType(self._entry, verb))
            self._when = arrival
            self._seq = sim._seq
        self._tail = verb
        return arrival


def _present(observer: Optional[Any]) -> Optional[Any]:
    """*observer* if it is a real one; None if absent or a no-op twin."""
    return observer if observer is not None and observer.enabled else None


class QueuePair:
    """One compute-to-memory reliable connection.

    ``profiler``, ``obs``, ``flight`` and ``sanitizer`` are the
    observers this QP has; an absent one is None and is never called.
    """

    __slots__ = (
        "sim",
        "compute_id",
        "memory_node",
        "posted_verbs",
        "profiler",
        "obs",
        "flight",
        "sanitizer",
        "observed",
        "_requests",
        "_responses",
        "_respond",
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
        self.compute_id = compute_id
        self.memory_node = memory_node
        self.posted_verbs = 0
        # Hooks are fixed at construction (the cluster builder wires
        # obs/sanitizer/profiler before any traffic), so who is
        # watching is decided once, per observer. The hooks only wrap
        # the one scheduling path below; they never choose another.
        self.profiler = _present(sim.profiler)
        self.obs = _present(obs)
        self.flight = _present(self.obs.flight) if self.obs is not None else None
        self.sanitizer = _present(sanitizer)
        self._requests = _Channel(sim, network, WorkRequest._arrive)
        self._responses = _Channel(sim, network, WorkRequest._deliver)
        # The sanitizer watches posts (and the memory node), never
        # completions: only a profiler or an Obs wraps the response leg.
        completions_observed = self.profiler is not None or self.obs is not None
        self.observed = completions_observed or self.sanitizer is not None
        self._respond = (
            self._observed_respond if completions_observed else self._responses.send
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
        verb = WorkRequest(self, kind, args, signaled)
        if self.observed:
            self._observed_post(verb, request_size)
        else:
            self._requests.send(verb, request_size)
        if not signaled:
            verb._run_callbacks()
        return verb

    def _observed_post(self, verb: WorkRequest, request_size: int) -> None:
        """The request send, wrapped in the hooks of the observers present."""
        kind, args, node_id = verb.kind, verb.args, self.memory_node.node_id
        now = self.sim.now
        profiler = self.profiler
        # The rdma.post frame also carries the ambient txn-phase tag
        # (asserted by TxnTrace.focus), feeding the per-phase wall-time
        # rollup in `repro perf`.
        if profiler is not None:
            profiler.push("rdma.post", kind)
            profiler.push("shim", "verb-post")
        try:
            try:
                obs = self.obs
                if obs is not None:
                    verb.posted_at = now
                    obs.on_verb_post(kind, node_id, request_size + VERB_HEADER_BYTES)
                    flight = self.flight
                    if flight is not None:
                        # Flight-recorder attribution: a token the
                        # completion fills with the measured latency
                        # (None when the verb is system traffic with no
                        # focused attempt).
                        verb.flight_token = flight.on_post(
                            kind, self.compute_id, node_id, now
                        )
                sanitizer = self.sanitizer
                if sanitizer is not None:
                    sanitizer.on_post(self.compute_id, node_id, kind, args, now)
            finally:
                if profiler is not None:
                    profiler.pop()
            self._requests.send(verb, request_size)
        finally:
            if profiler is not None:
                profiler.pop()

    def _observed_respond(self, verb: WorkRequest, response_size: int) -> None:
        """The response send, wrapped in profiler / obs / flight hooks."""
        profiler = self.profiler
        if profiler is not None:
            profiler.push("rdma.complete", verb.kind)
        try:
            arrival = self._responses.send(verb, response_size)
            obs = self.obs
            if obs is not None:
                latency = arrival - verb.posted_at
                ok = verb._exception is None
                obs.on_verb_complete(
                    verb.kind,
                    self.memory_node.node_id,
                    latency,
                    response_size + VERB_HEADER_BYTES,
                    ok,
                )
                flight = self.flight
                if flight is not None:
                    flight.on_complete(verb.flight_token, latency, ok)
        finally:
            if profiler is not None:
                profiler.pop()
