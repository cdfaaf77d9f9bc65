"""Discrete-event simulation kernel.

The kernel drives generator-based *processes* over a virtual clock. A
process is a Python generator that yields :class:`Event` objects; the
kernel resumes the generator when the yielded event fires, sending the
event's value back into the generator (or throwing its exception).

This is a deliberately small SimPy-like core. Everything in the
reproduction — RDMA verbs, coordinators, failure detectors, recovery —
is built as processes on top of it, which gives us two properties the
paper's testbed cannot offer: *determinism* (a seeded run always yields
the same history) and *precise fault placement* (a compute node can be
crashed between any two protocol steps).

Scheduling is split across two queues (see docs/KERNEL.md):

* the **now-ring** — a plain FIFO deque holding every entry due at the
  current virtual time. ``call_soon``/``_post`` (the vast majority of
  traffic: event callbacks, process resumptions, fan-in) append here
  and never touch the heap.
* the **timer heap** — a ``(when, seq, entry)`` heapq holding only
  entries strictly in the future. When the ring drains, the kernel pops
  the earliest timer, advances the clock, and *drains every other timer
  due at that same instant into the ring* so same-timestamp work
  dispatches FIFO without further heap traffic.

The split preserves the exact global ``(when, seq)`` dispatch order a
single heap would give: at the moment the clock advances to ``t`` the
ring is empty and the heap yields the ``t``-entries in seq order; any
entry scheduled *at* ``t`` afterwards appends behind them, which is
where its (larger) seq would have sorted it anyway. The recorded golden
outcomes (``tests/integration/golden``) pin that order end to end.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import attrgetter
from typing import Any, Callable, Generator, Iterable, List, Optional, Union

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "ProcessKilled",
    "Simulator",
]


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """Raised internally when a process is killed (crash-stop)."""


_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2

# What a processed event's ``callbacks`` points at: nothing subscribes to
# it any more (late subscribers go through ``call_soon``), so every
# processed event shares one empty tuple instead of owning a fresh list.
_NO_CALLBACKS: tuple = ()


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *pending*, becomes *triggered* once :meth:`succeed`
    or :meth:`fail` is called, and *processed* after its callbacks ran.
    """

    __slots__ = ("sim", "_state", "_value", "_exception", "callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._state = _PENDING
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self.callbacks: List[Callable[["Event"], None]] = []

    def __call__(self) -> None:
        """Kernel dispatch: fire the callbacks of a triggered event.

        Events and raw callables share one dispatch shape — the kernel
        just calls whatever it dequeues, so ``step`` needs no
        ``isinstance`` branch. The callback loop is written out here
        (and in ``WorkRequest._deliver``): one frame per dispatch.
        """
        if self._state == _TRIGGERED:
            self._state = _PROCESSED
            callbacks, self.callbacks = self.callbacks, _NO_CALLBACKS
            for callback in callbacks:
                callback(self)

    @property
    def triggered(self) -> bool:
        """True once the event has fired (succeeded or failed)."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks of the event have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event fired successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The value of the event; raises its exception on failure."""
        if not self.triggered:
            raise RuntimeError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully with *value*."""
        if self._state != _PENDING:
            raise RuntimeError("event already triggered")
        self._state = _TRIGGERED
        self._value = value
        self.sim._post(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception."""
        if self._state != _PENDING:
            raise RuntimeError("event already triggered")
        self._state = _TRIGGERED
        self._exception = exception
        self.sim._post(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Invoke *callback(event)* once the event fires."""
        if self._state == _PROCESSED:
            # Late subscription: deliver on the next kernel step so the
            # caller still observes asynchronous semantics.
            self.sim.call_soon(lambda: callback(self))
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Born triggered; the fields are set here rather than through
        # Event.__init__ (one frame fewer per timeout).
        self.sim = sim
        self._state = _TRIGGERED
        self._value = value
        self._exception = None
        self.callbacks = []
        self.delay = delay
        sim._schedule_at(sim.now + delay, self)


class _Resumption:
    """What resumes a process when no event does: its first step
    (:data:`_START`) or an interrupt. Carries the two fields
    ``Process._on_target`` reads from an event."""

    __slots__ = ("_value", "_exception")

    def __init__(self, exception: Optional[BaseException] = None) -> None:
        self._value = None
        self._exception = exception


_START = _Resumption()


class Process(Event):
    """Wraps a generator; completes when the generator returns.

    The process's :class:`Event` side fires with the generator's return
    value, or fails with the exception that escaped the generator.
    ``Simulator.process`` builds the profiled twin,
    :class:`_ProfiledProcess`, when the simulator has an enabled
    profiler.
    """

    __slots__ = ("generator", "_target", "_alive", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        self.sim = sim
        self._state = _PENDING
        self._value = None
        self._exception = None
        self.callbacks = []
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Union[Event, _Resumption]] = None
        self._alive = True
        sim.call_soon(self._begin)

    def _begin(self) -> None:
        self._target = _START
        self._on_target(_START)

    @property
    def is_alive(self) -> bool:
        """True while the process has not finished or been killed."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Idempotent on dead processes: interrupting a process that has
        already finished (or been killed) is a no-op, like SimPy's.
        """
        if not self._alive:
            return
        target, self._target = self._target, None
        if target is not None:
            target.callbacks = [
                cb for cb in target.callbacks if getattr(cb, "__self__", None) is not self
            ]
        self.sim.call_soon(lambda: self._resume_with(_Resumption(Interrupt(cause))))

    def kill(self) -> None:
        """Terminate the process immediately without running any more of it.

        This models a crash-stop failure: the process never observes the
        kill, it simply stops executing. The process event fails with
        :class:`ProcessKilled` so that joiners are not left hanging.
        """
        if not self._alive:
            return
        self._alive = False
        target, self._target = self._target, None
        if target is not None:
            target.callbacks = [
                cb for cb in target.callbacks if getattr(cb, "__self__", None) is not self
            ]
        try:
            self.generator.close()
        except ValueError:
            # kill() reached from *inside* the running generator — e.g.
            # a fenced coordinator crashing its own node, which kills
            # every worker including itself. close() cannot close an
            # executing generator; the _alive flag is already down, so
            # the process simply never resumes past its next yield.
            # Before this guard the ValueError aborted the caller's
            # kill loop partway, leaving the remaining processes
            # running as zombies — which could later post verbs under
            # coordinator ids already marked failed.
            pass
        if not self.triggered:
            self._state = _TRIGGERED
            self._exception = ProcessKilled(self.name)
            self.sim._post(self)

    # -- generator driving ------------------------------------------------

    def _resume_with(self, resumption: _Resumption) -> None:
        """Resume with no event behind it (an interrupt)."""
        self._target = resumption
        self._on_target(resumption)

    def _on_target(self, event: Union[Event, _Resumption]) -> None:
        """Resume the generator with *event*'s outcome and subscribe to
        the next event it yields: the whole resume in one frame."""
        if not self._alive or event is not self._target:
            # Stale wake-up. interrupt()/kill() clear ``_target`` and
            # strip this callback from the target's *pending* callback
            # list — but that removal cannot reach a callback already
            # snapshotted by an in-flight callback loop (the event
            # detaches its list before invoking), nor one parked in
            # the kernel queue by ``add_callback``'s late-subscription
            # path. If such an orphaned wake-up then fires after the
            # process has moved on to a *new* yield target, resuming
            # here would double-drive the generator with a stale value.
            return
        self._target = None
        exception = event._exception
        try:
            if exception is not None:
                target = self.generator.throw(exception)
            else:
                target = self.generator.send(event._value)
        except StopIteration as stop:
            self._alive = False
            if self._state == _PENDING:
                self._state = _TRIGGERED
                self._value = stop.value
                self.sim._ring.append(self)
            return
        except BaseException as error:  # noqa: BLE001 - propagate via event
            self._alive = False
            if self._state == _PENDING:
                self._state = _TRIGGERED
                self._exception = error
                self.sim._ring.append(self)
            else:
                raise
            return
        if not isinstance(target, Event):
            self._alive = False
            self.generator.close()
            if self._state == _PENDING:
                self._state = _TRIGGERED
                self._exception = TypeError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
                self.sim._ring.append(self)
            return
        self._target = target
        if target._state == _PROCESSED:
            target.add_callback(self._on_target)
        else:
            target.callbacks.append(self._on_target)


class _ProfiledProcess(Process):
    """:class:`Process` twin: every resume runs the one
    ``Process._on_target`` body inside a ``resume`` profiler frame.

    A subclass rather than a bound method kept on the instance, which
    would make every process a reference cycle for the collector.
    """

    __slots__ = ()

    def _on_target(self, event: Union[Event, _Resumption]) -> None:
        if not self._alive or event is not self._target:
            return
        profiler = self.sim.profiler
        profiler.push("resume", self.name)
        try:
            Process._on_target(self, event)
        finally:
            profiler.pop()


#: A finished AllOf's value: its children's values, read in C.
_VALUES_OF = attrgetter("_value")


class _Condition(Event):
    """Base for AllOf / AnyOf composite events.

    The child hook is chosen once, here: ``_on_child``, or its profiled
    twin (a ``fanin`` frame around the same body) when the simulator
    has an enabled profiler.
    """

    __slots__ = ("events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        self.sim = sim
        self._state = _PENDING
        self._value = None
        self._exception = None
        self.callbacks = []
        self.events = events = list(events)
        self._pending_count = len(events)
        if not events:
            self._state = _TRIGGERED
            self._value = []
            sim._ring.append(self)
            return
        hook = self._profiled_on_child if sim.profiler.enabled else self._on_child
        for event in events:
            if event._state == _PROCESSED:
                event.add_callback(hook)
            else:
                event.callbacks.append(hook)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _profiled_on_child(self, event: Event) -> None:
        """``_on_child`` inside a ``fanin`` profiler frame."""
        profiler = self.sim.profiler
        profiler.push("fanin", type(self).__name__)
        try:
            self._on_child(event)
        finally:
            profiler.pop()


class AllOf(_Condition):
    """Fires once every child event fires; value is the list of values.

    If any child fails, the condition fails with that child's exception.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            self._state = _TRIGGERED
            self._value = list(map(_VALUES_OF, self.events))
            self.sim._ring.append(self)


class AnyOf(_Condition):
    """Fires as soon as any child fires; value is (index, child value)."""

    __slots__ = ("_index_of",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, events)
        # id -> first index, precomputed so _on_child is O(1) per fire
        # (events.index() was O(n) and returned the wrong slot when the
        # same event object appeared more than once).
        self._index_of = {}
        for index, event in enumerate(self.events):
            self._index_of.setdefault(id(event), index)

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._state = _TRIGGERED
        self._value = (self._index_of[id(event)], event._value)
        self.sim._ring.append(self)


class Simulator:
    """The event loop: a now-ring plus a timer heap (see module doc).

    Invariant: the timer heap only ever holds entries with
    ``when > now``; everything due at the current instant lives in the
    FIFO ring. ``step`` therefore never compares timestamps on the hot
    path, and "time went backwards" is impossible by construction.

    *profiler*, when given an enabled
    :class:`~repro.obs.profile.KernelProfiler`, swaps ``step`` for its
    instrumented twin at construction time — so the default
    (unprofiled) loop pays literally zero extra work: no flag test, no
    no-op call, not even an attribute load per entry (``run`` tests the
    flag once per call and then loops with the ``step`` body written
    out in place). The twin shares the selection/dispatch body
    (``entry()``), so it cannot drift behaviourally; the profiler only
    reads the wall clock and virtual-time behaviour is bit-identical
    either way.
    """

    def __init__(self, profiler: Optional[Any] = None) -> None:
        self.now: float = 0.0
        self._ring: deque = deque()
        self._timers: List[tuple] = []
        self._seq = 0
        self._processed_events = 0
        if profiler is None:
            from repro.obs.profile import NULL_PROFILER

            profiler = NULL_PROFILER
        self.profiler = profiler
        self._process_class = Process
        if profiler.enabled:
            # Instance-attribute shadowing: this binding wins over the
            # class method for this instance only.
            self.step = self._profiled_step
            self._process_class = _ProfiledProcess

    # -- scheduling --------------------------------------------------------

    def _post(self, event: Event) -> None:
        """Schedule a just-triggered event's callbacks to run now."""
        self._ring.append(event)

    def call_soon(self, func: Callable[[], None]) -> None:
        """Run *func* at the current virtual time on the next kernel step."""
        self._ring.append(func)

    def call_at(self, when: float, func: Callable[[], None]) -> None:
        """Run *func* at absolute virtual time *when*."""
        if when <= self.now:
            if when < self.now:
                raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
            self._ring.append(func)
            return
        self._seq += 1
        heapq.heappush(self._timers, (when, self._seq, func))

    def _schedule_at(self, when: float, event: Event) -> None:
        """Schedule *event* at *when* (ring if due now, heap if future)."""
        if when <= self.now:
            self._ring.append(event)
            return
        self._seq += 1
        heapq.heappush(self._timers, (when, self._seq, event))

    # -- primitives --------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after *delay* of virtual time."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn a generator as a process."""
        return self._process_class(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all children fire."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing on the first child."""
        return AnyOf(self, events)

    # -- running -----------------------------------------------------------

    def _advance(self) -> Any:
        """Pop the earliest timer, advance the clock, drain its cohort.

        Called only when the ring is empty. Every other timer due at the
        same instant moves to the ring in seq order, so the whole cohort
        dispatches FIFO with exactly one heap pop each and no timestamp
        comparisons in ``step``.
        """
        timers = self._timers
        when, _seq, entry = heapq.heappop(timers)
        self.now = when
        if timers and timers[0][0] == when:
            append = self._ring.append
            pop = heapq.heappop
            while timers and timers[0][0] == when:
                append(pop(timers)[2])
        return entry

    def step(self) -> None:
        """Process exactly one queue entry."""
        ring = self._ring
        entry = ring.popleft() if ring else self._advance()
        entry()
        self._processed_events += 1

    def _profiled_step(self) -> None:
        """``step`` twin with wall-clock attribution around dispatch."""
        ring = self._ring
        entry = ring.popleft() if ring else self._advance()
        profiler = self.profiler
        profiler.begin_step(entry)
        try:
            entry()
        finally:
            profiler.end_step()
        self._processed_events += 1

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or virtual time reaches *until*.

        The stop check peeks the timer heap head only when the ring is
        empty: ring entries are due *now*, which is ``<= until`` by
        construction, so they never need a timestamp comparison. An
        entry landing exactly at ``until`` (e.g. a chained QP
        completion) is still dispatched.

        The unprofiled loop is :meth:`step` and :meth:`_advance` written
        out in place — the same pop / advance / dispatch, minus two
        Python calls per entry — and counts into a local that is folded
        into ``processed_events`` on the way out, also when an entry
        raises (the raising entry itself is not counted, as in
        ``step``).
        """
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        ring = self._ring
        timers = self._timers
        limit = float("inf") if until is None else until
        if self.profiler.enabled:
            step = self.step
            while ring or (timers and timers[0][0] <= limit):
                step()
        else:
            popleft = ring.popleft
            append = ring.append
            pop = heapq.heappop
            dispatched = 0
            try:
                while True:
                    if ring:
                        entry = popleft()
                    elif timers and timers[0][0] <= limit:
                        when, _seq, entry = pop(timers)
                        self.now = when
                        while timers and timers[0][0] == when:
                            append(pop(timers)[2])
                    else:
                        break
                    entry()
                    dispatched += 1
            finally:
                self._processed_events += dispatched
        if until is not None:
            self.now = until

    def run_until_complete(self, process: Process, limit: Optional[float] = None) -> Any:
        """Run until *process* finishes; return its value (or raise)."""
        ring = self._ring
        timers = self._timers
        step = self.step
        while not process.triggered:
            if not ring and not timers:
                raise RuntimeError(
                    f"deadlock: process {process.name!r} pending with empty queue"
                )
            if limit is not None:
                due = self.now if ring else timers[0][0]
                if due > limit:
                    raise TimeoutError(
                        f"process {process.name!r} did not finish by t={limit}"
                    )
            step()
        return process.value

    @property
    def processed_events(self) -> int:
        """Total entries dispatched (batched deliveries count each item)."""
        return self._processed_events

    @property
    def queue_depth(self) -> int:
        """Entries currently pending across the ring and the timer heap."""
        return len(self._ring) + len(self._timers)
