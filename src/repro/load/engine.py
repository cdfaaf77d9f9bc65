"""The open-loop driver: arrivals meet a bounded coordinator pool.

The engine turns the cluster's coordinators into a *service pool*: an
arrival process generates intended request times, the population picks
the user and transaction, and each request either grabs a free
coordinator immediately or waits in a FIFO queue; a dispatched request
enters the protocol through ``Coordinator.submit`` like every other
scripted transaction, so a node crash or a memory reconfiguration
reaches it. Issuance never slows
down because the system is slow — that is the defining property of
open-loop load, and it is what makes the saturation knee measurable.

Latency is **coordinated-omission corrected**: every sample is measured
from the request's *intended* arrival time, so time spent waiting for a
free coordinator counts. Requests still queued or in flight when the
drain deadline passes are added to the latency histogram as censored
samples at their current age — reporting "p99 of the lucky requests
that finished" is exactly the omission the correction exists to avoid.

The engine can also crash compute nodes mid-run (chaos-under-load):
killed in-flight requests count as ``unknown`` outcomes, and the
end-of-run oracle (:func:`repro.chaos.oracle.check_cluster`) plus the
workload-level invariant monitors report anything the protocol broke
while the traffic was live.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.chaos.oracle import OracleViolation, check_cluster
from repro.load.arrivals import ArrivalProcess, PoissonArrivals
from repro.load.population import Request, UserPopulation
from repro.util.stats import Histogram

__all__ = ["LoadResult", "OpenLoopEngine", "Request"]

#: How long past the horizon queued and in-flight requests may drain
#: before they are censored, and how long the oracle waits for
#: in-flight work and recovery to settle.
DRAIN_GRACE = 20e-3
QUIESCE_GRACE = 60e-3


class LoadResult:
    """Everything measured at one offered-load point."""

    def __init__(self, protocol: str, workload: str, arrivals: str, offered: float,
                 duration: float) -> None:
        self.protocol = protocol
        self.workload = workload
        self.arrivals = arrivals
        self.offered = offered
        self.duration = duration
        # Counts over the measured window (intended >= warmup end).
        self.intended = 0
        self.completed = 0
        self.commits = 0
        self.aborts = 0
        self.unknown = 0
        self.censored = 0
        self.abort_reasons: Counter = Counter()
        # Latency from the intended arrival (CO-corrected) and from
        # dispatch (pure service time) — the gap between the two *is*
        # the queueing delay.
        self.co = Histogram(min_value=1e-7, max_value=10.0)
        self.service = Histogram(min_value=1e-7, max_value=10.0)
        self.queue_depth_mean = 0.0
        self.queue_depth_peak = 0
        self.backlog_end = 0
        self.sessions = 0
        self.violations: List[str] = []
        self.slo_breaches: Dict[str, int] = {}

    @property
    def achieved_tps(self) -> float:
        return self.commits / self.duration if self.duration else 0.0

    @property
    def abort_rate(self) -> float:
        done = self.commits + self.aborts
        return self.aborts / done if done else 0.0

    def summary(self) -> Dict[str, object]:
        """JSON-friendly view of this point (all latencies in us)."""
        return {
            "offered_tps": round(self.offered, 2),
            "achieved_tps": round(self.achieved_tps, 2),
            "intended": self.intended,
            "completed": self.completed,
            "commits": self.commits,
            "aborts": self.aborts,
            "unknown": self.unknown,
            "censored": self.censored,
            "abort_rate": round(self.abort_rate, 6),
            "co_p50_us": round(self.co.percentile(50) * 1e6, 3),
            "co_p99_us": round(self.co.percentile(99) * 1e6, 3),
            "co_p999_us": round(self.co.percentile(99.9) * 1e6, 3),
            "service_p50_us": round(self.service.percentile(50) * 1e6, 3),
            "service_p99_us": round(self.service.percentile(99) * 1e6, 3),
            "queue_depth_mean": round(self.queue_depth_mean, 3),
            "queue_depth_peak": self.queue_depth_peak,
            "backlog_end": self.backlog_end,
            "violations": list(self.violations),
            "slo_breaches": dict(self.slo_breaches),
        }


class OpenLoopEngine:
    """Drives one offered-load point against a built (unstarted) cluster."""

    def __init__(
        self,
        cluster,
        population: UserPopulation,
        offered: float,
        duration: float,
        arrivals: Optional[ArrivalProcess] = None,
        warmup: float = 2e-3,
        seed: int = 0,
        monitors: Sequence = (),
        slo=None,
        check_oracle: bool = False,
        crash_compute: Sequence[Tuple[int, float]] = (),
    ) -> None:
        if offered <= 0:
            raise ValueError(f"offered rate must be positive, got {offered}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.population = population
        self.offered = offered
        self.duration = duration
        self.arrivals = arrivals if arrivals is not None else PoissonArrivals()
        self.warmup = warmup
        self.seed = seed
        self.monitors = list(monitors)
        self.slo = slo
        self.check_oracle = check_oracle
        self.crash_compute = list(crash_compute)

        self._free: List = []
        self._busy: Dict[int, object] = {}
        self._known: set = set()
        self._inflight: Dict[int, Request] = {}
        self._queue: Deque[Request] = deque()
        self._queue_area = 0.0
        self._queue_mark = 0.0
        self._closed = False
        self._measure_from = 0.0
        self._monitor_errors: List[str] = []
        self.result = LoadResult(
            cluster.protocol_name,
            cluster.workload.name,
            self.arrivals.name,
            offered,
            duration,
        )

    # -- coordinator pool ----------------------------------------------------

    @staticmethod
    def _usable(coordinator) -> bool:
        node = coordinator.node
        return node.alive and not node.fenced and coordinator in node.coordinators

    def _adopt(self, coordinator) -> None:
        """Register log regions, then add the coordinator to the pool."""
        self._known.add(id(coordinator))

        def ready():
            yield coordinator.register_log_regions()
            if self._usable(coordinator):
                self._free.append(coordinator)
                self._drain_queue()

        self.sim.process(ready(), name=f"load-adopt-{coordinator.coord_id}")

    def _refresh_pool(self) -> None:
        """Adopt coordinators spawned after start (compute restarts)."""
        for coordinator in self.cluster.all_coordinators():
            if id(coordinator) not in self._known and self._usable(coordinator):
                self._adopt(coordinator)

    def _take_coordinator(self):
        while self._free:
            coordinator = self._free.pop()
            if self._usable(coordinator):
                return coordinator
            self._known.discard(id(coordinator))
        self._refresh_pool()
        return None

    # -- request flow --------------------------------------------------------

    def _queue_tick(self) -> None:
        now = self.sim.now
        self._queue_area += len(self._queue) * (now - self._queue_mark)
        self._queue_mark = now

    def _admit(self, request: Request) -> None:
        if request.intended >= self._measure_from:
            self.result.intended += 1
        coordinator = self._take_coordinator()
        if coordinator is None:
            self._queue_tick()
            self._queue.append(request)
            if len(self._queue) > self.result.queue_depth_peak:
                self.result.queue_depth_peak = len(self._queue)
        else:
            self._dispatch(coordinator, request)

    def _dispatch(self, coordinator, request: Request) -> None:
        request.dispatched = self.sim.now
        self._busy[id(coordinator)] = coordinator
        self._inflight[id(request)] = request
        process = coordinator.submit(request.logic, name=f"load-u{request.user}")
        process.add_callback(
            lambda event, c=coordinator, r=request: self._on_done(c, r, event)
        )

    def _drain_queue(self) -> None:
        while self._queue and not self._closed:
            coordinator = self._take_coordinator()
            if coordinator is None:
                return
            self._queue_tick()
            request = self._queue.popleft()
            self._dispatch(coordinator, request)

    def _on_done(self, coordinator, request: Request, event) -> None:
        # Kernel completion callback: must never raise.
        now = self.sim.now
        result = self.result
        self._busy.pop(id(coordinator), None)
        self._inflight.pop(id(request), None)
        try:
            outcome = event.value
        except BaseException:  # noqa: BLE001 — killed by a crash, or fenced
            outcome = None
        request.completed = now
        request.outcome = outcome
        if self._closed:
            # Post-drain completion during quiescence: this request was
            # already censored into the histogram; recording it again
            # would double count.
            if self._usable(coordinator):
                self._free.append(coordinator)
            return
        measured = request.intended >= self._measure_from
        if outcome is None:
            if measured:
                result.unknown += 1
        else:
            if measured:
                result.completed += 1
                result.co.add(now - request.intended)
                result.service.add(now - request.dispatched)
            if outcome.committed:
                if measured:
                    result.commits += 1
                self.cluster.timeline.record(now)
                for monitor in self.monitors:
                    try:
                        monitor.on_commit(request, outcome, now)
                    except Exception as error:  # noqa: BLE001
                        self._monitor_errors.append(
                            f"LOAD-MONITOR {type(monitor).__name__} raised: {error!r}"
                        )
            elif measured:
                result.aborts += 1
                result.abort_reasons[outcome.reason] += 1
            if self.slo is not None:
                self.slo.observe(now, now - request.intended, outcome.committed)
        if self._usable(coordinator):
            self._free.append(coordinator)
        self._drain_queue()

    # -- run -----------------------------------------------------------------

    def run(self) -> LoadResult:
        """Drive the whole point: warmup, measured window, drain, checks."""
        cluster = self.cluster
        sim = self.sim
        if self.check_oracle:
            cluster.record_history()
        for monitor in self.monitors:
            monitor.attach(cluster)
        cluster.start(run_coordinators=False)
        for coordinator in cluster.all_coordinators():
            self._adopt(coordinator)

        t0 = sim.now
        self._measure_from = t0 + self.warmup
        self._queue_mark = t0
        horizon = t0 + self.warmup + self.duration
        for node_id, at in self.crash_compute:
            cluster.crash_compute(node_id, at=t0 + at)

        arrival_rng = random.Random(self.seed)

        def arrival_loop():
            for when in self.arrivals.times(self.offered, t0, horizon, arrival_rng):
                delay = when - sim.now
                if delay > 0:
                    yield sim.timeout(delay)
                self._admit(self.population.next_request(when))

        sim.process(arrival_loop(), name="load-arrivals")
        if self.slo is not None:
            sim.process(self.slo.ticker(self), name="load-slo")

        cluster.run(until=horizon)
        deadline = horizon + DRAIN_GRACE
        while sim.now < deadline and (self._busy or self._queue):
            cluster.run(until=min(deadline, sim.now + 1e-3))
        self._closed = True

        # Censor whatever is still queued or in flight: its latency is
        # *at least* its current age, and pretending it does not exist
        # would understate the tail exactly where it matters.
        drain_end = sim.now
        self._queue_tick()
        result = self.result
        leftovers = list(self._inflight.values()) + list(self._queue)
        for request in leftovers:
            if request.intended >= self._measure_from:
                result.co.add(drain_end - request.intended)
                result.censored += 1
        result.backlog_end = len(leftovers)
        result.queue_depth_mean = (
            self._queue_area / (drain_end - t0) if drain_end > t0 else 0.0
        )
        result.sessions = self.population.sessions_started
        if self.slo is not None:
            result.slo_breaches = dict(self.slo.breaches)

        if self.check_oracle:
            result.violations.extend(self._quiesce_and_check())
        strict = result.unknown == 0 and result.backlog_end == 0
        for monitor in self.monitors:
            result.violations.extend(monitor.check_final(cluster, strict=strict))
        result.violations.extend(self._monitor_errors)
        return result

    def _quiesce_and_check(self) -> List[str]:
        """Wait until no request is in flight and the cluster is at rest
        (``cluster.busy()``, the chaos quiesce's fixpoint), then run the
        oracle. A cluster still busy after ``QUIESCE_GRACE`` is itself a
        violation (``CHAOS-QUIESCE``)."""
        cluster = self.cluster
        sim = self.sim
        deadline = sim.now + QUIESCE_GRACE
        violations = []
        while True:
            busy = cluster.busy() or (
                f"{len(self._busy)} request(s) in flight" if self._busy else ""
            )
            if not busy:
                break
            if sim.now >= deadline:
                violations.append(OracleViolation(
                    "CHAOS-QUIESCE",
                    f"cluster failed to quiesce within {QUIESCE_GRACE * 1e3:.0f}ms: {busy}",
                ))
                break
            cluster.run(until=min(deadline, sim.now + 1e-3))
        # Margin for notification deliveries still in flight.
        cluster.run(until=sim.now + 2e-3)
        violations.extend(check_cluster(cluster, cluster.record_history()))
        return [str(v) for v in violations]
