"""repro.obs — simulation-wide tracing and metrics.

The observability layer answers the questions the paper's evaluation
asks: *where do the round trips of a transaction attempt go* (execute /
lock / validate / log / commit / unlock), *what does a recovery
timeline look like* (heartbeat-miss → link-revoke → log-region-read →
roll-forward/back → truncate → stray-lock-notify), and *how many verbs
of each kind does a transaction cost* (§4: f+1 log writes per txn, not
per object).

Everything hangs off one :class:`Obs` facade:

* ``obs.metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry` of
  labeled counters/gauges/histograms.
* ``obs.tracer`` — a :class:`~repro.obs.trace.Tracer` recording spans
  and instants against virtual time, exportable as Chrome
  ``trace_event`` JSON (open in ``chrome://tracing`` or Perfetto) or
  JSONL.

**Disabled-by-default, near-zero overhead.** Instrumented code holds a
reference to an obs object and calls its hooks unconditionally; the
default is the module-level :data:`NOOP_OBS`, whose every hook is a
no-op method on a slotted singleton — no per-call-site ``if`` trees, no
allocation, no dict lookups. Recording (when enabled) is purely
passive: the obs layer never schedules simulation events, so a seeded
run is identical with tracing on or off.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Optional, Tuple, Union

from repro.obs.flight import (
    FlightAttempt,
    FlightRecorder,
    NULL_FLIGHT,
    NullFlightRecorder,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    render_rows,
)
from repro.obs.profile import (
    KernelProfiler,
    NULL_PROFILER,
    NullKernelProfiler,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.util.stats import Histogram

__all__ = [
    "Obs",
    "NullObs",
    "NOOP_OBS",
    "TxnTrace",
    "NULL_TXN_TRACE",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Tracer",
    "NullTracer",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "KernelProfiler",
    "NullKernelProfiler",
    "NULL_PROFILER",
    "TXN_PHASES",
]

# Canonical per-attempt phase order (spans and report rows follow it).
TXN_PHASES = ("execute", "lock", "validate", "log", "commit", "unlock", "abort")


class TxnTrace:
    """Per-attempt phase recorder handed out by :meth:`Obs.txn_begin`.

    ``phase(name, now)`` closes the segment since the previous mark as
    one span + one histogram sample (and one flight-record segment);
    ``end(outcome, now, writes)`` closes the whole attempt span and
    seals the flight record. ``focus(phase)`` re-asserts flight-record
    attribution at a verb-posting site after a scheduling point; it is
    free when the flight recorder is disabled.
    """

    __slots__ = ("obs", "protocol", "pid", "tid", "txn_id", "start", "last", "rec")

    def __init__(
        self,
        obs: "Obs",
        protocol: str,
        pid: int,
        tid: int,
        txn_id: int,
        now: float,
        rec: Optional[FlightAttempt] = None,
    ) -> None:
        self.obs = obs
        self.protocol = protocol
        self.pid = pid
        self.tid = tid
        self.txn_id = txn_id
        self.start = now
        self.last = now
        self.rec = rec

    def focus(self, phase: Optional[str] = None) -> None:
        """Claim flight-record attribution for verbs posted next."""
        self.obs.flight.focus(self.rec, phase)
        # The same assertion drives the wall-clock profiler's
        # per-phase rollup of verb-post frames.
        self.obs.profiler.set_phase(phase)

    def lock_event(self, event: str, table_id: int, slot: int, now: float) -> None:
        """Record a lock conflict/steal event on the flight record."""
        self.obs.flight.on_lock(self.rec, event, table_id, slot, now)

    def phase(self, name: str, now: float) -> None:
        """Close the current phase segment at virtual time *now*."""
        obs = self.obs
        obs.phase_histogram(self.protocol, name).add(now - self.last)
        obs.tracer.span("txn", name, self.last, now, pid=self.pid, tid=self.tid)
        obs.flight.mark(self.rec, name, self.last, now)
        self.last = now

    def end(self, outcome: str, now: float, writes: int = 0) -> None:
        """Close the attempt span with its *outcome* label and seal the
        flight record with the same label."""
        self.obs.tracer.span(
            "txn",
            f"attempt:{outcome}",
            self.start,
            now,
            pid=self.pid,
            tid=self.tid,
            args={"txn_id": self.txn_id, "protocol": self.protocol},
        )
        self.obs.flight.close(self.rec, outcome, now, writes)
        self.obs.profiler.set_phase(None)


class _NullTxnTrace:
    """No-op twin of :class:`TxnTrace` (the disabled path)."""

    __slots__ = ()
    rec = None

    def focus(self, phase: Optional[str] = None) -> None:
        pass

    def lock_event(self, event: str, table_id: int, slot: int, now: float) -> None:
        pass

    def phase(self, name: str, now: float) -> None:
        pass

    def end(self, outcome: str, now: float, writes: int = 0) -> None:
        pass


NULL_TXN_TRACE = _NullTxnTrace()


class Obs:
    """Enabled observability: a metrics registry plus (optionally) a tracer.

    ``trace=False`` keeps the labeled counters/histograms but swaps the
    tracer for the no-op :data:`~repro.obs.trace.NULL_TRACER`;
    ``flight=True`` attaches a per-transaction
    :class:`~repro.obs.flight.FlightRecorder` (verb-level attempt
    accounting for the report layer); ``max_flights`` bounds its
    resident record count for long/open-loop runs (oldest closed
    attempts are evicted first).
    """

    enabled = True

    def __init__(
        self,
        trace: bool = True,
        flight: bool = False,
        max_flights: Optional[int] = None,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.tracer: Tracer = Tracer() if trace else NULL_TRACER  # type: ignore[assignment]
        self.flight: FlightRecorder = (  # type: ignore[assignment]
            FlightRecorder(max_flights=max_flights) if flight else NULL_FLIGHT
        )
        # Wall-clock kernel profiler; the cluster builder swaps in an
        # enabled KernelProfiler when the run is profiled.
        self.profiler = NULL_PROFILER
        # Run-level facts (protocol, seed, replication degree, ...) the
        # report layer needs but events don't carry; populated by the
        # cluster builder, exported as the JSONL meta line.
        self.run_meta: Dict[str, Any] = {}
        # Hot-path metric instances, cached per label set so recording
        # is one method call (see MetricsRegistry docstring).
        self._verb_counters: Dict[Tuple[str, int], Counter] = {}
        self._verb_bytes: Dict[Tuple[str, int], Counter] = {}
        self._verb_errors: Dict[str, Counter] = {}
        self._verb_latency: Dict[str, Histogram] = {}
        self._phase_hist: Dict[Tuple[str, str], Histogram] = {}
        self._outcome_counters: Dict[Tuple[str, str], Counter] = {}

    def set_run_meta(self, **meta: Any) -> None:
        """Attach run-level metadata (cluster shape, seed, workload)."""
        self.run_meta.update(meta)

    # -- RDMA verb hooks (hot path: called once per posted verb) -------------

    def on_verb_post(self, kind: str, node_id: int, wire_bytes: int) -> None:
        """One verb posted on a QP (request direction)."""
        key = (kind, node_id)
        counter = self._verb_counters.get(key)
        if counter is None:
            counter = self._verb_counters[key] = self.metrics.counter(
                "rdma.verbs", verb=kind, node=node_id
            )
            self._verb_bytes[key] = self.metrics.counter(
                "rdma.verb_bytes", verb=kind, node=node_id
            )
        counter.inc()
        self._verb_bytes[key].inc(wire_bytes)

    def on_verb_complete(
        self, kind: str, node_id: int, latency: float, wire_bytes: int, ok: bool
    ) -> None:
        """A signaled verb's completion was delivered back."""
        histogram = self._verb_latency.get(kind)
        if histogram is None:
            histogram = self._verb_latency[kind] = self.metrics.histogram(
                "rdma.verb_latency", min_value=1e-8, max_value=1.0, verb=kind
            )
        histogram.add(latency)
        if not ok:
            counter = self._verb_errors.get(kind)
            if counter is None:
                counter = self._verb_errors[kind] = self.metrics.counter(
                    "rdma.verb_errors", verb=kind
                )
            counter.inc()

    # -- transaction hooks ----------------------------------------------------

    def phase_histogram(self, protocol: str, phase: str) -> Histogram:
        """Latency histogram for one (protocol, phase) pair."""
        key = (protocol, phase)
        histogram = self._phase_hist.get(key)
        if histogram is None:
            histogram = self._phase_hist[key] = self.metrics.histogram(
                "txn.phase", min_value=1e-8, max_value=10.0,
                protocol=protocol, phase=phase,
            )
        return histogram

    def txn_begin(
        self,
        protocol: str,
        node_id: int,
        coord_id: int,
        txn_id: int,
        now: float,
        attempt: int = 1,
    ) -> TxnTrace:
        """Start recording one transaction attempt."""
        rec = self.flight.begin(protocol, node_id, coord_id, txn_id, attempt, now)
        return TxnTrace(self, protocol, node_id, coord_id, txn_id, now, rec)

    def on_outcome(self, protocol: str, outcome: str) -> None:
        """Count a final per-attempt outcome (commit / abort reason)."""
        key = (protocol, outcome)
        counter = self._outcome_counters.get(key)
        if counter is None:
            counter = self._outcome_counters[key] = self.metrics.counter(
                "txn.outcome", protocol=protocol, outcome=outcome
            )
        counter.inc()

    def commit_count(self) -> int:
        """Total commits observed (for per-commit verb normalization)."""
        return sum(
            counter.value
            for (_protocol, outcome), counter in self._outcome_counters.items()
            if outcome == "commit"
        )

    # -- kernel sampling (passive; call at run boundaries) --------------------

    def sample_kernel(self, sim) -> None:
        """Record kernel gauges (steps executed, queue depth, time)."""
        self.metrics.gauge("kernel.now").set(sim.now)
        self.metrics.gauge("kernel.processed_events").set(sim.processed_events)
        self.metrics.gauge("kernel.queue_depth").set(sim.queue_depth)

    # -- reporting --------------------------------------------------------------

    def verb_table(self, commits: Optional[int] = None) -> str:
        """Per-verb counts/bytes, optionally normalized per commit."""
        totals: Dict[str, List[int]] = {}
        for (kind, _node), counter in sorted(self._verb_counters.items()):
            entry = totals.setdefault(kind, [0, 0])
            entry[0] += counter.value
        for (kind, _node), counter in self._verb_bytes.items():
            totals.setdefault(kind, [0, 0])[1] += counter.value
        headers = ["verb", "count", "wire bytes"]
        if commits:
            headers.append("per commit")
        rows = []
        for kind, (count, wire_bytes) in sorted(totals.items()):
            row: List[Any] = [kind, count, wire_bytes]
            if commits:
                row.append(f"{count / commits:.2f}")
            rows.append(row)
        return render_rows(headers, rows, title="RDMA verbs")

    def phase_table(self) -> str:
        """Per-phase latency table in canonical phase order."""
        order = {phase: index for index, phase in enumerate(TXN_PHASES)}
        rows = []
        for (protocol, phase), histogram in sorted(
            self._phase_hist.items(),
            key=lambda item: (item[0][0], order.get(item[0][1], 99)),
        ):
            if not histogram.count:
                continue
            rows.append(
                (
                    protocol,
                    phase,
                    histogram.count,
                    f"{histogram.stats.mean * 1e6:.2f}",
                    f"{histogram.percentile(50) * 1e6:.2f}",
                    f"{histogram.percentile(99) * 1e6:.2f}",
                )
            )
        return render_rows(
            ["protocol", "phase", "samples", "mean (us)", "p50 (us)", "p99 (us)"],
            rows,
            title="transaction phase latency",
        )

    def export_jsonl(self, path_or_file: Union[str, IO[str]]) -> None:
        """Write the full run as JSONL: meta line, trace events, flights.

        Line types are discriminated by ``ph``: ``"meta"`` (one line of
        run metadata), ``"X"``/``"i"`` (tracer spans/instants), and
        ``"flight"`` (one per transaction attempt). This is the file
        ``repro obs-report`` consumes.
        """

        def dump(handle: IO[str]) -> None:
            meta: Dict[str, Any] = {"ph": "meta"}
            meta.update(self.run_meta)
            if self.flight.unattributed:
                meta["unattributed"] = dict(self.flight.unattributed)
            handle.write(json.dumps(meta))
            handle.write("\n")
            self.tracer.export_jsonl(handle)
            self.flight.export_jsonl(handle)

        if hasattr(path_or_file, "write"):
            dump(path_or_file)  # type: ignore[arg-type]
        else:
            with open(path_or_file, "w") as handle:
                dump(handle)

    def report(self, commits: Optional[int] = None) -> str:
        """The ``--metrics`` report: verb costs + phase latencies."""
        sections = [self.verb_table(commits), self.phase_table()]
        recovery = self.metrics.select("recovery.")
        if recovery:
            rows = []
            for (name, labels), metric in recovery:
                if labels:
                    name += "{%s}" % ",".join(f"{k}={v}" for k, v in labels)
                if isinstance(metric, Histogram):
                    value = (
                        f"n={metric.count} mean={metric.stats.mean * 1e6:.1f}us "
                        f"p99={metric.percentile(99) * 1e6:.1f}us"
                    )
                else:
                    value = f"{metric.value:g}"
                rows.append((name, value))
            sections.append(render_rows(["metric", "value"], rows, title="recovery"))
        return "\n".join(sections)


class NullObs:
    """Disabled observability: every hook is a slotted no-op.

    This object (not per-call ``if`` guards) is the overhead guard: the
    instrumented hot paths pay one attribute lookup + one no-op call.
    """

    enabled = False

    __slots__ = ()

    metrics = None  # replaced below with a no-op registry
    tracer = NULL_TRACER
    flight = NULL_FLIGHT
    profiler = NULL_PROFILER
    run_meta: Dict[str, Any] = {}

    def set_run_meta(self, **meta) -> None:
        pass

    def phase_histogram(self, protocol, phase):
        return NULL_HISTOGRAM

    def txn_begin(
        self, protocol, node_id, coord_id, txn_id, now, attempt=1
    ) -> _NullTxnTrace:
        return NULL_TXN_TRACE

    def on_outcome(self, protocol, outcome) -> None:
        pass

    def commit_count(self) -> int:
        return 0

    def sample_kernel(self, sim) -> None:
        pass

    def export_jsonl(self, path_or_file) -> None:
        pass

    def report(self, commits: Optional[int] = None) -> str:
        return "(observability disabled)\n"


class _NullMetricsRegistry:
    """No-op registry so cold paths can use ``obs.metrics`` unguarded."""

    __slots__ = ()

    counters: Dict = {}
    gauges: Dict = {}
    histograms: Dict = {}

    def counter(self, name, **labels):
        return NULL_COUNTER

    def gauge(self, name, **labels):
        return NULL_GAUGE

    def histogram(self, name, min_value=1e-7, max_value=100.0, **labels):
        return NULL_HISTOGRAM

    def inc(self, name, amount=1, **labels) -> None:
        pass

    def observe(self, name, value, **labels) -> None:
        pass

    def select(self, prefix):
        return []

    def snapshot(self):
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, other) -> None:
        pass

    def render_table(self, title: str = "metrics") -> str:
        return f"{title}\n{'=' * len(title)}\n"


NullObs.metrics = _NullMetricsRegistry()

NOOP_OBS = NullObs()
