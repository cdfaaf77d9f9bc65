"""Wall-clock kernel profiler: where does the *real* CPU time go?

The rest of ``repro.obs`` attributes **virtual** time — microseconds on
the simulated RDMA fabric. This module attributes **wall-clock** time:
nanoseconds the host CPU spends inside the simulation kernel's dispatch
loop, generator resumes, fan-in callbacks, verb posting, the network
model, failure-detector heartbeats, and the obs/sanitizer shims. It
exists so the ROADMAP's kernel rearchitecture can be attempted with
evidence instead of folklore: every ``repro perf`` table and collapsed
stack is a before/after number for a kernel-speed PR.

**Never perturbs.** The profiler only *reads* the wall clock and writes
into its own dicts; it never schedules simulation events, never feeds a
wall-clock value into any simulation decision, and the disabled path is
the :data:`NULL_PROFILER` singleton (the same no-op-object discipline
as ``NOOP_OBS`` / ``NULL_FLIGHT``), so a seeded run is bit-identical
with profiling on, off, or absent. The wall-clock reads themselves are
exempt from the SIM001 purity rule for exactly this reason: they are
measurement, not simulation input.

**Attribution model.** The profiler keeps an explicit frame stack:

* the profiled kernel ``step()`` pushes one root frame per queue entry
  (classified as ``event:Timeout``, ``process:coordinator-*``,
  ``cb:QueuePair.post.<locals>.execute``, ...);
* instrumented boundaries (``Process._resume``, ``QueuePair.post``,
  ``Network.delay``, AllOf/AnyOf fan-in, FD heartbeat ingestion, the
  obs/sanitizer shim block) push nested frames.

Each frame pop folds *self* time (elapsed minus child time) into a
per-site table and into a collapsed-stack table whose lines
(``kernel;process:worker;rdma.post:write_log 1234``) render directly in
``flamegraph.pl`` or speedscope. Per-subsystem and per-protocol-phase
rollups are derived views: a site's subsystem comes from the module
that owns its code, and verb-post frames are additionally billed to the
ambient transaction phase asserted by ``TxnTrace.focus`` (the same
focus discipline the flight recorder uses).
"""

from __future__ import annotations

import re
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import render_rows

__all__ = [
    "KernelProfiler",
    "NullKernelProfiler",
    "NULL_PROFILER",
    "subsystem_of_module",
]

# Package -> reported subsystem. Anything else maps to "other".
_SUBSYSTEMS = {
    "sim": "kernel",
    "rdma": "rdma",
    "memory": "memory",
    "protocol": "protocol",
    "recovery": "recovery",
    "cluster": "cluster",
    "workloads": "workload",
    "obs": "obs",
    "analysis": "sanitizer",
    "faults": "faults",
    "chaos": "faults",
    "litmus": "litmus",
    "bench": "bench",
    "util": "util",
}

# Category -> owning subsystem. ``resume`` frames are not listed: a
# generator resume is billed to the subsystem that wrote the generator
# (see :meth:`KernelProfiler._owner_of`), not to the kernel driving it.
_CATEGORY_SUBSYSTEM = {
    "event": "kernel",
    "fanin": "kernel",
    "rdma.post": "rdma",
    "rdma.complete": "rdma",
    "network": "network",
    "fd": "recovery",
    "shim": "obs",
}

_DIGITS = re.compile(r"\d+")


def subsystem_of_module(module: Optional[str]) -> str:
    """Map ``repro.rdma.qp`` -> ``rdma`` (and so on)."""
    if not module:
        return "other"
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    return _SUBSYSTEMS.get(parts[1], "other")


def _subsystem_of_filename(filename: str) -> str:
    """Map ``.../src/repro/protocol/base.py`` -> ``protocol``."""
    marker = "repro"
    pieces = filename.replace("\\", "/").split("/")
    try:
        index = len(pieces) - 1 - pieces[::-1].index(marker)
    except ValueError:
        return "other"
    if index + 1 >= len(pieces):
        return "other"
    nxt = pieces[index + 1]
    if nxt.endswith(".py"):
        return "kernel" if nxt == "kernel.py" else "other"
    return _SUBSYSTEMS.get(nxt, "other")


class _Site:
    """Aggregate for one attribution label."""

    __slots__ = ("label", "subsystem", "count", "self_ns", "total_ns")

    def __init__(self, label: str, subsystem: str) -> None:
        self.label = label
        self.subsystem = subsystem
        self.count = 0
        self.self_ns = 0
        self.total_ns = 0


class KernelProfiler:
    """Enabled profiler: frame stack + per-site/stack/phase aggregates."""

    enabled = True

    def __init__(self) -> None:
        self.sites: Dict[str, _Site] = {}
        # collapsed stacks: tuple of labels (outermost first) -> self ns
        self.stack_ns: Dict[Tuple[str, ...], int] = {}
        # ambient-txn-phase rollup of verb-post frames -> wall ns
        self.phase_ns: Dict[str, int] = {}
        self.phase_counts: Dict[str, int] = {}
        self.steps = 0
        self.run_wall_ns = 0
        self._phase: Optional[str] = None
        # frame: [site, start_ns, child_ns, phase-or-None]
        self._stack: List[list] = []
        self._run_started: Optional[int] = None
        # label caches (classification is hot under profiling)
        self._label_cache: Dict[Tuple[str, Optional[str]], Tuple[str, str]] = {}
        self._code_cache: Dict[Any, Tuple[str, str]] = {}
        self._name_cache: Dict[str, str] = {}
        self._file_cache: Dict[str, str] = {}
        # normalized process name -> subsystem owning its generator
        self._process_owner: Dict[str, str] = {}

    # -- run bracketing ------------------------------------------------------

    def run_begin(self) -> None:
        """Mark the start of a measured run (for whole-run wall time)."""
        self._run_started = perf_counter_ns()  # simlint: disable=SIM001

    def run_end(self) -> None:
        """Close the measured run; accumulates into ``run_wall_ns``."""
        if self._run_started is not None:
            now = perf_counter_ns()  # simlint: disable=SIM001
            self.run_wall_ns += now - self._run_started
            self._run_started = None

    # -- frame stack ---------------------------------------------------------

    def _site(self, label: str, subsystem: str) -> _Site:
        site = self.sites.get(label)
        if site is None:
            site = self.sites[label] = _Site(label, subsystem)
        return site

    def push(self, category: str, detail: Optional[str] = None) -> None:
        """Open a nested attribution frame.

        Label construction is cached so steady-state pushes cost one
        dict hit; the phase marker is captured only for verb-post
        frames (the phase rollup's unit of account).
        """
        key = (category, detail)
        cached = self._label_cache.get(key)
        if cached is None:
            name = None if detail is None else self._normalize(detail)
            label = category if name is None else f"{category}:{name}"
            if category == "resume":
                subsystem = self._process_owner.get(name, "kernel")
            else:
                subsystem = _CATEGORY_SUBSYSTEM.get(category, "other")
            cached = self._label_cache[key] = (label, subsystem)
        phase = self._phase if category == "rdma.post" else None
        self._stack.append(
            [cached, perf_counter_ns(), 0, phase]  # simlint: disable=SIM001
        )

    def push_site(self, label: str, subsystem: str) -> None:
        """Open a frame with a precomputed label (root frames)."""
        self._stack.append(
            [(label, subsystem), perf_counter_ns(), 0, None]  # simlint: disable=SIM001
        )

    def pop(self) -> None:
        """Close the innermost frame and fold its time into the tables."""
        now = perf_counter_ns()  # simlint: disable=SIM001
        (label, subsystem), start, child_ns, phase = self._stack.pop()
        elapsed = now - start
        self_ns = elapsed - child_ns
        site = self.sites.get(label)
        if site is None:
            site = self.sites[label] = _Site(label, subsystem)
        site.count += 1
        site.self_ns += self_ns
        site.total_ns += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed
            path = tuple(frame[0][0] for frame in self._stack) + (label,)
        else:
            path = (label,)
        self.stack_ns[path] = self.stack_ns.get(path, 0) + self_ns
        if phase is not None:
            self.phase_ns[phase] = self.phase_ns.get(phase, 0) + elapsed
            self.phase_counts[phase] = self.phase_counts.get(phase, 0) + 1

    # -- ambient transaction phase (asserted by TxnTrace.focus) --------------

    def set_phase(self, phase: Optional[str]) -> None:
        """Assert the transaction phase for subsequent verb posts."""
        self._phase = phase

    # -- kernel hooks --------------------------------------------------------

    def begin_step(self, entry: Any) -> None:
        """Open the root frame for one kernel dispatch step."""
        self.steps += 1
        label, subsystem = self.classify(entry)
        self._stack.append(
            [(label, subsystem), perf_counter_ns(), 0, None]  # simlint: disable=SIM001
        )

    # end_step is pop(); the root frame folds like any other.
    end_step = pop

    # -- queue-entry classification -----------------------------------------

    def _normalize(self, name: str) -> str:
        """Collapse instance ids: ``coordinator-17`` -> ``coordinator-*``."""
        cached = self._name_cache.get(name)
        if cached is None:
            cached = self._name_cache[name] = _DIGITS.sub("*", name)
        return cached

    def _classify_code(self, code: Any, qualname: str, module: str) -> Tuple[str, str]:
        cached = self._code_cache.get(code)
        if cached is None:
            label = f"cb:{self._normalize(qualname)}"
            cached = self._code_cache[code] = (label, subsystem_of_module(module))
        return cached

    def _owner_of(self, process: Any) -> Tuple[str, str]:
        """(normalized name, subsystem that wrote the generator) of *process*.

        Remembered per name so the ``resume:<name>`` frames the process
        pushes — which carry only the name — bill the same subsystem.
        """
        name = self._normalize(process.name)
        code = getattr(process.generator, "gi_code", None)
        if code is None:
            subsystem = "kernel"
        else:
            filename = code.co_filename
            subsystem = self._file_cache.get(filename)
            if subsystem is None:
                subsystem = self._file_cache[filename] = _subsystem_of_filename(filename)
        self._process_owner[name] = subsystem
        return name, subsystem

    def classify(self, entry: Any) -> Tuple[str, str]:
        """(label, subsystem) for one kernel queue entry."""
        # Local import keeps repro.obs importable without the kernel.
        from repro.sim.kernel import Event, Process

        if isinstance(entry, Event):
            if isinstance(entry, Process):
                name, subsystem = self._owner_of(entry)
                return f"process:{name}", subsystem
            return f"event:{type(entry).__name__}", "kernel"
        # Raw callable scheduled via call_soon / call_at — bound methods
        # included, which is how a QP work request's two legs
        # (``cb:WorkRequest._arrive`` / ``._deliver``) land in ``rdma``.
        func = getattr(entry, "__func__", entry)  # unwrap bound methods
        if func is Process._begin:
            # Every process takes its first resume under this entry, so
            # its owner is known before its first ``resume`` frame opens.
            self._owner_of(entry.__self__)
        code = getattr(func, "__code__", None)
        if code is not None:
            return self._classify_code(
                code,
                getattr(func, "__qualname__", code.co_name),
                getattr(func, "__module__", "") or "",
            )
        return f"cb:{type(entry).__name__}", "other"

    # -- derived views -------------------------------------------------------

    @property
    def profiled_ns(self) -> int:
        """Wall ns attributed across all root frames."""
        return sum(ns for path, ns in self.stack_ns.items())

    def subsystem_rollup(self) -> Dict[str, Tuple[int, int]]:
        """subsystem -> (calls, self ns), sorted by self time at render."""
        rollup: Dict[str, Tuple[int, int]] = {}
        for site in self.sites.values():
            calls, ns = rollup.get(site.subsystem, (0, 0))
            rollup[site.subsystem] = (calls + site.count, ns + site.self_ns)
        return rollup

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``a;b;c <self-ns>``).

        The format ``flamegraph.pl`` and speedscope both ingest; counts
        are nanoseconds of self time, so frame widths are wall time.
        """
        lines = []
        for path in sorted(self.stack_ns):
            ns = self.stack_ns[path]
            if ns > 0:
                lines.append(";".join(path) + f" {ns}")
        return lines

    # -- reports -------------------------------------------------------------

    def subsystem_table(self) -> str:
        """Per-subsystem wall-time attribution table."""
        total = self.profiled_ns or 1
        rows = []
        for subsystem, (calls, ns) in sorted(
            self.subsystem_rollup().items(), key=lambda item: -item[1][1]
        ):
            rows.append(
                (
                    subsystem,
                    calls,
                    f"{ns / 1e6:.2f}",
                    f"{100.0 * ns / total:.1f}",
                )
            )
        return render_rows(
            ["subsystem", "frames", "self (ms)", "% profiled"],
            rows,
            title="wall-clock by subsystem",
        )

    def site_table(self, top: int = 20) -> str:
        """The *top* sites by self wall time."""
        rows = []
        for site in sorted(self.sites.values(), key=lambda s: -s.self_ns)[:top]:
            mean_ns = site.self_ns / site.count if site.count else 0.0
            rows.append(
                (
                    site.label,
                    site.subsystem,
                    site.count,
                    f"{site.self_ns / 1e6:.2f}",
                    f"{mean_ns:.0f}",
                )
            )
        return render_rows(
            ["site", "subsystem", "count", "self (ms)", "mean (ns)"],
            rows,
            title=f"hottest sites (top {top})",
        )

    def phase_table(self) -> str:
        """Wall time of the synchronous verb-post path per txn phase.

        Covers the CPU cost of *initiating* verbs from each protocol
        phase (the posting path is synchronous between yields); the
        asynchronous execute/deliver halves land after the phase focus
        has moved on and are attributed per-site instead.
        """
        from repro.obs import TXN_PHASES

        order = {phase: index for index, phase in enumerate(TXN_PHASES)}
        rows = []
        for phase in sorted(self.phase_ns, key=lambda p: order.get(p, 99)):
            ns = self.phase_ns[phase]
            count = self.phase_counts[phase]
            rows.append(
                (phase, count, f"{ns / 1e6:.3f}", f"{ns / count:.0f}" if count else "-")
            )
        return render_rows(
            ["phase", "verb posts", "wall (ms)", "mean (ns/post)"],
            rows,
            title="verb-post wall time by txn phase",
        )

    def summary(self) -> str:
        """One-paragraph run summary (steps, wall time, rates)."""
        wall_s = self.run_wall_ns / 1e9
        lines = [f"kernel steps: {self.steps}  run wall: {wall_s:.3f} s"]
        if wall_s > 0 and self.steps:
            lines.append(
                f"events/sec: {self.steps / wall_s:,.0f}  "
                f"wall-us/event: {1e6 * wall_s / self.steps:.2f}"
            )
        return "\n".join(lines) + "\n"

    def report(self, top: int = 20) -> str:
        """The full ``repro perf`` profile report."""
        sections = [self.summary(), self.subsystem_table(), self.site_table(top)]
        if self.phase_ns:
            sections.append(self.phase_table())
        return "\n".join(sections)


class NullKernelProfiler:
    """Disabled profiler: every hook is a slotted no-op.

    Instrumented hot paths hold a profiler reference and call these
    hooks unconditionally — one attribute lookup plus one empty call,
    the same overhead contract as ``NullObs``. The kernel's dispatch
    loop itself pays *nothing*: ``Simulator`` only swaps in the
    profiled ``step`` when an enabled profiler is attached.
    """

    enabled = False

    __slots__ = ()

    def run_begin(self) -> None:
        pass

    def run_end(self) -> None:
        pass

    def push(self, category: str, detail: Optional[str] = None) -> None:
        pass

    def push_site(self, label: str, subsystem: str) -> None:
        pass

    def pop(self) -> None:
        pass

    def set_phase(self, phase: Optional[str]) -> None:
        pass

    def begin_step(self, entry: Any) -> None:
        pass

    end_step = pop

    def collapsed(self) -> List[str]:
        return []

    def report(self, top: int = 20) -> str:
        return "(profiling disabled)\n"


NULL_PROFILER = NullKernelProfiler()
