"""Span recorder for the ledger's traced pass.

The program under test already exposes a profiler hook protocol
(``enabled``, ``begin_step``/``end_step``, ``push``/``pop``,
``on_schedule``, ``steps``) through the public ``Cluster(profiler=...)``
and ``Simulator(profiler=...)`` parameters. :class:`SpanRecorder`
implements that protocol from outside ``src/``, and :func:`installed`
adds class-level wrappers around the layer boundaries the hooks do
not cover (``MemoryNode.apply``, the sanitizer's verb hooks,
``check_cluster``, ``UserPopulation.next_request``).

Every span has a name, a start, an end and a parent: the kernel step
that caused it. Spans are aggregated in memory per (layer, site) and a
bounded raw sample is kept; nothing is written until the workload ends.
A span's self time is its duration minus the part its children cover.

What the recorder fixes over ``repro.obs.profile.KernelProfiler`` is the
owner of ``resume:<process>`` frames: they are billed to the layer whose
generator is being resumed (a coordinator's resume is protocol code, not
kernel code), see :data:`PROCESS_LAYERS`.

An enabled profiler makes the program take its instrumented twins
(``Simulator._profiled_step``, ``QueuePair._post_instrumented``,
``Network._profiled_delay``): the shares describe that observed build,
and ``trace.overhead_ratio`` bounds the distortion.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ledger.metrics import TRACE_LAYERS as LAYERS

#: Frames whose owner is none of :data:`LAYERS`.
OTHER = "other"

#: Process-name prefix -> the layer that owns the generator.
PROCESS_LAYERS = (
    ("coordinator-", "protocol"),
    ("lock-", "protocol"),
    ("load-u", "protocol"),
    ("recover-", "recovery"),
    ("rereplicate-", "recovery"),
    ("failure-detector", "recovery"),
    ("heartbeat-", "recovery"),
    ("recycler-watch", "recovery"),
    ("id-recycler", "recovery"),
    ("load-", "load"),
    ("chaos-", "chaos"),
)

#: ``repro.<package>`` -> layer, for raw callables on the kernel queue.
MODULE_LAYERS = {
    "sim": "sim",
    "rdma": "rdma",
    "memory": "memory",
    "protocol": "protocol",
    "workloads": "protocol",
    "kvs": "protocol",
    "util": "protocol",  # histograms and samplers run inside coordinators
    "recovery": "recovery",
    "cluster": "recovery",  # heartbeat deliveries, recycler watch
    "load": "load",
    "chaos": "chaos",
    "faults": "chaos",
    "analysis": "analysis",
    "obs": "analysis",
}

#: Profiler-hook categories pushed by the program's instrumented twins.
CATEGORY_LAYERS = {
    "fanin": "sim",
    "rdma.post": "rdma",
    "rdma.complete": "rdma",
    "network": "network",
    "fd": "recovery",
    "shim": "analysis",
}

SAMPLE_LIMIT = 4096


def _process_layer(name: str) -> str:
    for prefix, layer in PROCESS_LAYERS:
        if name.startswith(prefix):
            return layer
    return "sim"


def _site_name(name: str) -> str:
    """``coordinator-17`` -> ``coordinator-*`` (one site per kind)."""
    head = name.rstrip("0123456789:")
    return head + "*" if head != name else name


class SpanRecorder:
    """Implements the profiler hook protocol; aggregates spans in memory."""

    enabled = True

    def __init__(self) -> None:
        self.steps = 0
        self.scheduled = 0
        # (layer, site) -> [calls, self_ns, total_ns, layer, site]; frames
        # hold the record itself, so closing a span is three additions.
        self.sites: Dict[Tuple[str, str], list] = {}
        # bounded raw sample: (site, layer, start_ns, end_ns, parent step)
        self.sample: List[Tuple[str, str, int, int, int]] = []
        # open frames: [site record, start_ns, child_ns]
        self._stack: List[list] = []
        self._by_hook: Dict[Tuple[str, Optional[str]], list] = {}
        self._by_type: Dict[type, list] = {}
        self._by_code: Dict[Any, list] = {}
        self._last_step_end: Optional[int] = None
        self._run_loop = self.site("sim", "run-loop")

    def site(self, layer: str, name: str) -> list:
        """The aggregate record of one (layer, site)."""
        record = self.sites.get((layer, name))
        if record is None:
            record = self.sites[(layer, name)] = [0, 0, 0, layer, name]
        return record

    # -- profiler hook protocol -------------------------------------------

    def begin_step(self, entry: Any) -> None:
        now = perf_counter_ns()
        last = self._last_step_end
        if last is not None:
            # Between two kernel steps only the kernel's own loop runs.
            gap = now - last
            run_loop = self._run_loop
            run_loop[0] += 1
            run_loop[1] += gap
            run_loop[2] += gap
            if self._stack:  # stepping inside a benchmark-side span
                self._stack[-1][2] += gap
        self.steps += 1
        record = self._by_type.get(type(entry))
        if record is None:
            record = self._by_code.get(getattr(entry, "__code__", None))
            if record is None:
                record = self._classify(entry)
        self._stack.append([record, now, 0])

    def end_step(self) -> None:
        self._last_step_end = self.pop()

    def push(self, category: str, detail: Optional[str] = None) -> None:
        record = self._by_hook.get((category, detail))
        if record is None:
            if category == "resume":
                name = detail or ""
                record = self.site(_process_layer(name), f"resume:{_site_name(name)}")
            else:
                record = self.site(CATEGORY_LAYERS.get(category, OTHER),
                                   category if detail is None else f"{category}:{detail}")
            self._by_hook[(category, detail)] = record
        self._stack.append([record, perf_counter_ns(), 0])

    def pop(self) -> int:
        now = perf_counter_ns()
        record, start, child_ns = self._stack.pop()
        elapsed = now - start
        record[0] += 1
        record[1] += elapsed - child_ns
        record[2] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed
        if len(self.sample) < SAMPLE_LIMIT:
            self.sample.append((record[4], record[3], start, now, self.steps))
        return now

    def on_schedule(self, entry: Any) -> None:
        self.scheduled += 1

    def set_phase(self, phase: Optional[str]) -> None:
        pass

    # -- benchmark-side spans ---------------------------------------------

    def push_site(self, record: list) -> None:
        """Open a span at a boundary the hook protocol does not cover."""
        if not self._stack:
            self._last_step_end = None  # a root span outside the kernel loop
        self._stack.append([record, perf_counter_ns(), 0])

    def idle(self) -> None:
        """The kernel loop stopped: do not bill the pause to ``sim``."""
        self._last_step_end = None

    # -- classification ---------------------------------------------------

    def _classify(self, entry: Any) -> list:
        """The site of a kernel queue entry seen for the first time."""
        func = getattr(entry, "__func__", entry)
        code = getattr(func, "__code__", None)
        if code is None:
            # Event instances: the dispatch is the kernel's; the work the
            # callbacks do opens its own (resume/fanin) frames.
            record = self._by_type[type(entry)] = self.site("sim", f"event:{type(entry).__name__}")
            return record
        parts = (getattr(func, "__module__", "") or "").split(".")
        known = parts[0] == "repro" and len(parts) > 1
        layer = MODULE_LAYERS.get(parts[1], OTHER) if known else OTHER
        record = self.site(layer, f"cb:{getattr(func, '__qualname__', code.co_name)}")
        if func is entry:
            self._by_code[code] = record
        else:  # bound methods have no __code__ of their own
            self._by_code.setdefault(code, record)
        return record

    # -- derived views ----------------------------------------------------

    def layer_rollup(self) -> Dict[str, Tuple[int, int]]:
        """layer -> (calls, self ns)."""
        rollup: Dict[str, Tuple[int, int]] = {layer: (0, 0) for layer in LAYERS}
        for calls, self_ns, _total, layer, _site in self.sites.values():
            old_calls, old_ns = rollup.get(layer, (0, 0))
            rollup[layer] = (old_calls + calls, old_ns + self_ns)
        return rollup

    def site_mean_ns(self, layer: str, prefix) -> float:
        """Mean self ns over every site of *layer* starting with *prefix*."""
        calls = self_ns = 0
        for count, ns, _total, site_layer, site in self.sites.values():
            if site_layer == layer and site.startswith(prefix):
                calls += count
                self_ns += ns
        return self_ns / calls if calls else 0.0

    def calls(self, layer: str, site: str) -> int:
        return self.site(layer, site)[0]

    def dump(self, path, **meta: Any) -> None:
        """Write aggregates and the raw sample as JSON."""
        sites = [
            {"layer": layer, "site": site, "calls": calls, "self_ns": self_ns, "total_ns": total_ns}
            for calls, self_ns, total_ns, layer, site in sorted(
                self.sites.values(), key=lambda record: -record[1]
            )
        ]
        spans = [
            {"name": name, "layer": layer, "start_ns": start, "end_ns": end, "parent_step": step}
            for name, layer, start, end, step in self.sample
        ]
        with open(path, "w") as handle:
            json.dump({**meta, "steps": self.steps, "sites": sites, "spans": spans}, handle)


def _spanned(recorder: SpanRecorder, func, record_of):
    """Wrap *func* in a span; *record_of(args)* names its site."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        recorder.push_site(record_of(args))
        try:
            return func(*args, **kwargs)
        finally:
            recorder.pop()

    return wrapper


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap the boundaries the hook protocol misses; undo on exit."""
    from repro.analysis.sanitizer import PillSanitizer
    from repro.chaos import campaign, oracle
    from repro.load import engine, population
    from repro.memory.node import MemoryNode

    def fixed(func, layer: str, name: str):
        record = recorder.site(layer, name)
        return _spanned(recorder, func, lambda args: record)

    applies: Dict[str, list] = {}

    def apply_record(args) -> list:
        kind = args[2]  # MemoryNode.apply(self, src_compute_id, kind, args)
        record = applies.get(kind)
        if record is None:
            record = applies[kind] = recorder.site("memory", f"apply:{kind}")
        return record

    check = fixed(oracle.check_cluster, "chaos", "check_cluster")
    patches = [
        (MemoryNode, "apply", _spanned(recorder, MemoryNode.apply, apply_record)),
        (PillSanitizer, "before_verb",
         fixed(PillSanitizer.before_verb, "analysis", "sanitizer.before_verb")),
        (PillSanitizer, "after_verb",
         fixed(PillSanitizer.after_verb, "analysis", "sanitizer.after_verb")),
        (population.UserPopulation, "next_request",
         fixed(population.UserPopulation.next_request, "load", "next_request")),
        (oracle, "check_cluster", check),
        (campaign, "check_cluster", check),
        (engine, "check_cluster", check),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _new in patches]
    for owner, name, new in patches:
        setattr(owner, name, new)
    try:
        yield
    finally:
        for owner, name, old in saved:
            setattr(owner, name, old)
