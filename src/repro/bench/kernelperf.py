"""Kernel raw-speed benchmark: events/sec and wall-µs/event.

Everything the protocol benchmarks measure is *virtual* time; this
module measures the only number virtual time cannot see — how fast the
host CPU turns the event heap. It sweeps the fleet-scale axis the
ROADMAP targets (coordinator count × key-space size), reports committed
``BENCH_KERNEL.json`` snapshots next to the protocol snapshots, and
gives CI a floor to gate kernel-speed regressions against, exactly the
way protocol regressions are already gated.

Methodology: each fleet is built fresh per repeat and the wall clock
brackets ``cluster.run`` only (construction, schema load, and reporting
are excluded — they are O(keys), not O(events), and would drown the
dispatch-loop signal on large key spaces). The *best* of ``repeats``
wall times is reported: wall-clock minima are the standard way to
suppress scheduler/GC noise on shared runners, and kernel-speed
regressions move the minimum just as surely as the mean. Step counts
are purely virtual and must be identical run-to-run — a changed
``steps`` against the committed baseline means simulated *behaviour*
changed, which is a different bug than slowness and is reported
separately.

Wall-clock reads live outside the simulation (SIM001-exempt): nothing
here feeds a measurement back into simulated behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.harness import default_config
from repro.bench.report import DEFAULT_TOLERANCE, format_table
from repro.cluster.builder import Cluster
from repro.workloads import MicroBenchmark

__all__ = [
    "FleetSpec",
    "KernelPerfResult",
    "DEFAULT_FLEETS",
    "SMOKE_FLEET",
    "SNAPSHOT_SCHEMA",
    "run_fleet",
    "run_suite",
    "suite_payload",
    "format_suite",
]

#: Snapshot format marker (bump on incompatible payload changes).
SNAPSHOT_SCHEMA = "kernel-perf/1"


@dataclass(frozen=True)
class FleetSpec:
    """One point on the fleet-scale axis (coordinators × key space)."""

    name: str
    compute_nodes: int
    coordinators_per_node: int
    keys: int
    #: Virtual seconds to simulate (after which the run is cut off).
    duration: float = 2e-3

    @property
    def coordinators(self) -> int:
        return self.compute_nodes * self.coordinators_per_node


#: The committed sweep: small / medium / large along both axes. The
#: virtual durations are sized so each repeat processes ~1e5 kernel
#: steps — enough for a stable events/sec figure while keeping the
#: whole 3-repeat sweep within a couple of minutes of CI wall time.
DEFAULT_FLEETS = (
    FleetSpec("2x8-1k", compute_nodes=2, coordinators_per_node=8, keys=1_000),
    FleetSpec(
        "2x32-10k",
        compute_nodes=2,
        coordinators_per_node=32,
        keys=10_000,
        duration=1e-3,
    ),
    FleetSpec(
        "4x64-100k",
        compute_nodes=4,
        coordinators_per_node=64,
        keys=100_000,
        duration=0.25e-3,
    ),
)

#: The 100x-scale smoke fleet: 1024 coordinators (16 compute nodes x 64
#: coordinators). Not part of the committed sweep — CI runs it with
#: ``repeats=1`` and checks only that it completes and reproduces its
#: step count (steps-only: a 1024-coordinator build is too slow-varying
#: on shared runners for a meaningful wall-clock gate).
SMOKE_FLEET = FleetSpec(
    "16x64-smoke",
    compute_nodes=16,
    coordinators_per_node=64,
    keys=100_000,
    duration=0.1e-3,
)


@dataclass
class KernelPerfResult:
    """Measured kernel speed for one fleet."""

    fleet: str
    coordinators: int
    keys: int
    virtual_duration: float
    steps: int
    wall_seconds: float  # best-of-repeats wall time of cluster.run
    repeats: int

    @property
    def events_per_sec(self) -> float:
        return self.steps / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def wall_us_per_event(self) -> float:
        return 1e6 * self.wall_seconds / self.steps if self.steps else 0.0


def _build_cluster(spec: FleetSpec, seed: int, profiler=None) -> Cluster:
    config = default_config(
        compute_nodes=spec.compute_nodes,
        coordinators_per_node=spec.coordinators_per_node,
        seed=seed,
    )
    workload = MicroBenchmark(num_keys=spec.keys, write_ratio=1.0)
    return Cluster(config, workload, profiler=profiler)


def run_fleet(
    spec: FleetSpec,
    repeats: int = 3,
    seed: int = 42,
    profiler=None,
) -> KernelPerfResult:
    """Measure one fleet; wall time is best-of-*repeats* around run().

    *profiler* (an enabled KernelProfiler) attaches to the **last**
    repeat only, so the reported timing repeats stay unperturbed while
    `repro perf --bench --profile` still gets attribution data.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best_ns: Optional[int] = None
    steps = 0
    for repeat in range(repeats):
        attach = profiler if repeat == repeats - 1 else None
        cluster = _build_cluster(spec, seed, profiler=attach)
        cluster.start()
        started = perf_counter_ns()  # simlint: disable=SIM001
        cluster.run(until=spec.duration)
        elapsed = perf_counter_ns() - started  # simlint: disable=SIM001
        if attach is None and (best_ns is None or elapsed < best_ns):
            best_ns = elapsed
        if steps and cluster.sim.processed_events != steps:
            raise AssertionError(
                f"non-deterministic step count for fleet {spec.name!r}: "
                f"{steps} then {cluster.sim.processed_events}"
            )
        steps = cluster.sim.processed_events
    if best_ns is None:
        # Single profiled repeat: fall back to its (perturbed) timing.
        best_ns = elapsed
    return KernelPerfResult(
        fleet=spec.name,
        coordinators=spec.coordinators,
        keys=spec.keys,
        virtual_duration=spec.duration,
        steps=steps,
        wall_seconds=best_ns / 1e9,
        repeats=repeats,
    )


def run_suite(
    fleets: Sequence[FleetSpec] = DEFAULT_FLEETS,
    repeats: int = 3,
    seed: int = 42,
) -> List[KernelPerfResult]:
    """Run every fleet in order; returns one result per fleet."""
    return [run_fleet(spec, repeats=repeats, seed=seed) for spec in fleets]


def suite_payload(
    results: Sequence[KernelPerfResult], tolerance: Optional[float] = None
) -> Dict[str, Any]:
    """The ``BENCH_KERNEL.json`` payload (see docs/OBSERVABILITY.md)."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "tolerance": DEFAULT_TOLERANCE if tolerance is None else tolerance,
        "fleets": {
            result.fleet: {
                "coordinators": result.coordinators,
                "keys": result.keys,
                "virtual_duration_s": result.virtual_duration,
                "steps": result.steps,
                "events_per_sec": round(result.events_per_sec, 1),
                "wall_us_per_event": round(result.wall_us_per_event, 4),
                "repeats": result.repeats,
            }
            for result in results
        },
    }


def format_suite(results: Sequence[KernelPerfResult]) -> str:
    """Human-readable sweep table (`repro perf --bench`)."""
    rows = [
        (
            result.fleet,
            result.coordinators,
            result.keys,
            result.steps,
            f"{result.events_per_sec:,.0f}",
            f"{result.wall_us_per_event:.2f}",
            f"{result.wall_seconds * 1e3:.1f}",
        )
        for result in results
    ]
    return format_table(
        "kernel speed sweep (coordinators x key space)",
        ["fleet", "coords", "keys", "steps", "events/sec", "us/event", "wall (ms)"],
        rows,
        note="wall time: best of N repeats around cluster.run() only; "
        "steps are virtual and must reproduce exactly per seed.",
    )
