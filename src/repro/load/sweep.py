"""Load sweeps: latency-vs-offered-load curves.

A sweep first estimates the cluster's closed-loop capacity (a short
pandora steady-state run), builds an offered-load grid as multiples of
that capacity, and then runs one open-loop point per (protocol,
offered) pair — the *same* absolute grid for every protocol, so the
curves are directly comparable and the saturation knee (the first point
where achieved throughput falls visibly short of offered) shows up as a
divergence between the x=y line and each protocol's achieved curve.

``sweep_payload`` serialises a sweep into a ``load/1`` snapshot. Every
number in it is seeded virtual time, so the committed two-point sweep
(``tests/integration/golden/load.json``) is pinned exactly by the
golden, not gated within a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.bench.harness import default_config, run_steady_state
from repro.cluster.builder import Cluster
from repro.load.arrivals import ArrivalProcess, PoissonArrivals
from repro.load.engine import LoadResult, OpenLoopEngine
from repro.load.population import UserPopulation
from repro.obs.metrics import render_rows

__all__ = [
    "SNAPSHOT_SCHEMA",
    "DEFAULT_PROTOCOLS",
    "DEFAULT_MULTIPLIERS",
    "LoadCurve",
    "estimate_capacity",
    "default_offered_grid",
    "run_load_point",
    "run_sweep",
    "sweep_payload",
    "format_curves",
]

#: Snapshot format marker (bump on incompatible payload changes).
SNAPSHOT_SCHEMA = "load/1"

DEFAULT_PROTOCOLS = ("pandora", "ford", "tradlog")

#: Offered-load grid as multiples of estimated closed-loop capacity:
#: three sub-saturation points, the capacity point, and one past the
#: knee so the curve visibly bends.
DEFAULT_MULTIPLIERS = (0.25, 0.5, 0.75, 1.0, 1.4)


@dataclass
class LoadCurve:
    """One protocol's latency-vs-offered-load curve."""

    protocol: str
    workload: str
    arrivals: str
    points: List[LoadResult] = field(default_factory=list)

    @property
    def knee_offered_tps(self) -> Optional[float]:
        """First offered rate where achieved < 90% of offered."""
        for point in self.points:
            if point.achieved_tps < 0.9 * point.offered:
                return point.offered
        return None


def estimate_capacity(
    workload_factory: Callable[[], object],
    protocol: str = "pandora",
    duration: float = 10e-3,
    **config_overrides,
) -> float:
    """Closed-loop committed throughput: the sweep's capacity anchor.

    Virtual-time determinism makes this exactly reproducible per seed,
    so grids derived from it are stable across machines.
    """
    result = run_steady_state(
        workload_factory,
        protocol=protocol,
        duration=duration,
        warmup=2e-3,
        **config_overrides,
    )
    return result.throughput


def default_offered_grid(
    capacity: float, multipliers: Sequence[float] = DEFAULT_MULTIPLIERS
) -> List[float]:
    """Offered rates walked by the sweep (rounded for stable labels)."""
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    return [round(capacity * m, 1) for m in multipliers]


def run_load_point(
    protocol: str,
    workload_factory: Callable[[], object],
    offered: float,
    duration: float = 20e-3,
    warmup: float = 2e-3,
    arrivals: Optional[ArrivalProcess] = None,
    users: int = 256,
    zipf_theta: float = 0.99,
    session_length: float = 20.0,
    monitor_factory: Optional[Callable[[object], Sequence]] = None,
    slo=None,
    slo_factory: Optional[Callable[[], object]] = None,
    check_oracle: bool = False,
    crash_compute: Sequence = (),
    config=None,
    **config_overrides,
) -> LoadResult:
    """One open-loop point: build a fresh cluster and drive it.

    ``monitor_factory`` (workload -> monitors) is called with the
    point's actual workload instance so invariant monitors observe the
    same object the cluster loads data into; ``slo_factory`` likewise
    builds a fresh :class:`~repro.load.slo.SloMonitor` per point
    (rolling windows are per-run state).
    """
    cfg = config or default_config(protocol=protocol, **config_overrides)
    workload = workload_factory()
    monitors = list(monitor_factory(workload)) if monitor_factory else []
    if slo_factory is not None:
        slo = slo_factory()
    cluster = Cluster(cfg, workload)
    population = UserPopulation(
        workload,
        users=users,
        zipf_theta=zipf_theta,
        session_length=session_length,
        seed=cfg.seed,
    )
    engine = OpenLoopEngine(
        cluster,
        population,
        offered,
        duration,
        arrivals=arrivals if arrivals is not None else PoissonArrivals(),
        warmup=warmup,
        seed=cfg.seed + 7,
        monitors=monitors,
        slo=slo,
        check_oracle=check_oracle,
        crash_compute=crash_compute,
    )
    return engine.run()


def run_sweep(
    workload_factory: Callable[[], object],
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    grid: Optional[Sequence[float]] = None,
    duration: float = 20e-3,
    arrivals: Optional[ArrivalProcess] = None,
    users: int = 256,
    zipf_theta: float = 0.99,
    monitor_factory: Optional[Callable[[object], Sequence]] = None,
    check_oracle: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    **point_kwargs,
) -> List[LoadCurve]:
    """Walk the offered-load grid for each protocol.

    ``monitor_factory`` (workload -> monitors) builds fresh workload
    invariants per point — monitors hold per-run state, so sharing one
    across points would cross-contaminate their observations.
    """
    if grid is None:
        capacity = estimate_capacity(workload_factory)
        grid = default_offered_grid(capacity)
        if progress is not None:
            progress(
                f"[sweep] estimated capacity {capacity:,.0f} tps; "
                f"grid: {', '.join(f'{g:,.0f}' for g in grid)}"
            )
    curves = []
    for protocol in protocols:
        curve: Optional[LoadCurve] = None
        for offered in grid:
            point = run_load_point(
                protocol,
                workload_factory,
                offered,
                duration=duration,
                arrivals=arrivals,
                users=users,
                zipf_theta=zipf_theta,
                monitor_factory=monitor_factory,
                check_oracle=check_oracle,
                **point_kwargs,
            )
            if curve is None:
                curve = LoadCurve(protocol, point.workload, point.arrivals)
            curve.points.append(point)
            if progress is not None:
                progress(
                    f"[sweep] {protocol:8s} offered={offered:10,.0f} "
                    f"achieved={point.achieved_tps:10,.0f} "
                    f"co_p99={point.co.percentile(99) * 1e6:9.1f}us "
                    f"abort%={100 * point.abort_rate:5.1f} "
                    f"backlog={point.backlog_end}"
                )
        assert curve is not None
        curves.append(curve)
    return curves


def sweep_payload(curves: Sequence[LoadCurve]) -> Dict[str, Any]:
    """The ``load/1`` payload (see docs/OBSERVABILITY.md)."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "workload": curves[0].workload if curves else "",
        "arrivals": curves[0].arrivals if curves else "",
        "curves": {
            curve.protocol: {
                "knee_offered_tps": curve.knee_offered_tps,
                "points": [point.summary() for point in curve.points],
            }
            for curve in curves
        },
    }


def _bar(value: float, peak: float, width: int = 30) -> str:
    filled = int(round(width * value / peak)) if peak else 0
    return "#" * min(width, filled)


def format_curves(curves: Sequence[LoadCurve]) -> str:
    """Terminal rendering: one table per protocol + a knee summary."""
    parts: List[str] = []
    peak_p99 = max(
        (point.co.percentile(99) for curve in curves for point in curve.points),
        default=0.0,
    )
    for curve in curves:
        rows = []
        for point in curve.points:
            p99 = point.co.percentile(99)
            rows.append(
                (
                    f"{point.offered:,.0f}",
                    f"{point.achieved_tps:,.0f}",
                    f"{point.co.percentile(50) * 1e6:.1f}",
                    f"{p99 * 1e6:.1f}",
                    f"{point.co.percentile(99.9) * 1e6:.1f}",
                    f"{100 * point.abort_rate:.1f}",
                    f"{point.queue_depth_mean:.1f}",
                    point.backlog_end,
                    _bar(p99, peak_p99),
                )
            )
        knee = curve.knee_offered_tps
        knee_text = f"{knee:,.0f} tps" if knee is not None else "not reached"
        parts.append(
            render_rows(
                [
                    "offered",
                    "achieved",
                    "co_p50us",
                    "co_p99us",
                    "co_p999us",
                    "abort%",
                    "queue",
                    "backlog",
                    "p99 (CO-corrected)",
                ],
                rows,
                title=(
                    f"{curve.protocol} / {curve.workload} / {curve.arrivals} "
                    f"(knee: {knee_text})"
                ),
            )
        )
        violations = [v for point in curve.points for v in point.violations]
        if violations:
            parts.append(
                "violations:\n  " + "\n  ".join(violations[:10]) + "\n"
            )
    return "\n".join(parts)
