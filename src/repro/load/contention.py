"""Hot-key contention sweep across the protocol zoo (Figs 13-14 axis).

Every lock strategy in the zoo behaves identically when transactions
never collide; the differences the strategy refactor exists to expose —
CAS retry storms vs FAA ticket fairness, logged vs logless commit under
abort pressure — only show up when many coordinators hammer the same
few keys.  This sweep drives the paper's hot-object microbenchmark
(RMW transactions over a 1 000-key table) through the open-loop engine
at three Zipf skews per protocol and reports abort-rate and CO-corrected
p99 against offered load.

``contention_payload`` serialises the sweep into a ``contention/1``
snapshot; the committed sweep (``tests/integration/golden/
contention.json``) is pinned exactly by the golden, like the load one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.load.engine import LoadResult
from repro.load.sweep import LoadCurve, format_curves, run_load_point
from repro.protocol.zoo import TRIPLES
from repro.workloads import MicroBenchmark

__all__ = [
    "CONTENTION_SCHEMA",
    "CONTENTION_PROTOCOLS",
    "CONTENTION_THETAS",
    "HOT_KEYS",
    "ContentionCurve",
    "contention_workload",
    "run_contention_sweep",
    "contention_payload",
    "format_contention",
]

#: Snapshot format marker (bump on incompatible payload changes).
CONTENTION_SCHEMA = "contention/1"

#: The full zoo: every strategy triple the engine can run.
CONTENTION_PROTOCOLS = TRIPLES

#: Zipf skews over the hot keyspace: YCSB-standard 0.99, then two
#: progressively hotter tails where a handful of keys absorb most of
#: the traffic and lock-queue behaviour dominates.
CONTENTION_THETAS = (0.99, 1.2, 1.5)

#: The paper's small hot set (Fig 13): 1 000 keys.
HOT_KEYS = 1_000


@dataclass
class ContentionCurve:
    """One (protocol, zipf-theta) abort/latency-vs-offered-load curve."""

    protocol: str
    theta: float
    workload: str = "microbench"
    arrivals: str = "poisson"
    points: List[LoadResult] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.protocol} s={self.theta:g}"


def contention_workload(theta: float, hot_keys: int = HOT_KEYS) -> MicroBenchmark:
    """The hot-object microbenchmark at one skew.

    RMW transactions (read-for-update, then write) hold each lock across
    a round trip, so two transactions sampling the same hot key genuinely
    collide — blind writes would pipeline past each other and hide the
    lock strategy entirely.
    """
    return MicroBenchmark(
        num_keys=hot_keys,
        write_ratio=0.5,
        ops_per_txn=2,
        zipf_theta=theta,
        rmw=True,
    )


def run_contention_sweep(
    protocols: Sequence[str] = CONTENTION_PROTOCOLS,
    thetas: Sequence[float] = CONTENTION_THETAS,
    grid: Sequence[float] = (150_000.0, 600_000.0),
    duration: float = 5e-3,
    users: int = 64,
    seed: int = 42,
    progress: Optional[Callable[[str], None]] = None,
    **point_kwargs,
) -> List[ContentionCurve]:
    """Walk the offered grid for every (protocol, theta) pair.

    The grid is fixed rather than capacity-derived so the committed
    baseline is stable: one point the cluster keeps up with and one past
    the saturation knee, where queueing on the hot keys separates the
    lock strategies.
    """
    curves: List[ContentionCurve] = []
    for theta in thetas:
        factory = lambda theta=theta: contention_workload(theta)  # noqa: E731
        for protocol in protocols:
            curve = ContentionCurve(protocol=protocol, theta=theta)
            for offered in grid:
                point = run_load_point(
                    protocol,
                    factory,
                    offered,
                    duration=duration,
                    users=users,
                    seed=seed,
                    **point_kwargs,
                )
                curve.workload = point.workload
                curve.arrivals = point.arrivals
                curve.points.append(point)
                if progress is not None:
                    progress(
                        f"[contention] {curve.label:16s} "
                        f"offered={offered:10,.0f} "
                        f"achieved={point.achieved_tps:10,.0f} "
                        f"abort%={100 * point.abort_rate:5.1f} "
                        f"co_p99={point.co.percentile(99) * 1e6:9.1f}us"
                    )
            curves.append(curve)
    return curves


def contention_payload(curves: Sequence[ContentionCurve]) -> Dict[str, Any]:
    """The ``contention/1`` payload.

    Curves are keyed by ``"<protocol> s=<theta>"`` with the same point
    dicts as the load snapshot, so ``render_load_html`` works on it
    unchanged.
    """
    return {
        "schema": CONTENTION_SCHEMA,
        "workload": curves[0].workload if curves else "",
        "arrivals": curves[0].arrivals if curves else "",
        "hot_keys": HOT_KEYS,
        "curves": {
            curve.label: {
                "protocol": curve.protocol,
                "theta": curve.theta,
                "points": [point.summary() for point in curve.points],
            }
            for curve in curves
        },
    }


def format_contention(curves: Sequence[ContentionCurve]) -> str:
    """Terminal rendering: reuse the load-curve tables per (proto, s)."""
    return format_curves(
        [
            LoadCurve(
                protocol=curve.label,
                workload=curve.workload,
                arrivals=curve.arrivals,
                points=curve.points,
            )
            for curve in curves
        ]
    )
