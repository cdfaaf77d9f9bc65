"""Experiment runners behind every reproduced table and figure.

Each runner builds a fresh simulated deployment, drives it for a span
of *virtual* time, and returns plain result objects the benchmark files
format into the paper's rows/series. Scale note: coordinator counts
and run lengths are reduced relative to the paper's testbed (which
sustains ~0.9 MTps for tens of seconds) so that each experiment
simulates in seconds of wall time; EXPERIMENTS.md documents the
mapping. Shapes — ratios, drops, recovery behaviour — are what these
runners reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.cluster.builder import Cluster
from repro.cluster.config import ClusterConfig
from repro.faults.mttf import MttfProcess

__all__ = [
    "default_config",
    "SteadyStateResult",
    "FailoverResult",
    "RecoveryLatencyResult",
    "run_steady_state",
    "run_failover",
    "run_recovery_latency",
    "run_mttf",
]


def default_config(**overrides) -> ClusterConfig:
    """The benchmark topology: 2 memory + 2 compute nodes, f+1 = 2,
    plus the dedicated FD/recovery server — the paper's five-machine
    setup (§4.1), with detection parameters matched to §6 (5 ms FD
    timeout)."""
    defaults = dict(
        memory_nodes=2,
        compute_nodes=2,
        coordinators_per_node=16,
        replication_degree=2,
        protocol="pandora",
        fd_timeout=5e-3,
        fd_heartbeat_interval=1e-3,
        fd_check_interval=0.5e-3,
        throughput_window=2e-3,
        seed=42,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


@dataclass
class SteadyStateResult:
    protocol: str
    workload: str
    duration: float
    throughput: float  # committed txns / second (simulated)
    commits: int
    aborts: int
    abort_rate: float
    locks_stolen: int
    p50_latency: float
    p99_latency: float

    def row(self) -> str:
        return (
            f"{self.protocol:10s} {self.workload:12s} "
            f"{self.throughput / 1e6:8.3f} Mtps  commits={self.commits:8d} "
            f"abort%={100 * self.abort_rate:5.1f}  p50={self.p50_latency * 1e6:6.1f}us "
            f"p99={self.p99_latency * 1e6:7.1f}us"
        )


@dataclass
class FailoverResult:
    protocol: str
    workload: str
    crash_kind: str
    crash_at: float
    series: List[Tuple[float, float]]
    pre_rate: float
    during_rate: float
    post_rate: float
    recovery_records: list = field(default_factory=list)


@dataclass
class RecoveryLatencyResult:
    workload: str
    coordinators: int
    latency: float  # log-recovery step latency (seconds)


def _run(
    workload_factory: Callable[[], object],
    cfg: ClusterConfig,
    until: float,
    arm: Optional[Callable[[Cluster], None]] = None,
    obs=None,
    profiler=None,
) -> Cluster:
    """The one experiment body: build, start, arm the faults, run to
    *until*, raise the first PILL violation a sanitized run collected,
    sample the kernel gauges. Returns the finished cluster."""
    cluster = Cluster(cfg, workload_factory(), obs=obs, profiler=profiler)
    cluster.start()
    if arm is not None:
        arm(cluster)
    cluster.run(until=until)
    if cluster.sanitizer is not None and cluster.sanitizer.violations:
        # Each violation is a structured AssertionError with the verb
        # timeline attached; re-raising the first is the loud path the
        # CLI/CI rely on.
        raise cluster.sanitizer.violations[0]
    if obs is not None:
        obs.sample_kernel(cluster.sim)
    return cluster


def _steady_result(
    cluster: Cluster, protocol: str, duration: float, start: float, end: float
) -> SteadyStateResult:
    """Throughput over [start, end) plus the run's whole-life counters."""
    stats = cluster.aggregate_stats()
    attempts = stats.commits + stats.aborts
    return SteadyStateResult(
        protocol=protocol,
        workload=cluster.workload.name,
        duration=duration,
        throughput=cluster.timeline.rate_between(start, end),
        commits=stats.commits,
        aborts=stats.aborts,
        abort_rate=stats.aborts / attempts if attempts else 0.0,
        locks_stolen=stats.locks_stolen,
        p50_latency=stats.latency.percentile(50),
        p99_latency=stats.latency.percentile(99),
    )


def run_steady_state(
    workload_factory: Callable[[], object],
    protocol: str = "pandora",
    duration: float = 40e-3,
    warmup: float = 5e-3,
    config: Optional[ClusterConfig] = None,
    obs=None,
    profiler=None,
    **config_overrides,
) -> SteadyStateResult:
    """Failure-free throughput over *duration* of simulated time."""
    cfg = config or default_config(protocol=protocol, **config_overrides)
    end = warmup + duration
    cluster = _run(workload_factory, cfg, end, obs=obs, profiler=profiler)
    return _steady_result(cluster, protocol, duration, warmup, end)


def run_failover(
    workload_factory: Callable[[], object],
    protocol: str = "pandora",
    crash_kind: str = "compute",
    crash_at: float = 20e-3,
    duration: float = 60e-3,
    reuse_resources: bool = False,
    restart_after: float = 10e-3,
    config: Optional[ClusterConfig] = None,
    obs=None,
    **config_overrides,
) -> FailoverResult:
    """Crash one node mid-run and record the throughput timeline.

    ``reuse_resources=True`` restarts the crashed compute node shortly
    after recovery (the paper's "failed resources reused" curve,
    §6.4); memory crashes exercise the §3.2.5 reconfiguration path.
    """
    if crash_kind not in ("compute", "memory"):
        raise ValueError(f"unknown crash kind {crash_kind!r}")
    cfg = config or default_config(protocol=protocol, **config_overrides)
    if reuse_resources:
        cfg.restart_failed_after = restart_after
    if crash_kind == "memory" and cfg.memory_nodes < 3:
        # Keep f live replicas after the crash.
        cfg.memory_nodes = 3

    def arm(cluster: Cluster) -> None:
        if crash_kind == "compute":
            cluster.crash_compute(0, at=crash_at)
        else:
            cluster.crash_memory(0, at=crash_at)

    cluster = _run(workload_factory, cfg, duration, arm, obs=obs)
    window = cfg.throughput_window
    pre = cluster.timeline.rate_between(5e-3, crash_at - window)
    during = cluster.timeline.rate_between(crash_at, min(crash_at + 15e-3, duration))
    post = cluster.timeline.rate_between(min(crash_at + 20e-3, duration - window), duration)
    return FailoverResult(
        protocol=protocol,
        workload=cluster.workload.name,
        crash_kind=crash_kind,
        crash_at=crash_at,
        series=cluster.timeline.series(0.0, duration),
        pre_rate=pre,
        during_rate=during,
        post_rate=post,
        recovery_records=list(cluster.recovery.records),
    )


def run_recovery_latency(
    workload_factory: Callable[[], object],
    coordinators_per_node: int,
    protocol: str = "pandora",
    crash_at: float = 15e-3,
    config: Optional[ClusterConfig] = None,
    obs=None,
    **config_overrides,
) -> RecoveryLatencyResult:
    """Table 2: log-recovery latency vs outstanding coordinators."""
    cfg = config or default_config(
        protocol=protocol,
        coordinators_per_node=coordinators_per_node,
        **config_overrides,
    )
    # Give detection + recovery ample time; scan recovery needs more.
    _name, declaration = cfg.resolve_protocol()
    horizon = crash_at + (0.4 if declaration.needs_quiesce_scan else 30e-3)
    cluster = _run(
        workload_factory,
        cfg,
        horizon,
        lambda cluster: cluster.crash_compute(0, at=crash_at),
        obs=obs,
    )
    records = [r for r in cluster.recovery.records if r.kind == "compute"]
    if not records:
        raise RuntimeError("recovery never ran — horizon too short?")
    return RecoveryLatencyResult(
        workload=cluster.workload.name,
        coordinators=coordinators_per_node,
        latency=records[0].log_recovery_latency,
    )


def run_mttf(
    workload_factory: Callable[[], object],
    mttf: Optional[float],
    protocol: str = "pandora",
    duration: float = 60e-3,
    repair_time: float = 2e-3,
    config: Optional[ClusterConfig] = None,
    **config_overrides,
) -> SteadyStateResult:
    """Fig 7: steady-state throughput while crashing/restoring half of
    the coordinators every ``mttf`` seconds (None = no failures)."""
    cfg = config or default_config(protocol=protocol, **config_overrides)

    def arm(cluster: Cluster) -> None:
        # Crash/restore one of the two compute nodes = half of the
        # coordinators, as in §6.2.
        MttfProcess(
            cluster.sim,
            cluster.compute_nodes[0],
            restart=cluster.restart_compute,
            mttf=mttf,
            repair_time=repair_time,
            rng=random.Random(cfg.seed + 99),
        ).start()

    cluster = _run(workload_factory, cfg, duration, arm if mttf is not None else None)
    return _steady_result(cluster, protocol, duration, 5e-3, duration)
