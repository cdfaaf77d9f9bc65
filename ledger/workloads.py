"""The six ledger workloads, driven through the program's public API.

Each workload function takes a :class:`Rep` — one repeat in one fresh
interpreter. It builds everything it will run inside ``rep.setup()``,
calls ``rep.ready()``, then runs inside ``rep.measure()`` blocks and
leaves its results on the rep: ``exact`` (virtual-time values and
counts, bit-identical per seed and code), ``host`` (host-clock
per-layer values) and the operation counts behind ``failure_rate``.

``rep.scale`` divides every virtual duration (``--quick`` passes 8).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.bench.harness import default_config
from repro.chaos import ChaosRunner, campaign, generate_schedule
from repro.cluster.builder import Cluster
from repro.load import OpenLoopEngine, PoissonArrivals, UserPopulation
from repro.util.stats import Histogram
from repro.workloads.smallbank import SmallBank
from repro.workloads.tatp import Tatp

from ledger import micro
from ledger.metrics import CHAOS_ZOO, MEMORY_LOSS_FAMILIES, RATES, SLO_CO_P99_US, ZOO

ACCOUNTS = 5_000
SUBSCRIBERS = 2_000
_FINGERPRINT_MODULUS = 1 << 53  # stays exact as a JSON number


class SetupOnly(Exception):
    """Raised by :meth:`Rep.ready` in a repeat that only samples set-up."""


class Rep:
    """One repeat of one workload: clocks, tallies and results."""

    def __init__(self, seed: int, scale: int = 1, profiler: Any = None,
                 setup_only: bool = False, startup_s: float = 0.0, import_s: float = 0.0) -> None:
        self.seed = seed
        #: what importing the program (and the ledger) took in this child
        self.import_s = import_s
        self.scale = scale
        self.profiler = profiler
        self.setup_only = setup_only
        #: interpreter start + imports, then every setup() block
        self.setup_s = startup_s
        self.wall_s = 0.0
        self.exact: Dict[str, float] = {}
        self.host: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        # Tallies over every cluster the workload builds.
        self.commits = 0
        self.aborts = 0
        self.attempts = 0
        self.events = 0
        self.verbs = 0
        self.locks_stolen = 0
        self.steal_retries = 0
        self.window_commits = 0.0
        self.window_seconds = 0.0
        self.latency = Histogram(min_value=1e-7, max_value=10.0)

    def ms(self, milliseconds: float) -> float:
        """Virtual seconds for a nominal duration in ms."""
        return milliseconds * 1e-3 / self.scale

    def config(self, **overrides: Any):
        """``default_config`` with the seed, and with the throughput
        window and failure-detector timings scaled like every duration."""
        settings = dict(
            seed=self.seed,
            throughput_window=self.ms(0.5),
            fd_timeout=self.ms(5.0),
            fd_heartbeat_interval=self.ms(1.0),
            fd_check_interval=self.ms(0.5),
        )
        settings.update(overrides)
        return default_config(**settings)

    @contextlib.contextmanager
    def setup(self) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.setup_s += time.perf_counter() - started

    def ready(self) -> None:
        """Set-up is complete; the run phase starts here."""
        if self.setup_only:
            raise SetupOnly

    @contextlib.contextmanager
    def measure(self, span: Optional[tuple] = None) -> Iterator[None]:
        """Time a block of the run phase.

        *span* = (layer, site) also records the block as a root span in
        the traced pass, for work that runs outside any kernel step.
        """
        profiler = self.profiler
        if profiler is not None:
            profiler.idle()
            if span is not None:
                profiler.push_site(profiler.site(*span))
        started = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - started
            if profiler is not None and span is not None:
                profiler.pop()

    def cluster(self, config: Any, workload: Any) -> Cluster:
        """Build a cluster that reports its spans to this rep's recorder."""
        return Cluster(config, workload, profiler=self.profiler)

    def chaos_runner(self, schedule: Any, **kwargs: Any) -> ChaosRunner:
        """A ``ChaosRunner`` builds its own cluster: in the traced pass,
        rebind its module's ``Cluster`` name to one that takes the recorder."""
        if self.profiler is None:
            return ChaosRunner(schedule, **kwargs)
        original = campaign.Cluster
        campaign.Cluster = functools.partial(Cluster, profiler=self.profiler)
        try:
            return ChaosRunner(schedule, **kwargs)
        finally:
            campaign.Cluster = original

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.failures.append(f"{count} x {what}")

    def tally(self, cluster: Cluster, window: Optional[tuple] = None) -> Any:
        """Fold one finished cluster's public counters into the rep."""
        stats = cluster.aggregate_stats()
        self.commits += stats.commits
        self.aborts += stats.aborts
        self.attempts += stats.attempts
        self.locks_stolen += stats.locks_stolen
        self.steal_retries += stats.steal_retries
        self.latency.merge(stats.latency)
        self.events += cluster.sim.processed_events
        self.verbs += cluster.recovery.verbs.posted_verb_count() + sum(
            node.verbs.posted_verb_count() for node in cluster.compute_nodes.values()
        )
        if window is not None:
            start, end = window
            self.window_commits += cluster.timeline.rate_between(start, end) * (end - start)
            self.window_seconds += end - start
        return stats

    def fail_app_errors(self, stats: Any) -> None:
        """Fault-free workloads: a transaction body must never raise.

        Not for runs with injected faults: an ``Interrupt`` delivered
        mid-attempt is booked as an ``app_error`` abort there.
        """
        self.fail(stats.abort_reasons.get("app_error", 0), "app_error abort")

    def finish(self) -> None:
        """Derive the metrics every workload reports from the tallies."""
        exact = self.exact
        commits = max(self.commits, 1)
        exact["sim_commits_per_s"] = (
            self.window_commits / self.window_seconds if self.window_seconds else 0.0
        )
        exact["sim_p50_us"] = self.latency.percentile(50) * 1e6
        exact["sim_p99_us"] = self.latency.percentile(99) * 1e6
        exact["sim_abort_rate"] = self.aborts / self.attempts if self.attempts else 0.0
        exact["latency_samples"] = self.latency.count
        exact["commits"] = self.commits
        exact["sim.events"] = self.events
        exact["sim.events_per_commit"] = self.events / commits
        exact["rdma.verbs"] = self.verbs
        exact["rdma.verbs_per_commit"] = self.verbs / commits
        exact["protocol.attempts_per_commit"] = self.attempts / commits
        exact["protocol.locks_stolen"] = self.locks_stolen
        exact["protocol.steal_retries"] = self.steal_retries


# -- closed loop --------------------------------------------------------------


def _steady(rep: Rep, make_workload: Callable[[], Any], warmup_ms: float,
            measured_ms: float) -> None:
    warmup, end = rep.ms(warmup_ms), rep.ms(warmup_ms + measured_ms)
    with rep.setup():
        cluster = rep.cluster(rep.config(), make_workload())
        cluster.start()
    rep.ready()
    with rep.measure():
        cluster.run(until=end)
    stats = rep.tally(cluster, window=(warmup, end))
    rep.attempted += stats.attempts
    rep.fail_app_errors(stats)


def steady_smallbank(rep: Rep) -> None:
    _steady(rep, lambda: SmallBank(accounts=ACCOUNTS), 2.0, 8.0)


def steady_tatp(rep: Rep) -> None:
    _steady(rep, lambda: Tatp(subscribers=SUBSCRIBERS), 2.0, 8.0)


# -- open loop ----------------------------------------------------------------


class _PunctualPopulation(UserPopulation):
    """Records how late the arrival generator asked for a request."""

    def __init__(self, sim: Any, workload: Any, **kwargs: Any) -> None:
        super().__init__(workload, **kwargs)
        self.sim = sim
        self.max_lateness = 0.0

    def next_request(self, now: float):
        lateness = self.sim.now - now
        if lateness > self.max_lateness:
            self.max_lateness = lateness
        return super().next_request(now)


def openloop_smallbank(rep: Rep) -> None:
    warmup = rep.ms(2.0)
    # The low rates run longer, so that r200k keeps 2k samples (20 beyond p99).
    windows = [rep.ms(11.0 if rate <= 200_000 else 6.0) for rate in RATES]
    engines = []
    with rep.setup():
        for rate, measured in zip(RATES, windows):
            workload = SmallBank(accounts=ACCOUNTS)
            cluster = rep.cluster(rep.config(), workload)
            population = _PunctualPopulation(
                cluster.sim, workload, users=256, zipf_theta=0.99, seed=rep.seed
            )
            engines.append(OpenLoopEngine(
                cluster,
                population,
                float(rate),
                measured,
                arrivals=PoissonArrivals(),
                warmup=warmup,
                seed=rep.seed + 7,
                check_oracle=(rate == 400_000),
            ))
    rep.ready()
    exact = rep.exact
    slo_rate = 0
    for rate, measured, engine in zip(RATES, windows, engines):
        label = f"r{rate // 1000}k"
        with rep.measure():
            result = engine.run()
        rep.fail_app_errors(rep.tally(engine.cluster, window=(warmup, warmup + measured)))
        rep.attempted += result.intended
        rep.fail(result.unknown, f"unknown outcome at {label}")
        rep.fail(result.censored, f"censored request at {label}")
        rep.fail(len(result.violations), f"oracle violation at {label}")
        rep.fail(int(result.intended != result.completed + result.unknown + result.censored),
                 f"accounting mismatch at {label}")
        # The generator runs in virtual time, so it must never be late.
        rep.fail(int(engine.population.max_lateness > 1e-9), f"late arrival generator at {label}")
        co_p99 = result.co.percentile(99) * 1e6
        if label in ("r200k", "r400k", "r600k"):
            exact[f"co_p99_us.{label}"] = co_p99
            exact[f"co_samples.{label}"] = result.co.count
        if label == "r400k":
            exact["load.service_p99_us.r400k"] = result.service.percentile(99) * 1e6
        if label == "r600k":
            exact["load.queue_depth_mean.r600k"] = result.queue_depth_mean
            exact["load.queue_depth_peak.r600k"] = result.queue_depth_peak
            exact["load.backlog_end.r600k"] = result.backlog_end
        if co_p99 <= SLO_CO_P99_US and result.backlog_end == 0 and result.censored == 0:
            slo_rate = rate
    exact["slo_max_rate_tps"] = slo_rate


# -- failover -----------------------------------------------------------------


def failover_zoo(rep: Rep) -> None:
    crash_at = rep.ms(1.5)
    # Detection scales with the run; recovery and the window after it do not.
    horizon = crash_at + rep.ms(5.0) + 1e-3
    window = rep.ms(0.5)
    clusters = {}
    with rep.setup():
        for protocol in ZOO:
            cluster = rep.cluster(rep.config(protocol=protocol), SmallBank(accounts=ACCOUNTS))
            cluster.start()
            cluster.crash_compute(0, at=crash_at)
            clusters[protocol] = cluster
    rep.ready()
    exact = rep.exact
    for protocol, cluster in clusters.items():
        with rep.measure():
            cluster.run(until=horizon)
        rep.tally(cluster, window=(window, horizon))
        rep.attempted += 1
        records = [r for r in cluster.recovery.records if r.kind == "compute" and r.finished_at > 0]
        if not records:
            rep.fail(1, f"{protocol}: no finished compute recovery")
            continue
        record = records[0]
        timeline = cluster.timeline
        pre = timeline.rate_between(window, crash_at)
        # Whole throughput windows between the crash and recovery's end.
        recovered = int(record.finished_at / window) * window
        dip = timeline.rate_between(crash_at, recovered) / pre if pre else 0.0
        post = timeline.rate_between(recovered + window, horizon)
        if post < 0.8 * 0.5 * pre:
            rep.fail(1, f"{protocol}: post-recovery rate {post:.0f}/s below 0.4 x {pre:.0f}/s")
        exact[f"recovery.total_us.{protocol}"] = record.total_latency * 1e6
        exact[f"recovery.log_us.{protocol}"] = record.log_recovery_latency * 1e6
        exact[f"recovery.logged_txns.{protocol}"] = record.logged_txns
        exact[f"recovery.dip_ratio.{protocol}"] = dip
        if protocol == "pandora":
            exact["recovery.detect_us"] = (record.detected_at - crash_at) * 1e6
            exact["recovery_us"] = record.total_latency * 1e6
            exact["failover_dip_ratio"] = dip


# -- chaos --------------------------------------------------------------------


def chaos_bank(rep: Rep) -> None:
    # Five consecutive schedule seeds: each of the five fault families
    # once whatever --seed is, so the work hardly depends on the seed.
    # The families that lose a memory node run under pandora, the
    # others under vote1pc and pandora in turn: see CHAOS_ZOO.
    count = max(5 // rep.scale, 2)
    zoo = itertools.cycle(CHAOS_ZOO)
    with rep.setup():
        runners = []
        for index in range(count):
            schedule = generate_schedule(rep.seed + index)
            if schedule.family not in MEMORY_LOSS_FAMILIES:
                schedule = generate_schedule(schedule.seed, next(zoo))
            runners.append(rep.chaos_runner(schedule, sanitize=True))
    rep.ready()
    crashes = kills = redetections = fingerprint = 0
    for runner in runners:
        with rep.measure():
            result = runner.run()
        stats = rep.tally(runner.cluster)
        rep.window_commits += stats.commits
        rep.window_seconds += result.end_time
        rep.attempted += 1
        if result.violations:
            schedule = runner.schedule
            rep.fail(1, f"schedule {schedule.seed}/{schedule.protocol}: {result.violations[0]}")
        crashes += result.crashes
        kills += result.recovery_kills
        redetections += result.redetections
        fingerprint = (fingerprint * 1000003 + result.fingerprint) % _FINGERPRINT_MODULUS
    rep.exact.update({
        "chaos.crashes": crashes,
        "chaos.recovery_kills": kills,
        "chaos.redetections": redetections,
        "chaos.fingerprint": fingerprint,
    })


WORKLOADS: Dict[str, Callable[[Rep], None]] = {
    "steady_smallbank": steady_smallbank,
    "steady_tatp": steady_tatp,
    "openloop_smallbank": openloop_smallbank,
    "failover_zoo": failover_zoo,
    "chaos_bank": chaos_bank,
    "micro_layers": micro.run,
}
