"""The ledger's metric and workload tables: one source for run.py,
compare.py, the README and BENCHMARK.json.

Every metric says which clock it uses, in its unit. *host* is wall time
the simulator takes (``s`` and ``1/s`` end to end, ``host_s`` ...
``host_ns`` per layer); *virtual* is simulated time (``sim_us``,
``1/sim_s``), bit-reproducible per seed, as are the plain counts.
``python3 ledger/metrics.py`` prints the BENCHMARK.json these tables
imply.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Tuple

ZOO = ("pandora", "tradlog", "lotus", "vote1pc")
ALL_PROTOCOLS = ("pandora", "ford", "tradlog", "lotus", "vote1pc")
# The chaos bank may hold no schedule that fails, so it runs pandora on
# the schedule families that lose a memory node, and vote1pc and pandora
# in turn on the others. Scanned with the sanitizer on (README,
# Findings): pandora 0 of 800 seeds; vote1pc 6 of 120 on "overlap" and
# "logserver", 0 of 600 on the other three; lotus 1 of 60 there and 1 of
# 600 (a serializability cycle) on the other three; tradlog fails
# CHAOS-LOG on every family.
CHAOS_ZOO = ("vote1pc", "pandora")
MEMORY_LOSS_FAMILIES = ("overlap", "logserver")
RATES = (100_000, 200_000, 300_000, 400_000, 500_000, 600_000)
SLO_CO_P99_US = 500.0

WORKLOADS: Dict[str, str] = {
    "steady_smallbank": (
        "closed loop, 32 coordinators, write-mixed SmallBank: ~26 events and ~11 verbs "
        "per commit, so sim, rdma, memory and the lock/log/commit path dominate"
    ),
    "steady_tatp": (
        "same fleet, 80% read-only TATP: per-transaction cost outweighs per-verb cost; "
        "a write-path or logging change predicts no change here"
    ),
    "openloop_smallbank": (
        "open loop at six fixed rates through repro.load: the only workload where "
        "queueing shows (knee between 500k and 600k tps) and the load layer works"
    ),
    "failover_zoo": (
        "crash one compute node under pandora, tradlog, lotus and vote1pc: FD, link "
        "termination, log/vote recovery and lock stealing run only here and in chaos_bank"
    ),
    "chaos_bank": (
        "five seeded multi-fault schedules (pandora and vote1pc) with the sanitizer on: the only "
        "observed (instrumented QP) run, ending in the oracle and the serializability checker"
    ),
    "micro_layers": (
        "isolated loops over each layer's public API with fixed operation counts: a "
        "ceiling per layer that does not move when another layer's share moves"
    ),
}
EVERYWHERE = tuple(WORKLOADS)
#: What four untraced repeats of a workload take on the reference box,
#: averaged over the six (16-23 s); a repeat's work is fixed in virtual
#: time, so ``--seconds`` does not change it.
RUN_SECONDS = 20


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "host" | "virtual" | "count"
    #: end-to-end only: share of the baseline by which it may worsen
    bound: Optional[float] = None
    #: end-to-end only: an absolute allowance instead of a share
    bound_abs: Optional[float] = None
    #: which workloads report it (others print 0 under --workload)
    on: Tuple[str, ...] = EVERYWHERE
    #: end-to-end only: listed in BENCHMARK.json's ``end_to_end``, so the
    #: driver holds later PRs to ``bound`` on every workload
    gated: bool = False
    #: per-layer only: the end-to-end metric it should move, and where
    moves: str = ""

    @property
    def exact(self) -> bool:
        return self.clock != "host"


# -- end to end -------------------------------------------------------------
# One bound per metric, for compare.py and BENCHMARK.json alike. The host
# bounds are the driver's cap: the shared 2-core box is slow for minutes
# at a time, and the driver refuses a bound that the spread over ten
# seeds exceeds (README, "How noisy the box is").
#
# ``gated`` marks what the driver can hold a later PR to: a metric every
# workload reports, that is never 0, and whose spread from one seed to
# the next stays inside its bound. The rest fail one of the three (see
# ISSUE.md, Amendments): they are measured and compared on every full
# run, and listed under ``per_layer`` in BENCHMARK.json. ``wall_s`` is
# one of them: chaos_bank's work moves 12-15% with the seed's schedules,
# and commits_per_wall_s holds the same wall to the same bound.

END_TO_END: List[Metric] = [
    Metric("wall_s", "s", "lower", "host", 0.25),
    Metric("commits_per_wall_s", "1/s", "higher", "host", 0.25, gated=True),
    Metric("setup_s", "s", "lower", "host", 0.25, gated=True),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.25, gated=True),
    Metric("sim_commits_per_s", "1/sim_s", "higher", "virtual", 0.01),
    # 3%, not the issue's 2%: it is exact per seed but moves 0.7% from seed
    # to seed on micro_layers, and the driver wants a third of the bound.
    Metric("sim_p50_us", "sim_us", "lower", "virtual", 0.03, gated=True),
    Metric("sim_p99_us", "sim_us", "lower", "virtual", 0.05),
    Metric("sim_abort_rate", "ratio", "lower", "virtual", bound_abs=0.005),
    Metric("failure_rate", "ratio", "lower", "count", bound_abs=0.0),
    Metric("co_p99_us.r200k", "sim_us", "lower", "virtual", 0.10, on=("openloop_smallbank",)),
    Metric("co_p99_us.r400k", "sim_us", "lower", "virtual", 0.10, on=("openloop_smallbank",)),
    Metric("co_p99_us.r600k", "sim_us", "lower", "virtual", 0.10, on=("openloop_smallbank",)),
    Metric("slo_max_rate_tps", "1/sim_s", "higher", "virtual", bound_abs=100_000.0,
           on=("openloop_smallbank",)),
    Metric("recovery_us", "sim_us", "lower", "virtual", 0.05, on=("failover_zoo",)),
    Metric("failover_dip_ratio", "ratio", "higher", "virtual", 0.05, on=("failover_zoo",)),
]

# -- per layer --------------------------------------------------------------

_HOST_MOVES = "commits_per_wall_s, wall_s"


def _per_protocol(stem: str, unit: str, better: str, clock: str, on, moves: str,
                  protocols=ZOO) -> List[Metric]:
    return [Metric(f"{stem}.{p}", unit, better, clock, on=on, moves=moves) for p in protocols]


def _counts() -> List[Metric]:
    fail, load, chaos = ("failover_zoo",), ("openloop_smallbank",), ("chaos_bank",)
    recovery_moves = "recovery_us, failover_dip_ratio on failover_zoo"
    return [
        Metric("sim.events", "count", "lower", "count", moves=_HOST_MOVES),
        Metric("sim.events_per_commit", "count", "lower", "count",
               moves=_HOST_MOVES + " on steady_smallbank, failover_zoo"),
        Metric("sim.events_per_wall_s", "1/host_s", "higher", "host", moves=_HOST_MOVES),
        Metric("rdma.verbs", "count", "lower", "count", moves=_HOST_MOVES),
        Metric("rdma.verbs_per_commit", "count", "lower", "count",
               moves="commits_per_wall_s; if it drops also sim_p50_us, sim_commits_per_s, "
                     "on steady_smallbank (steady_tatp a quarter as much)"),
        Metric("protocol.attempts_per_commit", "count", "lower", "count",
               moves="sim_abort_rate, sim_p99_us, co_p99_us.r600k on openloop_smallbank, "
                     "failover_zoo"),
        Metric("protocol.locks_stolen", "count", "lower", "count",
               moves="sim_abort_rate, sim_p99_us on failover_zoo, chaos_bank"),
        Metric("protocol.steal_retries", "count", "lower", "count",
               moves="sim_p99_us on failover_zoo, chaos_bank"),
        Metric("load.service_p99_us.r400k", "sim_us", "lower", "virtual", on=load,
               moves="co_p99_us.r400k on openloop_smallbank"),
        Metric("load.queue_depth_mean.r600k", "count", "lower", "virtual", on=load,
               moves="co_p99_us.r600k, slo_max_rate_tps on openloop_smallbank"),
        Metric("load.queue_depth_peak.r600k", "count", "lower", "virtual", on=load,
               moves="co_p99_us.r600k, slo_max_rate_tps on openloop_smallbank"),
        Metric("load.backlog_end.r600k", "count", "lower", "virtual", on=load,
               moves="slo_max_rate_tps on openloop_smallbank"),
        Metric("recovery.detect_us", "sim_us", "lower", "virtual", on=fail, moves=recovery_moves),
        *_per_protocol("recovery.total_us", "sim_us", "lower", "virtual", fail, recovery_moves),
        *_per_protocol("recovery.log_us", "sim_us", "lower", "virtual", fail, recovery_moves),
        *_per_protocol("recovery.logged_txns", "count", "lower", "count", fail, recovery_moves),
        *_per_protocol("recovery.dip_ratio", "ratio", "higher", "virtual", fail, recovery_moves),
        Metric("chaos.crashes", "count", "higher", "count", on=chaos, moves="wall_s on chaos_bank"),
        Metric("chaos.recovery_kills", "count", "higher", "count", on=chaos,
               moves="wall_s on chaos_bank"),
        Metric("chaos.redetections", "count", "lower", "count", on=chaos,
               moves="wall_s on chaos_bank"),
        Metric("chaos.fingerprint", "hash", "higher", "count", on=chaos,
               moves="none: an identity check on the final state"),
        Metric("host.calibration_ms", "host_ms", "lower", "host",
               moves="none: the box's speed during the run; wall_s, setup_s and the rates are "
                     "scaled by it"),
    ]


TRACE_LAYERS = ("sim", "protocol", "rdma", "network", "memory",
                "recovery", "load", "chaos", "analysis")
_TRACE_ON = {
    "sim": "steady_smallbank, failover_zoo",
    "protocol": "steady_tatp, failover_zoo",
    "rdma": "steady_smallbank",
    "network": "steady_smallbank",
    "memory": "steady_smallbank",
    "recovery": "failover_zoo, chaos_bank",
    "load": "openloop_smallbank",
    "chaos": "chaos_bank",
    "analysis": "chaos_bank",
}
VERB_MIX = ("write_log", "cas_lock", "read_object", "write_object")


def _trace() -> List[Metric]:
    out: List[Metric] = []
    for layer in TRACE_LAYERS:
        moves = f"{_HOST_MOVES} on {_TRACE_ON[layer]}"
        out += [
            Metric(f"trace.{layer}.self_s", "host_s", "lower", "host", moves=moves),
            Metric(f"trace.{layer}.share", "share", "lower", "host", moves=moves),
            Metric(f"trace.{layer}.calls", "count", "lower", "count", moves=moves),
        ]
    for name in ("sim.dispatch", "protocol.resume", "rdma.post", "rdma.complete",
                 "network.delay", "memory.apply"):
        out.append(Metric(f"trace.{name}_ns", "host_ns", "lower", "host",
                          moves=f"{_HOST_MOVES} on {_TRACE_ON[name.split('.')[0]]}"))
    for kind in VERB_MIX:
        out.append(Metric(f"trace.memory.{kind}_per_commit", "count", "lower", "count",
                          moves="commits_per_wall_s; log writes also sim_p50_us, on "
                                "steady_smallbank (steady_tatp: reads, no log, no CAS)"))
    out += [
        Metric("trace.unattributed_share", "share", "lower", "host",
               moves="none: how much of the traced wall the layer shares explain"),
        Metric("trace.overhead_ratio", "ratio", "lower", "host",
               moves="none: bounds how far the traced shares are distorted"),
    ]
    return out


def _micro() -> List[Metric]:
    on = ("micro_layers",)

    def ns(name: str, moves: str) -> Metric:
        return Metric(name, "host_ns", "lower", "host", on=on, moves=moves)

    sim = _HOST_MOVES + " on steady_smallbank, failover_zoo; no sim_* anywhere"
    rdma = "commits_per_wall_s on steady_smallbank (11 verbs/commit), a quarter on steady_tatp"
    memory = "commits_per_wall_s on steady_smallbank; not steady_tatp for cas_lock/write_log"
    protocol = "commits_per_wall_s on steady_tatp, failover_zoo"
    setup = "setup_s on chaos_bank; wall_s nowhere"
    observed = "wall_s, commits_per_wall_s on chaos_bank; nothing on steady_*"
    return [
        ns("sim.call_soon_ns", sim), ns("sim.timer_ns", sim),
        ns("sim.timeout_resume_ns", sim), ns("sim.allof4_ns", sim),
        ns("rdma.network_delay_ns", rdma), ns("rdma.post_rtt_ns", rdma),
        ns("rdma.post_pipelined_ns", rdma), ns("rdma.post_unsignaled_ns", rdma),
        *[ns(f"memory.apply_ns.{kind}", memory)
          for kind in ("read_object", "read_header", "read_headers8",
                       "cas_lock", "write_object", "write_log")],
        *_per_protocol("protocol.txn_wall_us", "host_us", "lower", "host", on, protocol,
                       ALL_PROTOCOLS),
        *_per_protocol("protocol.events_per_commit", "count", "lower", "count", on, protocol,
                       ALL_PROTOCOLS),
        *_per_protocol("protocol.verbs_per_commit", "count", "lower", "count", on, protocol,
                       ALL_PROTOCOLS),
        Metric("recovery.window_wall_ms", "host_ms", "lower", "host", on=on,
               moves="wall_s on failover_zoo, chaos_bank"),
        Metric("recovery.window_events", "count", "lower", "count", on=on,
               moves="wall_s on failover_zoo, chaos_bank"),
        Metric("cluster.import_ms", "host_ms", "lower", "host", on=on, moves=setup),
        Metric("cluster.build_ms.smallbank5k", "host_ms", "lower", "host", on=on, moves=setup),
        Metric("cluster.build_ms.micro100k_256c", "host_ms", "lower", "host", on=on, moves=setup),
        ns("workloads.next_txn_ns.smallbank", protocol), ns("workloads.next_txn_ns.tatp", protocol),
        ns("load.next_request_ns", "wall_s on openloop_smallbank"),
        ns("load.poisson_times_ns", "wall_s on openloop_smallbank"),
        ns("util.histogram_add_ns", protocol), ns("util.zipf_sample_ns", protocol),
        Metric("chaos.oracle_check_ms", "host_ms", "lower", "host", on=on, moves=observed),
        Metric("obs.ratio.trace", "ratio", "lower", "host", on=on, moves=observed),
        Metric("obs.ratio.flight", "ratio", "lower", "host", on=on, moves=observed),
        Metric("obs.ratio.profile", "ratio", "lower", "host", on=on, moves=observed),
        Metric("analysis.ratio.sanitize", "ratio", "lower", "host", on=on, moves=observed),
    ]


COUNTS, TRACE, MICRO = _counts(), _trace(), _micro()
PER_LAYER: List[Metric] = COUNTS + TRACE + MICRO
BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """BENCHMARK.json in the form the driver's contract prescribes.

    Its entries take no key for clock, ``on`` or ``moves`` (those stay
    in these tables), and every ``end_to_end`` entry must come from every
    workload and never be 0: that is the ``gated`` metrics. The other
    end-to-end metrics go under ``per_layer``, except failure_rate, which
    must read 0 and travels as the result line's failed / attempted.
    """
    ungated = [m for m in END_TO_END if not m.gated and m.name != "failure_rate"]
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END if m.gated
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in ungated + PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
