"""repro.load — the open-loop, population-scale traffic engine.

Closed-loop drivers (litmus, chaos, microbench) couple request
issuance to request completion: when the system slows down the driver
slows down with it, so the saturation knee and the queueing tail are
invisible. This package drives the protocol engines the way a real
population would:

* :mod:`repro.load.arrivals` — open-loop arrival processes (Poisson,
  bursty/MMPP, diurnal ramp) generating *intended* arrival times that
  do not depend on how the system is coping.
* :mod:`repro.load.population` — a Zipf-skewed user population with
  per-user sessions over the SmallBank/TATP/TPC-C mixes (hot users
  create hot keys through ``Workload.user_transaction``).
* :mod:`repro.load.engine` — the open-loop driver: requests queue for
  a bounded coordinator pool, latency is coordinated-omission-corrected
  (measured from the intended arrival time, so queueing delay counts),
  and queue depth/backlog are first-class measurements.
* :mod:`repro.load.slo` — live rolling-window SLO monitors and the
  chaos oracle's workload-level invariants (money conservation,
  order-id consistency) evaluated under traffic.
* :mod:`repro.load.sweep` — walks offered load across a grid and emits
  latency-vs-offered-load curves per protocol, with ``load/1``
  snapshots.
* :mod:`repro.load.contention` — the hot-key contention sweep: the
  paper's 1 000-key RMW microbenchmark at three Zipf skews across the
  full protocol zoo, with ``contention/1`` snapshots.
"""

from repro.load.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    DiurnalArrivals,
    MmppArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.load.engine import LoadResult, OpenLoopEngine, Request
from repro.load.population import UserPopulation
from repro.load.slo import (
    ConservationMonitor,
    OrderIdMonitor,
    SloMonitor,
    WorkloadInvariant,
)
from repro.load.contention import (
    CONTENTION_PROTOCOLS,
    CONTENTION_SCHEMA,
    CONTENTION_THETAS,
    ContentionCurve,
    contention_payload,
    contention_workload,
    format_contention,
    run_contention_sweep,
)
from repro.load.sweep import (
    DEFAULT_MULTIPLIERS,
    DEFAULT_PROTOCOLS,
    SNAPSHOT_SCHEMA,
    LoadCurve,
    default_offered_grid,
    estimate_capacity,
    format_curves,
    run_load_point,
    run_sweep,
    sweep_payload,
)

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "PoissonArrivals",
    "MmppArrivals",
    "DiurnalArrivals",
    "make_arrivals",
    "UserPopulation",
    "Request",
    "OpenLoopEngine",
    "LoadResult",
    "SloMonitor",
    "WorkloadInvariant",
    "ConservationMonitor",
    "OrderIdMonitor",
    "LoadCurve",
    "run_load_point",
    "run_sweep",
    "estimate_capacity",
    "default_offered_grid",
    "sweep_payload",
    "format_curves",
    "SNAPSHOT_SCHEMA",
    "DEFAULT_PROTOCOLS",
    "DEFAULT_MULTIPLIERS",
    "ContentionCurve",
    "contention_workload",
    "run_contention_sweep",
    "contention_payload",
    "format_contention",
    "CONTENTION_SCHEMA",
    "CONTENTION_PROTOCOLS",
    "CONTENTION_THETAS",
]
