"""Observability overhead guard.

The obs layer promises (a) a run with no obs argument is **identical**
to the pre-obs code path — the NOOP_OBS singleton's no-op hooks must
not change any outcome — and (b) enabling full tracing+metrics costs a
bounded wall-clock factor and never changes simulated results. This
file enforces both and records the measured factor in
``benchmarks/results/obs_overhead.txt``.
"""

import time

from conftest import STEADY_WARMUP, smallbank_factory
from repro.bench.harness import run_steady_state
from repro.bench.report import format_table, write_report
from repro.obs import Obs

DURATION = 12e-3
FACTORY = smallbank_factory()

# Enabled tracing does real work (one histogram sample + span per
# phase, counters per verb); allow a generous factor before flagging a
# hot-path regression. Measured ~1.4-1.7x.
MAX_ENABLED_OVERHEAD = 2.5

# The flight recorder adds one list append per posted verb and two
# in-place writes per completion on top of tracing. Measured ~1.3-1.45x
# over the traced run (it keeps every verb entry, so the collector's
# work grows with the run); a busy box has read 1.5 once.
MAX_FLIGHT_OVERHEAD = 1.5


def _timed_run(obs):
    started = time.perf_counter()
    result = run_steady_state(
        FACTORY, "pandora", duration=DURATION, warmup=STEADY_WARMUP, obs=obs
    )
    return result, time.perf_counter() - started


def test_obs_overhead():
    baseline, baseline_wall = _timed_run(None)
    disabled, disabled_wall = _timed_run(None)  # second run: warm caches
    traced, traced_wall = _timed_run(Obs(trace=True))
    flown, flown_wall = _timed_run(Obs(trace=True, flight=True))
    unflown, _unflown_wall = _timed_run(Obs(trace=True, flight=False))

    # (a) Simulated outcomes are identical in every configuration —
    # including with the flight recorder on (attribution is passive)
    # and explicitly off (the NULL_FLIGHT path).
    assert disabled == baseline
    assert traced == baseline
    assert flown == baseline
    assert unflown == baseline

    ratio = traced_wall / disabled_wall
    flight_ratio = flown_wall / traced_wall
    rows = [
        ("no obs (baseline)", f"{baseline_wall:.3f}", "-"),
        ("no obs (warm)", f"{disabled_wall:.3f}", "1.00"),
        ("Obs(trace=True)", f"{traced_wall:.3f}", f"{ratio:.2f}"),
        ("Obs(trace=True, flight=True)", f"{flown_wall:.3f}",
         f"{flown_wall / disabled_wall:.2f}"),
    ]
    write_report(
        "obs_overhead",
        format_table(
            f"observability overhead (smallbank, {baseline.commits} commits)",
            ["configuration", "wall (s)", "vs disabled"],
            rows,
        ),
    )

    # (b) Enabled tracing stays within a bounded wall-clock factor,
    # and the flight recorder stays within its own factor over tracing.
    assert ratio < MAX_ENABLED_OVERHEAD, (
        f"tracing overhead {ratio:.2f}x exceeds {MAX_ENABLED_OVERHEAD}x"
    )
    assert flight_ratio < MAX_FLIGHT_OVERHEAD, (
        f"flight-recorder overhead {flight_ratio:.2f}x over tracing "
        f"exceeds {MAX_FLIGHT_OVERHEAD}x"
    )
