"""Observability overhead guard.

Every observer — tracing + metrics, the flight recorder, the PILL
sanitizer — promises (a) never to change simulated results and (b) a
bounded wall-clock factor over the run it observes. This file enforces
both and records the measured factors in
``benchmarks/results/obs_overhead.txt``.
"""

import gc
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
# work grows with the run); single runs on a busy box have read 1.51.
MAX_FLIGHT_OVERHEAD = 1.5

# The PILL sanitizer (repro.analysis) records two raw timeline tuples
# per verb and runs its per-kind rules on indexed shadow state; nothing
# is formatted unless a violation fires. Measured ~1.4-1.5x (1.8-2.0x
# while it rendered every timeline line eagerly).
MAX_SANITIZE_OVERHEAD = 1.6

# The box is shared and slow for seconds at a time, so every
# configuration is timed as the best of this many runs, taken in
# rounds (one run of each per round) so a slow spell lands on all.
RUNS_PER_CONFIGURATION = 2

CONFIGURATIONS = {
    "no obs": {},
    "Obs(trace=True)": {"make_obs": lambda: Obs(trace=True)},
    "Obs(trace=True, flight=True)": {"make_obs": lambda: Obs(trace=True, flight=True)},
    "sanitize=True": {"sanitize": True},
}


def _timed_run(make_obs=lambda: None, sanitize=False):
    # The collector is this run's cost only for what this run builds:
    # the previous run's cluster is cyclic garbage (a flown one holds
    # ~1M verb entries), and the test session's own heap (pytest and
    # its plugins) is not the program's either.
    gc.collect()
    gc.freeze()
    try:
        started = time.perf_counter()
        result = run_steady_state(
            FACTORY,
            "pandora",
            duration=DURATION,
            warmup=STEADY_WARMUP,
            obs=make_obs(),
            sanitize=sanitize,
        )
        return result, time.perf_counter() - started
    finally:
        gc.unfreeze()


def test_obs_overhead():
    results = {name: [] for name in CONFIGURATIONS}
    walls = {name: [] for name in CONFIGURATIONS}
    for _ in range(RUNS_PER_CONFIGURATION):
        for name, observers in CONFIGURATIONS.items():
            result, wall = _timed_run(**observers)
            results[name].append(result)
            walls[name].append(wall)
    best = {name: min(times) for name, times in walls.items()}
    baseline = results["no obs"][0]
    baseline_wall = best["no obs"]
    traced_wall = best["Obs(trace=True)"]
    flown_wall = best["Obs(trace=True, flight=True)"]
    sanitized_wall = best["sanitize=True"]

    # (a) Simulated outcomes are identical in every configuration and
    # every repeat — with the flight recorder on (attribution is
    # passive) or off, and with the sanitizer shadowing every verb.
    for name, outcomes in results.items():
        assert outcomes == [baseline] * RUNS_PER_CONFIGURATION, name

    ratio = traced_wall / baseline_wall
    flight_ratio = flown_wall / traced_wall
    sanitize_ratio = sanitized_wall / baseline_wall
    rows = [
        (name, f"{wall:.3f}", f"{wall / baseline_wall:.2f}") for name, wall in best.items()
    ]
    write_report(
        "obs_overhead",
        format_table(
            f"observer overhead (smallbank, {baseline.commits} commits, "
            f"best of {RUNS_PER_CONFIGURATION} runs each)",
            ["configuration", "wall (s)", "vs no obs"],
            rows,
        ),
    )

    # (b) Each observer stays within its wall-clock budget: tracing and
    # the sanitizer over a plain run, the flight recorder over tracing.
    assert ratio < MAX_ENABLED_OVERHEAD, (
        f"tracing overhead {ratio:.2f}x exceeds {MAX_ENABLED_OVERHEAD}x"
    )
    assert flight_ratio < MAX_FLIGHT_OVERHEAD, (
        f"flight-recorder overhead {flight_ratio:.2f}x over tracing "
        f"exceeds {MAX_FLIGHT_OVERHEAD}x"
    )
    assert sanitize_ratio < MAX_SANITIZE_OVERHEAD, (
        f"sanitizer overhead {sanitize_ratio:.2f}x exceeds {MAX_SANITIZE_OVERHEAD}x"
    )
