"""Kernel raw-speed benchmark: events/sec sweep + regression gate.

Gates against ``benchmarks/results/BENCH_KERNEL.json`` (the committed
wall-time baseline — see docs/OBSERVABILITY.md for the schema) and
writes ``benchmarks/results/kernel_perf.txt``. Two guards:

* **speed**: events/sec per fleet must stay within the committed
  baseline's tolerance (default 25%); a drop beyond it means the
  dispatch loop or a subsystem hot path regressed. The baseline's
  ``steps`` column is virtual and pinned exactly by the golden
  (``python -m tests.integration.golden``), not here.
* **overhead**: a fully-profiled run must stay within a bounded
  wall-clock factor of the unprofiled run (the profiler's frame
  push/pop is ~10 dict operations per instrumented boundary).
  Measured 2.5-3.1x (a faster unprofiled loop raises the ratio, a
  saved frame lowers it); mirrors ``test_obs_overhead.py``'s slack.
"""

import pathlib

from repro.bench.kernelperf import (
    DEFAULT_FLEETS,
    SMOKE_FLEET,
    SNAPSHOT_SCHEMA,
    run_fleet,
    run_suite,
    suite_payload,
    format_suite,
)
from repro.bench.report import gate, read_snapshot, write_report
from repro.obs.profile import KernelProfiler

BASELINE = pathlib.Path(__file__).parent / "results" / "BENCH_KERNEL.json"

# Measured 2.5-3.1x: the profiled twin pays a frame push/pop per
# boundary that the unprofiled loop does not, so whatever speeds the
# unprofiled denominator up raises the ratio. 4x still catches a
# profiler hot-path regression (which moves the ratio, not the
# denominator).
MAX_PROFILED_OVERHEAD = 4.0


def test_kernel_events_per_sec():
    # A missing or foreign baseline fails by name; it is recorded on
    # purpose, from a quiet machine, never as a side effect of a run.
    baseline = read_snapshot(
        BASELINE,
        SNAPSHOT_SCHEMA,
        "PYTHONPATH=src python -m repro perf --bench --snapshot KERNEL",
    )
    results = run_suite(repeats=3)
    payload = suite_payload(results)
    write_report("kernel_perf", format_suite(results))
    failures = gate(payload, baseline)
    assert not failures, "kernel-perf regression vs committed baseline:\n" + (
        "\n".join(f"  {failure}" for failure in failures)
    )


def test_smoke_fleet_1024_coordinators():
    """100x-scale smoke: 1024 coordinators must run and reproduce steps.

    Steps-only by design — no wall-clock gate. The point is that the
    ring kernel survives a fleet two orders of magnitude beyond the
    committed sweep's smallest point without blowing up (queue growth,
    recursion, quadratic scans), and that its virtual behaviour is
    still seed-deterministic at that scale.
    """
    first = run_fleet(SMOKE_FLEET, repeats=1, seed=42)
    assert first.steps > 0
    again = run_fleet(SMOKE_FLEET, repeats=1, seed=42)
    assert again.steps == first.steps


def test_profiled_overhead_bounded():
    spec = DEFAULT_FLEETS[0]
    plain = run_fleet(spec, repeats=2, seed=42)
    profiler = KernelProfiler()
    profiled = run_fleet(spec, repeats=1, seed=42, profiler=profiler)
    # Same seed, same fleet: the virtual run must be bit-identical.
    assert profiled.steps == plain.steps
    assert profiler.steps == plain.steps
    ratio = profiled.wall_seconds / plain.wall_seconds
    assert ratio < MAX_PROFILED_OVERHEAD, (
        f"profiled run {ratio:.2f}x slower than unprofiled "
        f"(bound {MAX_PROFILED_OVERHEAD}x)"
    )
