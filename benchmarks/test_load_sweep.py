"""Open-loop load gate: a short two-point sweep per protocol.

Produces ``benchmarks/results/BENCH_LOAD.json`` (the committed baseline
CI gates against — see docs/OBSERVABILITY.md for the schema) and
``benchmarks/results/load_curves.txt``. The grid is fixed rather than
capacity-derived so the baseline is stable: one point the cluster keeps
up with and one far past the saturation knee, which pins down both
sides of every latency-vs-offered-load curve.

Three guards per (protocol, offered) point (the ``load/1`` row of
``repro.bench.report.SNAPSHOT_KINDS``): achieved throughput has a
tolerance floor, CO-corrected p99 a tolerance ceiling, and the commit
count must reproduce exactly — the sweep is seeded virtual time, so
commit drift means simulated behaviour changed and the baseline must be
regenerated deliberately (delete the JSON and rerun), not shrugged past.
"""

import json
import pathlib

import pytest

from repro.bench.report import gate, write_bench_snapshot, write_report
from repro.load import format_curves, run_sweep, sweep_payload
from repro.workloads import SmallBank

BASELINE = pathlib.Path(__file__).parent / "results" / "BENCH_LOAD.json"

#: One point the cluster keeps up with, one far past the knee.
GRID = [300_000.0, 1_200_000.0]
DURATION = 6e-3
USERS = 64
PROTOCOLS = ("pandora", "ford", "tradlog")


def _smallbank():
    return SmallBank(accounts=2_000, hot_accounts=500)


@pytest.fixture(scope="module")
def curves():
    return run_sweep(
        _smallbank,
        protocols=PROTOCOLS,
        grid=GRID,
        duration=DURATION,
        users=USERS,
    )


def test_load_curves_vs_committed_baseline(curves):
    payload = sweep_payload(curves)
    write_report("load_curves", format_curves(curves))
    if not BASELINE.exists():
        # First run on a fresh checkout: establish the baseline.
        write_bench_snapshot("LOAD", payload)
        return
    baseline = json.loads(BASELINE.read_text())
    failures = gate(payload, baseline)
    assert not failures, "load regression vs committed baseline:\n" + (
        "\n".join(f"  {failure}" for failure in failures)
    )


def test_saturation_knee_is_visible(curves):
    # Past-capacity offered load must visibly saturate every protocol;
    # a knee that never appears means the driver is secretly closed-loop.
    for curve in curves:
        assert curve.knee_offered_tps is not None, curve.protocol
        high = curve.points[-1]
        assert high.achieved_tps < 0.9 * high.offered, curve.protocol


def test_sub_saturation_point_keeps_up(curves):
    for curve in curves:
        low = curve.points[0]
        assert low.achieved_tps > 0.6 * low.offered, curve.protocol
        assert low.backlog_end <= 2, curve.protocol


def test_co_correction_inflates_the_saturated_tail(curves):
    # Under saturation the CO-corrected p99 (from intended arrival)
    # must dominate the pure service-time p99 — the gap is the queueing
    # delay a closed-loop driver would silently omit.
    for curve in curves:
        high = curve.points[-1]
        assert high.co.percentile(99) > high.service.percentile(99), curve.protocol
        # The 6ms window builds a deep queue (the drain grace then
        # empties it, so backlog/censored may legitimately be zero).
        assert high.queue_depth_peak > 100, curve.protocol


def test_accounting_is_exact_at_every_point(curves):
    for curve in curves:
        for point in curve.points:
            assert point.intended == (
                point.completed + point.unknown + point.censored
            ), (curve.protocol, point.offered)
