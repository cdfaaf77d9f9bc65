"""Hot-key contention gate: the protocol zoo under Zipf-skewed RMW load.

Produces ``benchmarks/results/BENCH_CONTENTION.json`` (the committed
baseline CI gates against) and ``benchmarks/results/contention.txt``.
The sweep drives the paper's 1 000-key RMW microbenchmark at three Zipf
skews across all five protocols on a fixed two-point offered grid, so
the baseline pins down each lock strategy's abort-rate and queueing
behaviour on both sides of the knee.

Four guards per (protocol, theta, offered) point (the ``contention/1``
row of ``repro.bench.report.SNAPSHOT_KINDS``): achieved throughput has a
tolerance floor, CO-corrected p99 and abort rate tolerance ceilings, and
the commit count must reproduce exactly — seeded virtual time means
commit drift is a behaviour change that needs a deliberate re-baseline
(delete the JSON and rerun), not a shrug.
"""

import json
import pathlib

import pytest

from repro.bench.report import gate, write_bench_snapshot, write_report
from repro.load import (
    CONTENTION_PROTOCOLS,
    CONTENTION_THETAS,
    contention_payload,
    format_contention,
    run_contention_sweep,
)

BASELINE = pathlib.Path(__file__).parent / "results" / "BENCH_CONTENTION.json"

#: One point the cluster keeps up with, one past the saturation knee.
GRID = (150_000.0, 600_000.0)
DURATION = 5e-3
USERS = 64


@pytest.fixture(scope="module")
def curves():
    return run_contention_sweep(grid=GRID, duration=DURATION, users=USERS)


def test_contention_vs_committed_baseline(curves):
    payload = contention_payload(curves)
    write_report("contention", format_contention(curves))
    if not BASELINE.exists():
        # First run on a fresh checkout: establish the baseline.
        write_bench_snapshot("CONTENTION", payload)
        return
    baseline = json.loads(BASELINE.read_text())
    failures = gate(payload, baseline)
    assert not failures, "contention regression vs committed baseline:\n" + (
        "\n".join(f"  {failure}" for failure in failures)
    )


def test_every_zoo_protocol_and_skew_is_covered(curves):
    seen = {(curve.protocol, curve.theta) for curve in curves}
    expected = {
        (protocol, theta)
        for protocol in CONTENTION_PROTOCOLS
        for theta in CONTENTION_THETAS
    }
    assert seen == expected


def test_sub_saturation_point_keeps_up(curves):
    for curve in curves:
        low = curve.points[0]
        assert low.achieved_tps > 0.6 * low.offered, curve.label
        assert low.backlog_end <= 2, curve.label


def test_skew_inflates_the_tail(curves):
    # Per protocol, the hottest skew must show a worse saturated p99
    # than the YCSB-standard skew — if it does not, the workload knob
    # is not actually concentrating traffic and the sweep is vacuous.
    by_protocol = {}
    for curve in curves:
        by_protocol.setdefault(curve.protocol, {})[curve.theta] = curve
    for protocol, thetas in by_protocol.items():
        mild = thetas[min(thetas)].points[-1]
        hot = thetas[max(thetas)].points[-1]
        assert hot.co.percentile(99) > mild.co.percentile(99), protocol


def test_contention_produces_conflicts(curves):
    # At the hottest skew past the knee, at least one protocol must
    # record real aborts — zero everywhere means the RMW transactions
    # never collide and the sweep measures nothing.
    hottest = [curve for curve in curves if curve.theta == max(CONTENTION_THETAS)]
    assert any(curve.points[-1].aborts > 0 for curve in hottest)
