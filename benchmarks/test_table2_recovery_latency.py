"""Table 2 — Pandora's recovery latency vs coordinators per node.

Paper (CloudLab r650, 100 Gbps):

    Bench \\ Coord./node      1      8     64    128    256    512
    TPC-C                  8us   22us  158us  272us  563us  4951us
    SmallBank              8us  139us  232us  424us  876us  5272us
    TATP                   9us   20us  131us  513us 1039us  2236us
    MicroBench            10us   21us  119us  474us 1001us  2043us

We sweep 1..64 coordinators per node (the simulator's per-run budget)
and reproduce the two shape claims: (a) latency sits in the
microsecond-to-millisecond range, orders of magnitude below the
Baseline's seconds, and (b) it grows with the number of outstanding
coordinators.
"""

import pytest

from conftest import WORKLOAD_FACTORIES
from repro.bench.harness import run_recovery_latency
from repro.bench.report import format_table, write_report

COORDINATOR_SWEEP = [1, 8, 32, 64]
# The paper sweeps to 512; we extend the cheapest workload to 128 to
# show the trend continues.
EXTENDED_SWEEP = {"microbench": [1, 8, 32, 64, 128]}

PAPER_US = {
    "tpcc": {1: 8, 8: 22, 64: 158},
    "smallbank": {1: 8, 8: 139, 64: 232},
    "tatp": {1: 9, 8: 20, 64: 131},
    "microbench": {1: 10, 8: 21, 64: 119, 128: 474},
}


def _sweep():
    rows = []
    measured = {}
    for workload_name, factory in WORKLOAD_FACTORIES.items():
        for coordinators in EXTENDED_SWEEP.get(workload_name, COORDINATOR_SWEEP):
            result = run_recovery_latency(
                factory,
                coordinators_per_node=coordinators,
                protocol="pandora",
                crash_at=6e-3,
            )
            measured[(workload_name, coordinators)] = result.latency
            paper = PAPER_US.get(workload_name, {}).get(coordinators)
            rows.append(
                (
                    workload_name,
                    coordinators,
                    f"{result.latency * 1e6:9.1f}",
                    f"{paper:9.0f}" if paper is not None else "      n/a",
                )
            )
    return rows, measured


@pytest.mark.benchmark(group="table2")
def test_table2_recovery_latency(benchmark):
    rows, measured = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    text = format_table(
        "Table 2: Pandora log-recovery latency vs coordinators per node",
        ["workload", "coordinators", "measured (us)", "paper (us)"],
        rows,
        note=(
            "Shape claims: milliseconds at worst (vs the Baseline's "
            "seconds), growing with outstanding coordinators."
        ),
    )
    write_report("table2_recovery_latency", text)

    for workload_name in WORKLOAD_FACTORIES:
        low = measured[(workload_name, 1)]
        high = measured[(workload_name, COORDINATOR_SWEEP[-1])]
        # (a) always in the sub-10ms range.
        assert high < 10e-3, f"{workload_name}: {high}"
        # (b) grows with coordinator count.
        assert high > low, f"{workload_name}: {low} !< {high}"

