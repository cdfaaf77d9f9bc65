"""Self-tests of the ledger; run with ``python -m pytest ledger -q``.

Deliberately outside ``testpaths``: they spawn the benchmark (three
``--quick`` runs and a few single workloads, about two minutes), which
the tier-1 suite should not pay for.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ledger import compare, metrics, run, trace

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "ledger" / "run.py")]


def _quick(path: Path, seed: int) -> dict:
    done = subprocess.run(RUN + ["--quick", "--seed", str(seed), "--out", str(path)],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stdout[-2000:]
    payload = json.loads(path.read_text())
    payload["stdout"] = done.stdout
    payload["path"] = str(path)
    return payload


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("ledger")
    return (_quick(base / "a.json", 42), _quick(base / "b.json", 42), _quick(base / "c.json", 43))


def _exact_values(payload: dict) -> dict:
    return {
        (workload, name): entry["value"]
        for workload, result in payload["workloads"].items()
        for name, entry in result["metrics"].items()
        if name in metrics.BY_NAME and metrics.BY_NAME[name].exact
    }


def test_benchmark_json_is_the_metric_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    assert len(committed["workloads"]) == 6
    assert len(metrics.END_TO_END) == 15
    assert len(metrics.PER_LAYER) == 118
    assert len(committed["per_layer"]) <= 128
    names = [m["name"] for m in committed["end_to_end"] + committed["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])
    setup = next(m for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in committed["end_to_end"]) <= 0.25


def test_every_metric_is_reported_where_it_applies(quick_runs):
    payload = quick_runs[0]
    assert payload["schema"] == run.SCHEMA
    for workload, result in payload["workloads"].items():
        reported = result["metrics"]
        for metric in metrics.END_TO_END + metrics.PER_LAYER:
            if workload in metric.on:
                assert metric.name in reported, (workload, metric.name)
                assert f" {metric.name} " in payload["stdout"]
        assert result["failed"] == 0, result["failures"]
        assert reported["failure_rate"]["value"] == 0


def test_exact_metrics_repeat_per_seed_and_move_with_it(quick_runs):
    a, b, c = (_exact_values(payload) for payload in quick_runs)
    assert a == b
    for workload in metrics.WORKLOADS:
        assert a[(workload, "sim.events")] != c[(workload, "sim.events")]
    rows, mismatches = compare.compare(quick_runs[0], quick_runs[1])
    assert not mismatches
    assert all(result == "ok" for _w, metric, _a, _b, result in rows if metric.exact)
    # Files made with different seeds are refused, not compared.
    assert compare.main([quick_runs[0]["path"], quick_runs[2]["path"]]) == 2


def test_trace_accounts_for_the_traced_wall(quick_runs):
    for workload, result in quick_runs[0]["workloads"].items():
        reported = result["metrics"]
        assert abs(reported["trace_coverage"]["value"] - 1.0) < 0.05, workload
        assert reported["trace.overhead_ratio"]["value"] > 1.0
    steady = quick_runs[0]["workloads"]["steady_smallbank"]["metrics"]
    assert steady["trace.unattributed_share"]["value"] < 0.10
    # resume:coordinator-* is protocol code, not kernel code.
    assert steady["trace.protocol.share"]["value"] > 0.15
    sites = json.loads((ROOT / "ledger" / "results" / "trace_steady_smallbank.json").read_text())
    owners = {site["site"]: site["layer"] for site in sites["sites"]}
    assert owners["resume:coordinator-*"] == "protocol"
    assert all(span["end_ns"] >= span["start_ns"] for span in sites["spans"])


def test_recorder_leaves_virtual_results_alone(quick_runs):
    # measure() fails a workload whose events, commits or fingerprint
    # differ between the untraced and the traced repeat.
    for result in quick_runs[0]["workloads"].values():
        assert not [text for text in result["failures"] if "under the recorder" in text]
    chaos = quick_runs[0]["workloads"]["chaos_bank"]["metrics"]
    assert chaos["chaos.fingerprint"]["value"] > 0


def test_wrappers_are_removed_after_the_traced_pass():
    from repro.chaos import campaign, oracle
    from repro.load import engine
    from repro.load.population import UserPopulation
    from repro.memory.node import MemoryNode

    def bindings():
        return (MemoryNode.apply, UserPopulation.next_request, oracle.check_cluster,
                campaign.check_cluster, engine.check_cluster)

    before = bindings()
    with trace.installed(trace.SpanRecorder()):
        assert all(new is not old for new, old in zip(bindings(), before))
    assert bindings() == before


def _driver(*args: str, cwd: Path = ROOT, script: Path = ROOT / "ledger" / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=cwd)


@pytest.mark.parametrize("flag,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_line_has_exactly_the_contract_metrics(flag, section):
    done = _driver("--workload", "steady_tatp", "--seed", "7", "--seconds", "1", "--trace", flag)
    assert done.returncode == 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in metrics.benchmark_json()[section]}
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} == wanted
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "ledger", tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = _driver("--workload", "steady_tatp", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path, script=tmp_path / "ledger" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
