"""Every pinned seeded run, and the one command that rewrites the pins.

A pin is a committed file of exact numbers that a seeded run
reproduces bit for bit: virtual-time results, and one count of the
Python frames a commit costs (the ``frames`` section, whose moves a
speed change quotes). :data:`SECTIONS` is the table of them: per
section, the files it writes and the function that reruns its seeded
work and renders those files. One command rewrites every pin and
prints ``path: field: old → new`` for each field that moved::

    PYTHONPATH=src python -m tests.integration.golden

A behaviour-preserving change leaves ``git diff`` empty after it; a
change meant to move virtual behaviour commits the diff and quotes
the printed lines in ``CHANGES.md`` (docs/KERNEL.md "Golden outcomes").
Nothing here is gated with a tolerance: tier-1 replays the cheap
sections (outcomes, violation digests, mutant verdicts) and checks the
paper's claims against the pinned JSON of the others; CI reruns the
command and diffs every path it writes.

The ``outcomes`` section is a scenario table: each scenario is one
seeded litmus or chaos run reduced to the deterministic facts a
behaviour-preserving refactor must not move — outcome counts,
violation strings, ``Simulator.processed_events``, the end-state
fingerprint and per-node verb totals — replayed scenario by scenario
by ``tests/integration/test_golden_outcomes.py``.
"""

import gc
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.bench.report import format_table, read_snapshot, snapshot_text
from repro.chaos import ChaosRunner, generate_schedule
from repro.litmus import LitmusRunner, litmus1_direct_write, litmus3_indirect_write

REGENERATE = "PYTHONPATH=src python -m tests.integration.golden"

REPO = Path(__file__).resolve().parents[3]
GOLDEN = "tests/integration/golden/"
RESULTS = "benchmarks/results/"
MUTANTS_TXT = "tests/analysis/golden/mutants.txt"

SCHEMA = "golden/1"

PROTOCOLS = ("pandora", "ford", "tradlog", "lotus", "vote1pc")

#: variant -> (spec factory, extra LitmusRunner arguments). ``crashing``
#: exercises recovery, stray stealing and the undo path; ``sanitized``
#: the instrumented QP/memory paths.
LITMUS_VARIANTS = {
    "clean": (litmus1_direct_write, {}),
    "crashing": (litmus1_direct_write, {"crash_probability": 0.3}),
    "sanitized": (litmus1_direct_write, {"sanitize": True}),
    "litmus3": (litmus3_indirect_write, {}),
}

#: Two seeds per fault family for the flagship (seed % 5 selects the
#: family), spot checks on distinct families for the other four.
CHAOS_SEEDS = {
    "pandora": tuple(range(10)),
    "ford": (0, 3),
    "tradlog": (1, 4),
    "lotus": (0, 2),
    "vote1pc": (1, 3),
}

SCENARIOS = [
    f"litmus/{protocol}/{variant}"
    for protocol in PROTOCOLS
    for variant in LITMUS_VARIANTS
] + [
    f"chaos/{protocol}/{seed}"
    for protocol in PROTOCOLS
    for seed in CHAOS_SEEDS[protocol]
]

#: §4 flight accounting: the microbenchmark at 50% writes, flight on.
FLIGHT_PROTOCOLS = ("pandora", "ford", "tradlog")
FLIGHT_WARMUP = 4e-3
FLIGHT_DURATION = 12e-3

#: Open-loop load: one point the cluster keeps up with, one far past
#: the saturation knee, on both sides of every protocol's curve.
LOAD_PROTOCOLS = ("pandora", "ford", "tradlog")
LOAD_GRID = (300_000.0, 1_200_000.0)
LOAD_DURATION = 6e-3
LOAD_USERS = 64

#: Hot-key contention: the whole zoo at every skew, same two sides.
CONTENTION_GRID = (150_000.0, 600_000.0)
CONTENTION_DURATION = 5e-3
CONTENTION_USERS = 64

VIOLATIONS_SCHEMA = "violations/1"

#: Frame budget: ``src/repro`` Python frames entered per commit over a
#: seeded steady pandora window, for the ledger's two closed-loop
#: workloads at their sizes. A count of calls, so it does not depend
#: on the box; CPython 3.12+ inlines comprehensions and counts fewer.
FRAMES_SCHEMA = "frames/1"
FRAMES_WINDOW = (0.5e-3, 2.5e-3)


def cluster_fingerprint(cluster):
    """Stable digest of every slot's state on the live memory nodes."""
    state = 0
    mask = (1 << 64) - 1
    for spec in sorted(cluster.catalog.tables.values(), key=lambda s: s.table_id):
        slot_count = cluster.catalog.key_count(spec.table_id)
        for slot in range(slot_count):
            for node_id in sorted(cluster.memory_nodes):
                memory = cluster.memory_nodes[node_id]
                if not memory.alive:
                    continue
                table = memory.tables[spec.table_id]
                value = table.values[slot]
                if not isinstance(value, int):
                    value = len(repr(value))
                for folded in (
                    node_id,
                    table.locks[slot],
                    table.versions[slot],
                    int(table.present[slot]),
                    value,
                ):
                    state = (state * 1000003 + folded) & mask
    return state


def verb_totals(cluster):
    """Per-node verb counts (what the flight report aggregates)."""
    return {
        str(node_id): dict(node.verb_counts)
        for node_id, node in cluster.memory_nodes.items()
    }


def run_litmus(protocol, variant):
    spec_factory, extra = LITMUS_VARIANTS[variant]
    runner = LitmusRunner(
        spec_factory(), protocol=protocol, rounds=12, seed=7, **extra
    )
    return runner.run(), runner.cluster


def run_scenario(name):
    """Run one scenario and reduce it to its recorded fields."""
    kind, protocol, arg = name.split("/")
    if kind == "litmus":
        report, cluster = run_litmus(protocol, arg)
        outcome = {
            "commits": report.commits,
            "aborts": report.aborts,
            "unknown": report.unknown,
            "crashes": report.crashes_injected,
            "violations": [str(v) for v in report.violations],
            "cluster_fingerprint": cluster_fingerprint(cluster),
        }
    else:
        runner = ChaosRunner(generate_schedule(int(arg), protocol=protocol))
        result = runner.run()
        cluster = runner.cluster
        outcome = {
            "committed": result.committed,
            "crashes": result.crashes,
            "recovery_kills": result.recovery_kills,
            "violations": [str(v) for v in result.violations],
            "fingerprint": result.fingerprint,
        }
    outcome["processed_events"] = cluster.sim.processed_events
    outcome["verb_totals"] = verb_totals(cluster)
    return outcome


def mutant_harness_violations():
    """Every sanitizer violation the dynamic mutants' scenarios raise."""
    from repro.analysis.mutants import MUTANTS

    violations = []
    for spec in MUTANTS:
        violations.extend(spec.scenario(spec.protocol).sanitizer.violations)
    return violations


def crashing_ford_litmus_violations():
    """The sanitized ford litmus at crash rate 0.3: the FORD bugs fire."""
    runner = LitmusRunner(
        litmus1_direct_write(),
        protocol="ford",
        rounds=12,
        seed=7,
        sanitize=True,
        crash_probability=0.3,
    )
    runner.run()
    return runner.cluster.sanitizer.violations


#: violations.json key -> the run whose violation text it digests.
VIOLATION_RUNS = {
    "mutant_harness": mutant_harness_violations,
    "crashing_ford_litmus": crashing_ford_litmus_violations,
}


def violation_digest(violations):
    """Count and sha256 of the violations' text, timelines included."""
    text = "\n".join(str(violation) for violation in violations)
    return {"count": len(violations), "sha256": hashlib.sha256(text.encode()).hexdigest()}


# -- reading pins ----------------------------------------------------------


def load_pin(name, schema):
    """One JSON pin beside this file; a missing file or another schema is
    an error that names the command which writes it."""
    return read_snapshot(REPO / GOLDEN / name, schema, REGENERATE)


def load_golden():
    return load_pin("outcomes.json", SCHEMA)["scenarios"]


def render(scenarios):
    """outcomes.json's bytes: sorted keys so every interpreter agrees."""
    document = {"schema": SCHEMA, "scenarios": scenarios}
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


# -- the sections ------------------------------------------------------------


def _record_outcomes(_root):
    scenarios = {name: run_scenario(name) for name in SCENARIOS}
    return {GOLDEN + "outcomes.json": render(scenarios)}


def _record_flight(_root):
    from repro.bench.harness import run_steady_state
    from repro.bench.report import bench_snapshot_payload
    from repro.obs import Obs
    from repro.obs.report import check_log_write_claim, from_obs
    from repro.workloads import MicroBenchmark

    files, rows = {}, []
    for protocol in FLIGHT_PROTOCOLS:
        obs = Obs(trace=False, flight=True)
        result = run_steady_state(
            lambda: MicroBenchmark(num_keys=10_000, write_ratio=0.5),
            protocol,
            duration=FLIGHT_DURATION,
            warmup=FLIGHT_WARMUP,
            obs=obs,
        )
        (claim,) = check_log_write_claim(from_obs(obs))
        rows.append(
            (
                protocol,
                claim["formula"],
                claim["checked"],
                f"{claim['mean_writes']:.2f}",
                f"{claim['mean_log_writes']:.2f}",
                claim["violations"],
                "OK" if claim["ok"] else "FAIL",
            )
        )
        payload = bench_snapshot_payload(result, obs)
        files[f"{GOLDEN}flight_{protocol}.json"] = snapshot_text(payload)
    files[RESULTS + "flight_accounting.txt"] = format_table(
        "log-write accounting per committed txn (micro, 50% writes)",
        ["protocol", "expected", "txns", "mean writes", "mean log writes",
         "violations", "status"],
        rows,
        note="§4: Pandora's logging cost is per *transaction* (f+1); "
             "FORD and tradlog pay per written *object*.",
    )
    return files


def _record_load(_root):
    from repro.load import format_curves, run_sweep, sweep_payload
    from repro.workloads import SmallBank

    curves = run_sweep(
        lambda: SmallBank(accounts=2_000, hot_accounts=500),
        protocols=LOAD_PROTOCOLS,
        grid=list(LOAD_GRID),
        duration=LOAD_DURATION,
        users=LOAD_USERS,
    )
    return {
        GOLDEN + "load.json": snapshot_text(sweep_payload(curves)),
        RESULTS + "load_curves.txt": format_curves(curves),
    }


def _record_contention(_root):
    from repro.load import contention_payload, format_contention, run_contention_sweep

    curves = run_contention_sweep(
        grid=CONTENTION_GRID, duration=CONTENTION_DURATION, users=CONTENTION_USERS
    )
    return {
        GOLDEN + "contention.json": snapshot_text(contention_payload(curves)),
        RESULTS + "contention.txt": format_contention(curves),
    }


def _record_kernel(root):
    """The ``steps`` column of the wall-time kernel baseline: the only
    virtual number in it. The wall columns are left as recorded."""
    from repro.bench.kernelperf import DEFAULT_FLEETS, SNAPSHOT_SCHEMA, run_fleet

    path = RESULTS + "BENCH_KERNEL.json"
    payload = read_snapshot(
        root / path,
        SNAPSHOT_SCHEMA,
        "PYTHONPATH=src python -m repro perf --bench --snapshot KERNEL",
    )
    for spec in DEFAULT_FLEETS:
        payload["fleets"][spec.name]["steps"] = run_fleet(spec, repeats=1).steps
    return {path: snapshot_text(payload)}


def _record_violations(_root):
    digests = {name: violation_digest(run()) for name, run in VIOLATION_RUNS.items()}
    payload = {"schema": VIOLATIONS_SCHEMA, **digests}
    return {GOLDEN + "violations.json": snapshot_text(payload)}


def count_frames(workload):
    """``src/repro`` frames entered (calls and generator resumes) over
    :data:`FRAMES_WINDOW` of a seeded steady run, and the commits in it.

    The collector stays off in the window: a collection there would
    close the suspended generators of clusters that earlier runs left
    as garbage, and count their frames too."""
    import repro
    from repro.bench.harness import default_config
    from repro.cluster.builder import Cluster

    cluster = Cluster(default_config(), workload)
    cluster.start()
    start, end = FRAMES_WINDOW
    cluster.run(until=start)
    commits = cluster.aggregate_stats().commits
    package = str(Path(repro.__file__).parent) + "/"
    frames = 0

    def count(frame, event, _arg):
        nonlocal frames
        if event == "call" and frame.f_code.co_filename.startswith(package):
            frames += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        cluster.run(until=end)
    finally:
        sys.setprofile(None)
        gc.enable()
    return frames, cluster.aggregate_stats().commits - commits


def _record_frames(_root):
    from repro.workloads import SmallBank, Tatp

    payload = {"schema": FRAMES_SCHEMA}
    for name, workload in (
        ("smallbank", SmallBank(accounts=5_000)),
        ("tatp", Tatp(subscribers=2_000)),
    ):
        frames, commits = count_frames(workload)
        payload[name] = {
            "commits": commits,
            "frames": frames,
            "frames_per_commit": round(frames / commits, 1),
        }
    return {GOLDEN + "frames.json": snapshot_text(payload)}


def _record_mutants(_root):
    from repro.analysis.mutants import render_results, run_mutation_harness, run_static_mutants

    text = render_results(run_mutation_harness(), run_static_mutants())
    return {MUTANTS_TXT: text + "\n"}


class Section(NamedTuple):
    """One group of pins: every file it writes (repo-relative) and the
    seeded work that renders them, given the repo root."""

    name: str
    paths: Tuple[str, ...]
    record: Callable[[Path], Dict[str, str]]


SECTIONS = (
    Section("outcomes", (GOLDEN + "outcomes.json",), _record_outcomes),
    Section(
        "flight",
        tuple(f"{GOLDEN}flight_{p}.json" for p in FLIGHT_PROTOCOLS)
        + (RESULTS + "flight_accounting.txt",),
        _record_flight,
    ),
    Section("load", (GOLDEN + "load.json", RESULTS + "load_curves.txt"), _record_load),
    Section(
        "contention",
        (GOLDEN + "contention.json", RESULTS + "contention.txt"),
        _record_contention,
    ),
    Section("kernel", (RESULTS + "BENCH_KERNEL.json",), _record_kernel),
    Section("violations", (GOLDEN + "violations.json",), _record_violations),
    Section("frames", (GOLDEN + "frames.json",), _record_frames),
    Section("mutants", (MUTANTS_TXT,), _record_mutants),
)


# -- old → new -----------------------------------------------------------------


def _flat(value, prefix=""):
    """``{"verb_totals": {"0": {"cas_lock": 3}}}`` -> ``verb_totals.0.cas_lock``;
    list items are numbered the same way."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        if isinstance(item, (dict, list)):
            yield from _flat(item, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", item


def moved(before, after):
    """``field: old → new`` for every leaf that differs, in file order."""
    old, new = dict(_flat(before)), dict(_flat(after))
    return [
        f"{field}: {old.get(field)!r} → {new.get(field)!r}"
        for field in dict.fromkeys([*old, *new])
        if old.get(field) != new.get(field)
    ]


def _fields(path, text):
    if path.endswith(".json"):
        return json.loads(text)
    return {f"line {n}": line for n, line in enumerate(text.splitlines(), 1)}


def regenerate(section, root=REPO) -> List[str]:
    """Rerun *section*, rewrite its files under *root* and return one
    ``path: field: old → new`` line per moved field."""
    texts = section.record(root)
    if set(texts) != set(section.paths):
        raise AssertionError(
            f"section {section.name!r} rendered {sorted(texts)}, "
            f"its row declares {sorted(section.paths)}"
        )
    lines = []
    for path in section.paths:
        target = root / path
        old: Optional[str] = target.read_text() if target.exists() else None
        new = texts[path]
        if old is None:
            lines.append(f"{path}: new file")
        elif old != new:
            fields = moved(_fields(path, old), _fields(path, new))
            lines.extend(f"{path}: {line}" for line in fields or ["rewritten, no field moved"])
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(new)
    return lines
