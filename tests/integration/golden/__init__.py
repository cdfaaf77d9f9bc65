"""Recorded golden outcomes: the parity pin for all five protocols.

Each scenario below is one seeded litmus or chaos run reduced to the
deterministic facts a behaviour-preserving refactor must not move:
outcome counts, violation strings, ``Simulator.processed_events``,
the end-state fingerprint and per-node verb totals. The recorded
values live in ``outcomes.json`` beside this file and
``tests/integration/test_golden_outcomes.py`` replays every scenario
against them. Regenerate with::

    PYTHONPATH=src python -m tests.integration.golden

and justify the regenerated file in ``CHANGES.md`` (docs/KERNEL.md).
"""

import json
from pathlib import Path

from repro.chaos import ChaosRunner, generate_schedule
from repro.litmus import LitmusRunner, litmus1_direct_write, litmus3_indirect_write

SCHEMA = "golden/1"
GOLDEN_PATH = Path(__file__).with_name("outcomes.json")

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


def load_golden():
    document = json.loads(GOLDEN_PATH.read_text())
    if document.get("schema") != SCHEMA:
        raise ValueError(
            f"{GOLDEN_PATH} has schema {document.get('schema')!r}, "
            f"this checkout reads {SCHEMA!r}; regenerate it with "
            "`PYTHONPATH=src python -m tests.integration.golden`"
        )
    return document["scenarios"]


def render(scenarios):
    """The file's bytes: sorted keys so every interpreter agrees."""
    document = {"schema": SCHEMA, "scenarios": scenarios}
    return json.dumps(document, indent=1, sort_keys=True) + "\n"
