"""The litmus runner: rounds of concurrent litmus transactions with
random crash injection, recovery, and post-state assertions (§5).

Each round uses a *fresh* set of keys (no cross-round interference),
launches every writer of the spec from coordinators spread across the
compute nodes, optionally crashes one compute node at a random protocol
step, waits for detection + recovery to finish, restarts the node, and
finally runs a read-only assertion transaction over the round's keys.

Violations of the spec's application-observable assertion are recorded
with the round's seed and crash location so they replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster.builder import Cluster
from repro.cluster.config import ClusterConfig
from repro.faults.injector import CRASH_POINTS, CrashPlan
from repro.litmus.specs import LitmusSpec
from repro.protocol.types import BugFlags
from repro.workloads.keyvalue import KeyValueTable

__all__ = ["LitmusReport", "LitmusRunner"]


@dataclass
class Violation:
    round_index: int
    values: Dict[str, Any]
    crash_point: Optional[str]
    description: str


@dataclass
class LitmusReport:
    """Outcome of a litmus campaign."""

    spec_name: str
    protocol: str
    rounds: int = 0
    crashes_injected: int = 0
    commits: int = 0
    aborts: int = 0
    unknown: int = 0  # transactions on crashed coordinators
    violations: List[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.violations)} violations)"
        return (
            f"{self.spec_name:18s} {self.protocol:10s} rounds={self.rounds:4d} "
            f"crashes={self.crashes_injected:4d} commits={self.commits:5d} "
            f"aborts={self.aborts:4d} unknown={self.unknown:3d}  {status}"
        )


def _key(round_index: int, key_name: str) -> str:
    return f"r{round_index}-{key_name}"


class LitmusRunner:
    """Runs one spec against one protocol configuration."""

    def __init__(
        self,
        spec: LitmusSpec,
        protocol: str = "pandora",
        bugs: Optional[BugFlags] = None,
        rounds: int = 50,
        crash_probability: float = 0.0,
        seed: int = 0,
        compute_nodes: int = 2,
        coordinators_per_node: int = 4,
        jitter: float = 0.4e-6,
        loss_probability: float = 0.0,
        copies: int = 2,
        sanitize: bool = False,
        first_coord_id: int = 0,
    ) -> None:
        self.spec = spec
        self.rounds = rounds
        self.copies = copies
        self.crash_probability = crash_probability
        self.rng = random.Random(seed)
        # One table pre-provisioned with a fresh key set per round.
        workload = KeyValueTable(
            "lit",
            (
                (_key(round_index, name), spec.initial[name])
                for round_index in range(rounds)
                for name in spec.keys
            ),
            max_keys=rounds * len(spec.keys) + 8,
        )
        config = ClusterConfig(
            memory_nodes=2,
            compute_nodes=compute_nodes,
            coordinators_per_node=coordinators_per_node,
            replication_degree=2,
            protocol=protocol,
            bugs=bugs,
            seed=seed,
            # Short detection so rounds stay compact; the detection
            # delay itself is not what litmus validates.
            fd_timeout=0.5e-3,
            fd_heartbeat_interval=0.1e-3,
            fd_check_interval=0.05e-3,
            drain_delay=0.2e-3,
            sanitize=sanitize,
            first_coord_id=first_coord_id,
        )
        config.network.jitter = jitter
        config.network.loss_probability = loss_probability
        self.cluster = Cluster(config, workload)
        self.report = LitmusReport(spec_name=spec.name, protocol=protocol)
        # (round_index, keymap, outcomes) for the final sweep.
        self._completed_rounds: List = []

    # -- driving ------------------------------------------------------------

    def run(self) -> LitmusReport:
        self.cluster.start(run_coordinators=False)
        for round_index in range(self.rounds):
            self._run_round(round_index)
        self._final_sweep()
        return self.report

    def _final_sweep(self) -> None:
        """Re-verify every round's assertion at campaign end.

        Recovery after a *later* crash can corrupt an *earlier* round's
        keys (e.g. FORD's lost-decision bug rolls back a committed
        write long after that round's assertion passed). The sweep
        catches such retroactive corruption.
        """
        for round_index, keymap, outcomes in self._completed_rounds:
            values = self._read_assertion_state(keymap)
            if values is None:
                continue
            if not self.spec.check(values, outcomes):
                violation = Violation(
                    round_index=round_index,
                    values=values,
                    crash_point="post-hoc (final sweep)",
                    description=self.spec.describe_violation(values),
                )
                already = any(
                    existing.round_index == round_index
                    for existing in self.report.violations
                )
                if not already:
                    self.report.violations.append(violation)

    def _live_coordinators(self) -> List:
        return [c for c in self.cluster.all_coordinators() if c.node.alive]

    def _run_round(self, round_index: int) -> None:
        sim = self.cluster.sim
        spec = self.spec
        keymap = {name: _key(round_index, name) for name in spec.keys}

        coordinators = self._live_coordinators()
        if not coordinators:
            raise RuntimeError("no live coordinators left for litmus round")
        self.rng.shuffle(coordinators)

        crash_point: Optional[str] = None
        victim = None
        if self.crash_probability and self.rng.random() < self.crash_probability:
            crash_point = self.rng.choice(CRASH_POINTS)
            victim = self.cluster.compute_nodes[
                self.rng.randrange(len(self.cluster.compute_nodes))
            ]
            if victim.alive:
                self.cluster.injector.add_plan(
                    CrashPlan(
                        node_id=victim.node_id,
                        point=crash_point,
                        nth=self.rng.randint(1, 3),
                    )
                )
                self.report.crashes_injected += 1

        # Launch every writer (x copies) from distinct coordinators,
        # with small random start offsets to diversify interleavings.
        processes = []
        launch_specs = [
            (index, writer)
            for writer in spec.writers
            for index in range(self.copies)
        ]
        # Mix tight (sub-RTT) and loose start offsets across rounds so
        # both racy and pipelined interleavings get exercised.
        offset_scale = self.rng.choice([0.0, 0.5e-6, 2e-6, 8e-6])
        for launch_index, (_copy, writer) in enumerate(launch_specs):
            coordinator = coordinators[launch_index % len(coordinators)]
            logic = writer(keymap)
            offset = self.rng.random() * offset_scale
            processes.append(
                coordinator.submit(
                    logic, delay=offset, name=f"lit-{round_index}-{launch_index}"
                )
            )

        # Let the round and any recovery complete.
        deadline = sim.now + 50e-3
        while sim.now < deadline:
            sim.run(until=min(deadline, sim.now + 1e-3))
            settled = all(process.triggered for process in processes)
            if settled and not self.cluster.recovery.recovering():
                break
        # Margin for notification deliveries still in flight.
        sim.run(until=sim.now + 0.5e-3)

        outcomes = []
        for process in processes:
            try:
                outcome = process.value
            except Exception:  # noqa: BLE001 - killed/crashed txns
                outcomes.append(None)
                self.report.unknown += 1
                continue
            outcomes.append(outcome)
            if outcome.committed:
                self.report.commits += 1
            else:
                self.report.aborts += 1

        if victim is not None:
            self.cluster.injector.clear(victim.node_id)
            if not victim.alive:
                self.cluster.restart_compute(victim)
                sim.run(until=sim.now + 0.5e-3)

        values = self._read_assertion_state(keymap)
        self.report.rounds += 1
        self._completed_rounds.append((round_index, keymap, outcomes))
        if values is not None and not spec.check(values, outcomes):
            self.report.violations.append(
                Violation(
                    round_index=round_index,
                    values=values,
                    crash_point=crash_point,
                    description=spec.describe_violation(values),
                )
            )

    def _read_assertion_state(self, keymap: Dict[str, str]) -> Optional[Dict]:
        """Run the spec's read-only assertion transaction."""
        sim = self.cluster.sim
        key_names = list(keymap)

        def assertion_logic(tx):
            values = {}
            for name in key_names:
                values[name] = yield from tx.read("lit", keymap[name])
            return values

        candidates = self._live_coordinators() * 2  # two passes
        for coordinator in candidates:
            process = coordinator.submit(assertion_logic, name="lit-assert")
            sim.run(until=sim.now + 5e-3)
            if process.triggered:
                try:
                    outcome = process.value
                except Exception:  # noqa: BLE001
                    continue
                if outcome.committed:
                    return outcome.value
        return None
