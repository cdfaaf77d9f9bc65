"""Mutation-testing harness for the protocol-discipline checkers.

Two kinds of mutants prove the checkers actually check:

**Dynamic mutants** — the pandora declaration with one strategy
swapped for a broken subclass (or one FORD bug flag re-enabled), run
on an unstarted :class:`~repro.cluster.builder.Cluster` (no heartbeats,
detector or recycler, so ``sim.run()`` drains) with the PILL sanitizer
in collect mode and a flight recorder attached. A scenario enters its
transactions with ``Coordinator.submit``. The harness asserts, per
mutant:

* the sanitizer reports the expected violation code,
* where a race signature is expected, the lockset detector
  (:mod:`repro.analysis.races`) finds it in the recorded flight, and
* the *same scenario* under the unmutated declaration reports nothing —
  so a detection is evidence of the mutation, not of a trigger-happy
  checker.

**Static mutants** — source-level edits of the shipped engine files
(drop a drain loop, delete a crash point, strip a ``finally``) linted
through :func:`repro.analysis.protolint.run_protolint` via its overlay
API, without touching disk. Each must trip its targeted PROTO rule
while the unmutated tree stays clean. The first one re-introduces the
PR 4 abort-path lock leak and must be flagged **statically** — no
simulation run required.

Run with ``python -m repro.analysis mutants``; the CLI exits nonzero
unless every mutant is caught and every control run is clean.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.analysis.protolint import _repo_root, run_protolint
from repro.analysis.races import analyze_attempts
from repro.analysis.sanitizer import (
    LOG_WITHOUT_LOCK,
    STEAL_LIVE_OWNER,
    UNLOCK_BEFORE_TRUNCATE,
    UNLOCK_BY_NON_OWNER,
    WRITE_WITHOUT_LOCK,
)
from repro.cluster.builder import Cluster
from repro.cluster.config import ClusterConfig
from repro.protocol.locks import is_locked
from repro.protocol.strategies import CoalescedLogStrategy, PillCasLockStrategy
from repro.protocol.types import BugFlags
from repro.protocol.zoo import ZOO, Protocol
from repro.obs import Obs
from repro.workloads.keyvalue import KeyValueTable

__all__ = [
    "MutantResult",
    "MUTANTS",
    "STATIC_MUTANTS",
    "StaticMutantResult",
    "StaticMutantSpec",
    "run_mutation_harness",
    "run_static_mutants",
    "render_results",
]


# -- the mutants ---------------------------------------------------------------


PANDORA = ZOO["pandora"]


class StealAnyLock(PillCasLockStrategy):
    """MUTANT: treats *every* held lock as stray (skips the failed-ids
    check), so the second CAS steals locks from live coordinators."""

    def is_stray(self, word: int) -> bool:
        return is_locked(word)


class NeverLocks(PillCasLockStrategy):
    """MUTANT: the acquire path only *reads* the object and pretends
    the lock was taken — commits then update replicas lock-free."""

    def acquire(self, tx, intent):
        table_id, slot = intent.table_id, intent.slot
        primary = self.engine.placement.primary(table_id, slot)
        _lock, version, present, value = yield self.engine.verbs.read_object(
            primary, table_id, slot
        )
        intent.locked = True
        intent.lock_node = primary
        intent.old_version = version
        intent.old_value = value
        intent.old_present = present
        intent.lock_result = (True, "")


class EagerLog(CoalescedLogStrategy):
    """MUTANT: logs a blind write as soon as its value is buffered —
    ahead of the lock barrier (log-before-lock/validate), covering
    intents whose CAS has not succeeded, or never will."""

    def post_speculative(self, tx, intent) -> bool:
        if intent.new_value is not None:
            self._post(tx, tx.write_set.values())
        return False


# -- scenarios -----------------------------------------------------------------
#
# Each scenario drives a fixed interleaving through a cluster built for
# *protocol* and returns it (its sanitizer holds whatever violations
# were observed, its obs the flight records). The same scenario doubles
# as its own control when run with the unmutated pandora row.

KEYS = 64


def _cluster(protocol: Protocol) -> Cluster:
    """Two one-coordinator nodes over 64 zeroed keys; never started."""
    config = ClusterConfig(
        coordinators_per_node=1,
        partitions=16,
        protocol=protocol,
        max_attempts=1,
        sanitize=True,
    )
    config.network.jitter = 0.0
    # Tracer off: only the per-attempt verb/lock records matter to the
    # dynamic race detector.
    return Cluster(
        config,
        KeyValueTable("kv", ((k, 0) for k in range(KEYS)), max_keys=KEYS + 16),
        obs=Obs(trace=False, flight=True),
    )


def _scenario_contended_write(protocol: Protocol) -> Cluster:
    """c0 holds key 3 for 80us mid-transaction; c1 blind-writes it."""
    cluster = _cluster(protocol)
    c0, c1 = cluster.all_coordinators()

    def holder(tx):
        yield from tx.read_for_update("kv", 3)
        yield cluster.sim.timeout(80e-6)
        tx.write("kv", 3, 99)

    def writer(tx):
        tx.write("kv", 3, 7)

    c0.submit(holder)
    c1.submit(writer, delay=10e-6)
    cluster.sim.run()
    return cluster


def _scenario_single_write(protocol: Protocol) -> Cluster:
    """One uncontended read-modify-write transaction."""
    cluster = _cluster(protocol)

    def rmw(tx):
        value = yield from tx.read("kv", 5)
        tx.write("kv", 5, (value or 0) + 1)

    cluster.all_coordinators()[0].submit(rmw)
    cluster.sim.run()
    return cluster


def _scenario_validation_abort(protocol: Protocol) -> Cluster:
    """c0 reads key 2, stalls, writes key 9; c1 bumps key 2 meanwhile —
    c0's validation fails and it must abort *after* logging."""
    cluster = _cluster(protocol)
    c0, c1 = cluster.all_coordinators()

    def stalled(tx):
        yield from tx.read("kv", 2)
        yield cluster.sim.timeout(40e-6)
        tx.write("kv", 9, 42)

    def bumper(tx):
        tx.write("kv", 2, 1)

    c0.submit(stalled)
    c1.submit(bumper, delay=5e-6)
    cluster.sim.run()
    return cluster


def _scenario_conflict_abort(protocol: Protocol) -> Cluster:
    """c0 holds key 3; c1 tries keys 3 and 11 — key 3 conflicts, so c1
    aborts while key 3 is still legitimately held by c0."""
    cluster = _cluster(protocol)
    c0, c1 = cluster.all_coordinators()

    def holder(tx):
        yield from tx.read_for_update("kv", 3)
        yield cluster.sim.timeout(60e-6)
        tx.write("kv", 3, 99)

    def loser(tx):
        tx.write("kv", 3, 1)
        tx.write("kv", 11, 2)

    c0.submit(holder)
    c1.submit(loser, delay=5e-6)
    cluster.sim.run()
    return cluster


@dataclass
class MutantSpec:
    """One seeded protocol mutation and how the sanitizer must react."""

    name: str
    description: str
    # The broken declaration; the unmutated pandora row is the control.
    protocol: Protocol
    scenario: Callable[[Protocol], Cluster]
    expected_code: str
    # When set, the lockset detector must also find this race code in
    # the mutant run's flight records (and none in the control's) —
    # the dynamic cross-check of the same discipline.
    expected_race: Optional[str] = None


MUTANTS: List[MutantSpec] = [
    MutantSpec(
        name="steal-without-failed-check",
        description="second CAS steals a live coordinator's lock",
        protocol=replace(PANDORA, lock=StealAnyLock),
        scenario=_scenario_contended_write,
        expected_code=STEAL_LIVE_OWNER,
        expected_race="RACE-DOUBLE-GRANT",
    ),
    MutantSpec(
        name="write-without-lock",
        description="commit writes replicas without ever locking",
        protocol=replace(PANDORA, lock=NeverLocks),
        scenario=_scenario_single_write,
        expected_code=WRITE_WITHOUT_LOCK,
        expected_race="RACE-UNLOCKED-WRITE",
    ),
    MutantSpec(
        name="log-before-lock",
        description="coalesced undo record posted before the lock barrier",
        protocol=replace(PANDORA, log=EagerLog),
        scenario=_scenario_contended_write,
        expected_code=LOG_WITHOUT_LOCK,
    ),
    MutantSpec(
        name="lost-abort-decision",
        description="abort unlocks without truncating its undo records",
        protocol=replace(PANDORA, bugs=partial(BugFlags, lost_decision=True)),
        scenario=_scenario_validation_abort,
        expected_code=UNLOCK_BEFORE_TRUNCATE,
    ),
    MutantSpec(
        name="complicit-abort",
        description="abort releases write-set locks it never acquired",
        protocol=replace(PANDORA, bugs=partial(BugFlags, complicit_abort=True)),
        scenario=_scenario_conflict_abort,
        expected_code=UNLOCK_BY_NON_OWNER,
    ),
]


@dataclass
class MutantResult:
    """Outcome of one dynamic mutant + its control run."""

    name: str
    description: str
    expected_code: str
    caught: bool
    codes: List[str]
    control_clean: bool
    control_codes: List[str]
    # Lockset-detector cross-check (None when the mutant has no
    # expected race signature).
    expected_race: Optional[str] = None
    race_caught: bool = True
    race_codes: List[str] = field(default_factory=list)
    control_race_codes: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.caught
            and self.control_clean
            and self.race_caught
            and not self.control_race_codes
        )


def _codes(cluster: Cluster) -> Tuple[List[str], List[str]]:
    """(sanitizer violation codes, lockset race codes) of a finished run."""
    return (
        [violation.code for violation in cluster.sanitizer.violations],
        [race.code for race in analyze_attempts(cluster.obs.flight.attempts).races],
    )


def run_mutation_harness(only: Optional[List[str]] = None) -> List[MutantResult]:
    """Run every dynamic mutant and its control; one result per mutant."""
    results = []
    for spec in MUTANTS:
        if only and spec.name not in only:
            continue
        codes, race_codes = _codes(spec.scenario(spec.protocol))
        control_codes, control_race_codes = _codes(spec.scenario(PANDORA))
        results.append(
            MutantResult(
                name=spec.name,
                description=spec.description,
                expected_code=spec.expected_code,
                caught=spec.expected_code in codes,
                codes=codes,
                control_clean=not control_codes,
                control_codes=control_codes,
                expected_race=spec.expected_race,
                race_caught=(
                    spec.expected_race is None or spec.expected_race in race_codes
                ),
                race_codes=race_codes,
                control_race_codes=control_race_codes,
            )
        )
    return results


# -- static mutants ------------------------------------------------------------
#
# Source-level edits of the shipped engine files, linted through
# protolint's overlay API. `old` must match the shipped source exactly
# (a mismatch fails the mutant loudly — the mutation rotted), and
# `expected_rule` must appear among the findings. The shipped tree
# itself is the shared control and must lint clean.


@dataclass
class StaticMutantSpec:
    """One source-level mutation and the PROTO rule that must fire."""

    name: str
    description: str
    path: str  # repo-root-relative
    old: str  # verbatim shipped source to replace ...
    new: str  # ... with this mutated text
    expected_rule: str


STATIC_MUTANTS: List[StaticMutantSpec] = [
    StaticMutantSpec(
        name="abort-allof-drain",
        description=(
            "PR 4 regression: abort drains log acks with one all_of, so a "
            "dead log server's RdmaError skips the unlocks (lock leak)"
        ),
        path="src/repro/protocol/base.py",
        old=(
            "        for ack in tx.log_acks:\n"
            "            # A log copy posted to a server that died in flight fails\n"
            "            # with RdmaError; the abort must survive that — this runs\n"
            "            # inside the TxnAbort handler, so an escaping RdmaError\n"
            "            # would skip the unlocks below and leak every held lock\n"
            "            # under a *live* coordinator id (unstealable by PILL).\n"
            "            try:\n"
            "                yield ack\n"
            "            except RdmaError:\n"
            "                continue\n"
        ),
        new=(
            "        if tx.log_acks:\n"
            "            yield self.sim.all_of(tx.log_acks)\n"
        ),
        expected_rule="PROTO001",
    ),
    StaticMutantSpec(
        name="skip-recover-drain",
        description=(
            "recover_interrupted releases locks without draining in-flight "
            "log acks first"
        ),
        path="src/repro/protocol/base.py",
        old=(
            "        # Drain in-flight log acks (they all resolve: a copy to a dead\n"
            "        # node fails at arrival) so the release below can invalidate\n"
            "        # every copy we learn about — otherwise a valid undo record\n"
            "        # outlives the unlock and recovery could mistake the aborted\n"
            "        # txn for an in-flight one (§3.1.5 discipline, §3.2.5 path).\n"
            "        for ack in tx.log_acks:\n"
            "            if ack.triggered:\n"
            "                continue\n"
            "            try:\n"
            "                yield ack\n"
            "            except RdmaError:\n"
            "                pass\n"
        ),
        new="",
        expected_rule="PROTO002",
    ),
    StaticMutantSpec(
        name="drop-crash-point",
        description=(
            "the abort_unlocked crash point is deleted while the litmus "
            "runner and chaos schedules still target it"
        ),
        path="src/repro/protocol/base.py",
        old=(
            '        checkpoint = self._cp("abort_unlocked")\n'
            "        if checkpoint is not None:\n"
            "            yield checkpoint\n"
        ),
        new="",
        expected_rule="PROTO004",
    ),
    StaticMutantSpec(
        name="unguarded-acquire",
        description=(
            "the strategy-layer acquire narrows its RdmaError guard to the "
            "fencing error, so a yield between the lock CAS and the log "
            "post can escape the lock subprocess with no in-module handler"
        ),
        path="src/repro/protocol/strategies.py",
        old=(
            "        except RdmaError:\n"
            "            intent.lock_result = (False, AbortReason.LINK_REVOKED)\n"
        ),
        new=(
            "        except LinkRevokedError:\n"
            "            intent.lock_result = (False, AbortReason.LINK_REVOKED)\n"
        ),
        expected_rule="PROTO005",
    ),
    StaticMutantSpec(
        name="claim-leak-no-finally",
        description=(
            "_recover_compute drops its finally, leaking the in-progress "
            "claim when the recovery process is killed mid-flight"
        ),
        path="src/repro/recovery/manager.py",
        old=(
            "        try:\n"
            "            yield from self._recover_compute_inner(node)\n"
            "        finally:\n"
            "            # Runs on normal completion AND when this recovery process\n"
            "            # is itself killed mid-flight (GeneratorExit): the claim\n"
            "            # must be released either way, or the node becomes\n"
            "            # unrecoverable forever — no re-detection can start (the\n"
            '            # key is still "in progress") and restart_compute defers\n'
            "            # in a loop waiting for it to clear. Re-running recovery\n"
            "            # from scratch is safe because every step is idempotent\n"
            "            # (§3.2.3).\n"
            "            self._in_progress.discard(key)\n"
            "            self._processes.pop(key, None)\n"
        ),
        new=(
            "        yield from self._recover_compute_inner(node)\n"
            "        self._in_progress.discard(key)\n"
            "        self._processes.pop(key, None)\n"
        ),
        expected_rule="PROTO006",
    ),
]


@dataclass
class StaticMutantResult:
    """Outcome of one static (protolint overlay) mutant."""

    name: str
    description: str
    expected_rule: str
    applied: bool  # the `old` text still matches the shipped source
    caught: bool
    rules: List[str]
    control_clean: bool
    control_rules: List[str]

    @property
    def passed(self) -> bool:
        return self.applied and self.caught and self.control_clean


def run_static_mutants(
    only: Optional[List[str]] = None,
) -> List[StaticMutantResult]:
    """Lint every static mutant via protolint's overlay API."""
    root = _repo_root()
    # One shared control: the shipped tree must lint clean, or a
    # "caught" verdict on a mutant proves nothing.
    control_rules = [finding.rule for finding in run_protolint(root=root)]
    control_clean = not control_rules
    results = []
    for spec in STATIC_MUTANTS:
        if only and spec.name not in only:
            continue
        abspath = os.path.join(root, spec.path)
        try:
            with open(abspath, "r") as handle:
                shipped = handle.read()
        except OSError:
            shipped = ""
        applied = spec.old in shipped
        rules: List[str] = []
        caught = False
        if applied:
            overlay = {abspath: shipped.replace(spec.old, spec.new)}
            rules = [
                finding.rule
                for finding in run_protolint(root=root, overlay=overlay)
            ]
            caught = spec.expected_rule in rules
        results.append(
            StaticMutantResult(
                name=spec.name,
                description=spec.description,
                expected_rule=spec.expected_rule,
                applied=applied,
                caught=caught,
                rules=rules,
                control_clean=control_clean,
                control_rules=control_rules,
            )
        )
    return results


def render_results(
    results: List[MutantResult],
    static_results: Optional[List[StaticMutantResult]] = None,
) -> str:
    lines = []
    for result in results:
        verdict = "caught" if result.caught else "MISSED"
        control = "clean" if result.control_clean else "NOISY"
        line = (
            f"{result.name:28s} want={result.expected_code:14s} "
            f"{verdict:7s} got={','.join(sorted(set(result.codes))) or '-'} "
            f"control={control}"
        )
        if result.expected_race is not None:
            race = "race-hit" if result.race_caught else "RACE-MISSED"
            line += f" {race}"
        lines.append(line)
        if not result.control_clean:
            lines.append(f"{'':28s} control codes: {sorted(set(result.control_codes))}")
        if result.control_race_codes:
            lines.append(
                f"{'':28s} control races: {sorted(set(result.control_race_codes))}"
            )
    passed = sum(1 for result in results if result.passed)
    lines.append(f"{passed}/{len(results)} mutants detected with clean controls")
    if static_results is not None:
        for result in static_results:
            if not result.applied:
                lines.append(
                    f"{result.name:28s} want={result.expected_rule:14s} "
                    f"STALE (mutation no longer matches the shipped source)"
                )
                continue
            verdict = "caught" if result.caught else "MISSED"
            control = "clean" if result.control_clean else "NOISY"
            lines.append(
                f"{result.name:28s} want={result.expected_rule:14s} "
                f"{verdict:7s} got={','.join(sorted(set(result.rules))) or '-'} "
                f"control={control}"
            )
        passed = sum(1 for result in static_results if result.passed)
        lines.append(
            f"{passed}/{len(static_results)} static mutants flagged by protolint"
        )
    return "\n".join(lines)
