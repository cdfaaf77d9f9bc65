"""Mutation-testing harness for the protocol-discipline checkers.

Two kinds of mutants prove the checkers actually check:

**Dynamic mutants** — the pandora declaration with one strategy
swapped for a broken subclass (or one FORD bug flag re-enabled), run
on an unstarted :class:`~repro.cluster.builder.Cluster` (no heartbeats,
detector or recycler, so ``sim.run()`` drains) with the PILL sanitizer
in collect mode. A scenario enters its transactions with
``Coordinator.submit``. The harness asserts, per mutant, that the
sanitizer reports the expected violation code and that the *same
scenario* under the unmutated declaration reports nothing — so a
detection is evidence of the mutation, not of a trigger-happy checker.

**Static mutants** — source-level edits of the shipped engine files
(drop a drain loop, delete a crash point, strip a ``finally``), each
with a *judge*: the tier-1 tests that must pass on the shipped tree
and fail once the edit is applied. The harness copies ``src/`` to a
temporary directory, applies the edit there and runs the judge with
pytest in a child interpreter whose ``PYTHONPATH`` is the copy; a
child that imported ``repro`` from anywhere else (an editable install,
say) stops the run. The first mutant re-introduces an abort-path lock
leak the chaos campaign once found.

Run with ``python -m repro.analysis mutants``; the CLI exits nonzero
unless every mutant is caught and every control run is clean.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

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
from repro.workloads.keyvalue import KeyValueTable

__all__ = [
    "JudgeError",
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
# were observed). The same scenario doubles as its own control when
# run with the unmutated pandora row.

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
    return Cluster(
        config,
        KeyValueTable("kv", ((k, 0) for k in range(KEYS)), max_keys=KEYS + 16),
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


MUTANTS: List[MutantSpec] = [
    MutantSpec(
        name="steal-without-failed-check",
        description="second CAS steals a live coordinator's lock",
        protocol=replace(PANDORA, lock=StealAnyLock),
        scenario=_scenario_contended_write,
        expected_code=STEAL_LIVE_OWNER,
    ),
    MutantSpec(
        name="write-without-lock",
        description="commit writes replicas without ever locking",
        protocol=replace(PANDORA, lock=NeverLocks),
        scenario=_scenario_single_write,
        expected_code=WRITE_WITHOUT_LOCK,
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

    @property
    def passed(self) -> bool:
        return self.caught and self.control_clean


def _codes(cluster: Cluster) -> List[str]:
    """Sanitizer violation codes of a finished run."""
    return [violation.code for violation in cluster.sanitizer.violations]


def run_mutation_harness(only: Optional[List[str]] = None) -> List[MutantResult]:
    """Run every dynamic mutant and its control; one result per mutant."""
    results = []
    for spec in MUTANTS:
        if only and spec.name not in only:
            continue
        codes = _codes(spec.scenario(spec.protocol))
        control_codes = _codes(spec.scenario(PANDORA))
        results.append(
            MutantResult(
                name=spec.name,
                description=spec.description,
                expected_code=spec.expected_code,
                caught=spec.expected_code in codes,
                codes=codes,
                control_clean=not control_codes,
                control_codes=control_codes,
            )
        )
    return results


# -- static mutants ------------------------------------------------------------
#
# Source-level edits of the shipped engine files, each judged by tier-1
# tests run against a mutated copy of src/. Every `old` must match the
# shipped source exactly (a mismatch fails the mutant loudly — the
# mutation rotted). The shipped tree is the shared control: every
# judge must pass on it, or a "caught" verdict proves nothing.


@dataclass
class StaticMutantSpec:
    """One source-level mutation and the tests that must catch it."""

    name: str
    description: str
    path: str  # repo-root-relative
    # (verbatim shipped source, mutated text) pairs, applied in order
    edits: Tuple[Tuple[str, str], ...]
    judge: Tuple[str, ...]  # tier-1 pytest ids, run from the repo root


STATIC_MUTANTS: List[StaticMutantSpec] = [
    StaticMutantSpec(
        name="abort-allof-drain",
        description=(
            "PR 4 regression: abort drains log acks with one all_of, so a "
            "dead log server's RdmaError skips the unlocks (lock leak)"
        ),
        path="src/repro/protocol/base.py",
        edits=((
            "        for ack in tx.log_acks:\n"
            "            # A log copy posted to a server that died in flight fails\n"
            "            # with RdmaError; the abort must survive that — this runs\n"
            "            # inside the TxnAbort handler, so an escaping RdmaError\n"
            "            # would skip the unlocks below and leak every held lock\n"
            "            # under a *live* coordinator id (unstealable by PILL).\n"
            "            try:\n"
            "                yield ack\n"
            "            except RdmaError:\n"
            "                continue\n",
            "        if tx.log_acks:\n"
            "            yield self.sim.all_of(tx.log_acks)\n",
        ),),
        judge=(
            "tests/protocol/test_engine_edge_cases.py::TestAbortSurvivesALostLogCopy"
            "::test_a_failed_log_ack_does_not_skip_the_unlocks",
        ),
    ),
    StaticMutantSpec(
        name="skip-recover-drain",
        description=(
            "recover_interrupted releases locks without draining in-flight "
            "log acks first"
        ),
        path="src/repro/protocol/base.py",
        edits=((
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
            "                pass\n",
            "",
        ),),
        judge=("tests/chaos/test_campaign.py::TestCampaign::test_family_seed_clean[2]",),
    ),
    StaticMutantSpec(
        name="skip-undo-drain",
        description=(
            "recover_interrupted unlocks without awaiting its undo-image "
            "writes, so a stale restore can land over a successor's update"
        ),
        path="src/repro/protocol/base.py",
        edits=((
            "        for ack in undo_acks:\n"
            "            try:\n"
            "                yield ack\n"
            "            except RdmaError:\n"
            "                pass\n",
            "",
        ),),
        judge=(
            "tests/protocol/test_engine.py::TestAttemptEndings"
            "::test_an_interrupt_during_apply_rolls_back_once",
        ),
    ),
    StaticMutantSpec(
        name="drop-crash-point",
        description=(
            "the abort_unlocked crash point is deleted while the litmus "
            "runner and chaos schedules still target it"
        ),
        path="src/repro/protocol/base.py",
        edits=((
            '        checkpoint = self._cp("abort_unlocked")\n'
            "        if checkpoint is not None:\n"
            "            yield checkpoint\n",
            "",
        ),),
        judge=(
            "tests/faults/test_injector.py::TestCrashPoints"
            "::test_the_declared_points_are_the_engines_crash_points",
        ),
    ),
    StaticMutantSpec(
        name="unguarded-acquire",
        description=(
            "the strategy-layer acquire narrows its RdmaError guard to the "
            "fencing error, so a dead replica's error escapes the lock "
            "subprocess between the lock CAS and the log post"
        ),
        path="src/repro/protocol/strategies.py",
        edits=(
            (
                "from repro.rdma.errors import RdmaError\n",
                "from repro.rdma.errors import LinkRevokedError, RdmaError\n",
            ),
            (
                "        except RdmaError:\n"
                "            intent.lock_result = (False, AbortReason.LINK_REVOKED)\n",
                "        except LinkRevokedError:\n"
                "            intent.lock_result = (False, AbortReason.LINK_REVOKED)\n",
            ),
        ),
        judge=(
            "tests/protocol/test_strategies.py::TestSharedTail"
            "::test_a_dead_replica_is_a_link_revoked_result_not_a_raise",
        ),
    ),
    StaticMutantSpec(
        name="claim-leak-no-finally",
        description=(
            "the recovery runner releases its in-progress claim after its "
            "try instead of in a finally, leaking the claim when the "
            "recovery process is killed mid-flight"
        ),
        path="src/repro/recovery/manager.py",
        edits=((
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
            "            self._processes.pop(key, None)\n",
            "        except RdmaError:\n"
            "            raise\n"
            "        self._in_progress.discard(key)\n"
            "        self._processes.pop(key, None)\n",
        ),),
        judge=(
            "tests/recovery/test_failure_detector.py::TestRedetection"
            "::test_killed_recovery_heals_with_redetect",
        ),
    ),
]


class JudgeError(RuntimeError):
    """The static mutants cannot be judged here; the message says why."""


@dataclass
class StaticMutantResult:
    """Outcome of one static mutant under its judge."""

    name: str
    description: str
    judge: Tuple[str, ...]
    applied: bool  # every `old` still matches the shipped source
    caught: bool
    control_clean: bool

    @property
    def passed(self) -> bool:
        return self.applied and self.caught and self.control_clean


def _repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


# The child interpreter: pytest, then report which ``repro`` it tested.
_JUDGE_CHILD = (
    "import sys, pytest\n"
    "code = pytest.main(sys.argv[1:])\n"
    "repro = sys.modules.get('repro')\n"
    "print('repro-imported-from:', getattr(repro, '__file__', None))\n"
    "sys.exit(code)\n"
)


def _judge_passes(root: str, src: str, judge: Sequence[str]) -> bool:
    """Run *judge* against the ``repro`` package under *src*; True if
    every test passed. Raises :class:`JudgeError` if the child tested
    any other ``repro``."""
    child = subprocess.run(
        [sys.executable, "-c", _JUDGE_CHILD, "-q", "-x", "-p", "no:cacheprovider", *judge],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    marker = "repro-imported-from: "
    origins = [line[len(marker):] for line in child.stdout.splitlines() if line.startswith(marker)]
    origin = origins[-1] if origins and origins[-1] != "None" else None
    package = os.path.join(os.path.realpath(src), "repro", "")
    if origin is None or not os.path.realpath(origin).startswith(package):
        raise JudgeError(
            f"the judge {' '.join(judge)} imported repro from {origin or 'nowhere'}, "
            f"not from {package} (an installed copy shadows PYTHONPATH?)"
        )
    return child.returncode == 0


def _mutate(path: str, edits: Sequence[Tuple[str, str]]) -> bool:
    """Apply *edits* to the file at *path*; False if one no longer
    matches (the file is then left as it was)."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    for old, new in edits:
        if old not in source:
            return False
        source = source.replace(old, new)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(source)
    return True


def run_static_mutants(
    only: Optional[List[str]] = None,
) -> List[StaticMutantResult]:
    """Judge every static mutant on a mutated copy of ``src/``."""
    specs = [spec for spec in STATIC_MUTANTS if not only or spec.name in only]
    if not specs:
        return []
    if importlib.util.find_spec("pytest") is None:
        raise JudgeError("static mutants run their judges with pytest: pip install .[dev]")
    root = _repo_root()
    if not os.path.isdir(os.path.join(root, "tests")):
        raise JudgeError(f"static mutants run the repo's tests: no tests/ under {root}")
    src = os.path.join(root, "src")
    # One shared control: every judge passes on the shipped tree.
    judges = list(dict.fromkeys(test for spec in specs for test in spec.judge))
    control_clean = _judge_passes(root, src, judges)
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    results = []
    for spec in specs:
        with tempfile.TemporaryDirectory(prefix="repro-mutant-") as scratch:
            copy = os.path.join(scratch, "src")
            shutil.copytree(src, copy, ignore=ignore)
            applied = _mutate(os.path.join(scratch, spec.path), spec.edits)
            caught = applied and not _judge_passes(root, copy, spec.judge)
        results.append(
            StaticMutantResult(
                name=spec.name,
                description=spec.description,
                judge=spec.judge,
                applied=applied,
                caught=caught,
                control_clean=control_clean,
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
        lines.append(
            f"{result.name:28s} want={result.expected_code:14s} "
            f"{verdict:7s} got={','.join(sorted(set(result.codes))) or '-'} "
            f"control={control}"
        )
        if not result.control_clean:
            lines.append(f"{'':28s} control codes: {sorted(set(result.control_codes))}")
    passed = sum(1 for result in results if result.passed)
    lines.append(f"{passed}/{len(results)} mutants detected with clean controls")
    if static_results is not None:
        for result in static_results:
            if not result.applied:
                verdict = "STALE (mutation no longer matches the shipped source)"
            else:
                verdict = "caught " if result.caught else "MISSED "
                verdict += f"control={'clean' if result.control_clean else 'NOISY'}"
            lines.append(f"{result.name:28s} {verdict}")
            lines.extend(f"{'':28s} judge={test}" for test in result.judge)
        passed = sum(1 for result in static_results if result.passed)
        lines.append(
            f"{passed}/{len(static_results)} static mutants caught by their judges"
        )
    return "\n".join(lines)
