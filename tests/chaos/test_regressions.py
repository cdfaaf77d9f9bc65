"""Minimized chaos schedules for recovery-path bugs fixed in this repo.

Each JSON file under ``schedules/`` is a delta-debugged fault schedule
that deterministically reproduced a real bug before its fix (verified
by reverting the fix and replaying), and must stay clean forever after.
The bugs, by artifact:

* ``recovery-claim-leak.json`` — killing the recovery process for a
  compute node mid-recovery (the RC itself crashing, §3.2.3) leaked
  the ``_in_progress`` claim forever: no re-detection could start a
  fresh recovery and the node's coordinator ids were never marked
  failed (CHAOS-QUIESCE, plus stray locks stuck under unfailed ids).
  Fix: release the claim in a ``finally`` that also runs on kill.

* ``degraded-log-quorum.json`` — a memory-server failure that left
  fewer than f+1 live log servers made ``Placement.log_nodes`` raise;
  the error escaped mid-transaction *after* the lock barrier and
  silently killed the worker with its locks held under a live
  coordinator id — unstealable by PILL forever (CHAOS-LOCK). Fix:
  degrade to the live subset (like data-primary promotion) and
  fail-stop the node on any unexpected worker error.

* ``self-kill-zombie-workers.json`` — a falsely-suspected coordinator
  observing its own fencing crashes its node *from one of the node's
  own worker processes*; ``generator.close()`` on the running
  generator raised ValueError and aborted the kill loop, leaving
  sibling workers alive as zombies. After the node restarted with
  fresh ids, the zombies' verbs landed again under ids already marked
  failed: their blind unlock released a lock a legitimate PILL steal
  had just re-granted, double-granting it (CHAOS-SERIAL cycle). Fix:
  tolerate self-kill in ``Process.kill``.

* ``stale-log-restore.json`` — re-replication restarted a memory node
  with its DRAM log regions intact; invalidations/truncations issued
  while it was down never reached it, so long-resolved transactions
  kept *valid* records a later log recovery could replay over newer
  committed data (CHAOS-LOG). Fix: catch-up truncation during restore
  for every region except those of a still-unrecovered coordinator.

* ``abort-drain-on-dead-server.json`` — the abort path awaited its
  log acks and record invalidations with ``all_of``; one copy on a
  log server that died in flight failed the composite, the RdmaError
  skipped the unlock loop, and every held lock leaked under a live
  coordinator id (CHAOS-LOCK). Fix: await per event, tolerating
  RdmaError — dead-server copies are judged by the survivors.

* ``per-event-fence-await.json`` — the fence step awaited its
  link-revocation RPCs with ``all_of``; a memory server that died
  between a fence's post and its arrival (a window a retransmission
  storm stretches to tens of microseconds — hence the ``net_degrade``
  loss spike over the recovery window) failed the composite and
  aborted the whole recovery, leaving the node unrecovered and its
  stray locks unstealable (CHAOS-QUIESCE + CHAOS-LOCK). Fix: await
  per event, tolerating RdmaError — a dead server cannot serve the
  fenced node's verbs anyway. FD re-detection would restart the
  aborted recovery and heal the cluster, masking the bug — so every
  replay also asserts that no re-declaration happened without a
  recovery kill to explain it.

* ``interrupt-double-release-lotus.json``,
  ``interrupt-double-release-vote1pc-logserver.json`` and
  ``interrupt-double-release-vote1pc-overlap.json`` — a memory
  reconfiguration interrupted an attempt, and the attempt was resolved
  twice: ``run_attempt`` aborted it (unlocking its write-set), then the
  coordinator ran ``recover_interrupted`` on the same attempt, which
  wrote undo images after that unlock and unlocked again. The second
  release freed a lock another coordinator had taken meanwhile
  (lotus, ``PILL-UNLOCK``); the undo images landed on slots locked by
  nobody (vote1pc, ``PILL-WRITE``). Only the sanitizer sees these —
  the oracle is clean — which is why every artifact replays
  sanitized. Fix: one resolution per interrupted attempt, in
  ``run_attempt``, and at most one interrupt per attempt.
"""

import pathlib

import pytest

from repro.chaos import Schedule, run_schedule

SCHEDULE_DIR = pathlib.Path(__file__).parent / "schedules"
SCHEDULES = sorted(SCHEDULE_DIR.glob("*.json"))


def _load(path: pathlib.Path) -> Schedule:
    return Schedule.from_json(path.read_text())


class TestRegressionSchedules:
    def test_artifacts_exist(self):
        assert len(SCHEDULES) >= 5

    @pytest.mark.parametrize("path", SCHEDULES, ids=lambda p: p.stem)
    def test_schedule_stays_clean(self, path):
        result = run_schedule(_load(path), sanitize=True)
        assert result.ok, (
            f"{path.stem} regressed: "
            + "; ".join(f"[{v.code}] {v.detail}" for v in result.violations)
        )
        # Only a killed recovery leaves a node for the FD to re-declare:
        # a re-detection without one means a recovery died on its own
        # and re-detection healed it (per-event-fence-await's bug).
        assert result.redetections == 0 or result.recovery_kills, (
            f"{path.stem}: {result.redetections} re-detection(s) with no "
            "recovery kill"
        )

    @pytest.mark.parametrize("path", SCHEDULES, ids=lambda p: p.stem)
    def test_schedule_round_trips(self, path):
        schedule = _load(path)
        assert Schedule.from_json(schedule.to_json()).to_dict() == schedule.to_dict()

    def test_minimized_schedules_are_small(self):
        """Shrinker artifacts: locally minimal, so just a few faults."""
        for path in SCHEDULES:
            assert len(_load(path).faults) <= 3, path.stem
