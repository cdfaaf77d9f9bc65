"""Chaos coverage for the two zoo newcomers (lotus, vote1pc).

Their safety case is the consistency oracle itself: every fault family
must run to quiescence with zero violations, sanitized or not (the
golden outcomes pin *determinism*, not safety). Two regressions are
pinned here on the seeds that caught them:

* lotus: a memory restore used to leave the node's *volatile* ticket
  queues populated while re-replication zeroed the lock words — the
  next FAA found the stale queue and re-granted the slot to a waiter
  whose transaction had long since resolved, a live-owner lock leak
  the oracle reports as CHAOS-LOCK. Seeds ≡ 2, 3 (mod 5) carry
  restore_memory faults and reproduced it 8/20 before the fix
  (``MemoryNode.restart`` now drops queues and vote shadows).
* vote1pc: the same restore path must not resurrect stale vote
  shadows, or recovery would "roll back" state the restore already
  rebuilt from live replicas.

The CI chaos job runs both protocols over a 20-seed sanitized bank;
this tier-1 bank covers every family twice per protocol.
"""

import pytest

from repro.chaos import generate_schedule, run_schedule

ZOO = ("lotus", "vote1pc")

#: Two seeds per fault family (seed % 5 selects the family).
SEED_BANK = tuple(range(10))

#: The restore_memory families that caught the stale-ticket-queue leak.
RESTORE_SEEDS = (2, 3, 7, 8)


class TestZooCampaign:
    @pytest.mark.parametrize("protocol", ZOO)
    @pytest.mark.parametrize("seed", SEED_BANK)
    def test_family_seed_clean(self, protocol, seed):
        result = run_schedule(generate_schedule(seed, protocol=protocol))
        assert result.ok, [str(v) for v in result.violations]
        assert result.committed > 0

    @pytest.mark.parametrize("protocol", ZOO)
    @pytest.mark.parametrize("seed", RESTORE_SEEDS[:2])
    def test_memory_restore_families_sanitized(self, protocol, seed):
        # The regression families, with the PILL sanitizer watching
        # every verb on top of the oracle.
        result = run_schedule(
            generate_schedule(seed, protocol=protocol), sanitize=True
        )
        assert result.ok, [str(v) for v in result.violations]

    @pytest.mark.parametrize("protocol", ZOO)
    def test_same_seed_same_fingerprint(self, protocol):
        schedule = generate_schedule(2, protocol=protocol)
        first = run_schedule(schedule)
        second = run_schedule(schedule)
        assert first.fingerprint == second.fingerprint
        assert first.committed == second.committed


class TestTicketQueuesAreVolatile:
    """The lotus leak, re-enacted at the memory-node level."""

    def test_restart_drops_queues_and_shadows(self):
        from repro.memory.node import MemoryNode, _TicketQueue

        node = MemoryNode(0)
        # A waiter is queued when the node restarts (battery-backed
        # memory survives, the lock server's process state does not).
        queue = _TicketQueue()
        queue.entries[queue.next_ticket] = 17
        queue.next_ticket += 1
        node._ticket_queues[(0, 5)] = queue
        node._vote_shadows[(0, 5)] = (17, 1, 0, "old", True, ())
        node.restart()
        assert node.alive
        assert not node._ticket_queues
        assert not node._vote_shadows
