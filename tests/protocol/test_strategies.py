"""Unit tests for the pluggable lock strategies and their lock words.

The steal-retry tests drive the acquisition generator directly with
scripted CAS responses — a deterministic re-enactment of the
two-stealers-one-dead-owner race that a cluster-level test could only
hit probabilistically.
"""

import pytest

from repro.protocol.coordinator import CoordinatorStats
from repro.protocol.locks import (
    ANONYMOUS_OWNER,
    MAX_COORD_ID,
    encode_lock,
    encode_ticket_word,
    is_locked,
    is_ticket_word,
    next_ticket_of,
    owner_of,
    serving_of,
)
from repro.protocol.types import OP_INSERT, OP_UPDATE, AbortReason, WriteIntent


class TestTicketWord:
    def test_roundtrip(self):
        word = encode_ticket_word(17, serving=3, next_ticket=9)
        assert is_ticket_word(word)
        assert is_locked(word)
        assert owner_of(word) == 17
        assert serving_of(word) == 3
        assert next_ticket_of(word) == 9

    def test_plain_pill_word_is_not_ticket(self):
        assert not is_ticket_word(encode_lock(17, tag=3))
        assert not is_ticket_word(0)

    def test_anonymous_holder_allowed_transiently(self):
        # A queue between grants may carry the sentinel as holder.
        word = encode_ticket_word(ANONYMOUS_OWNER, serving=1, next_ticket=1)
        assert owner_of(word) == ANONYMOUS_OWNER

    def test_out_of_range_holder_rejected(self):
        with pytest.raises(ValueError):
            encode_ticket_word(ANONYMOUS_OWNER + 1, serving=0, next_ticket=1)


class TestSentinelRejection:
    """encode_lock must never mint a word owned by ANONYMOUS_OWNER.

    Before the fix, coordinator id 0xFFFF produced a word that FORD-style
    readers treat as anonymous: its stray locks could never be attributed
    (or stolen) and PILL recovery would skip them forever.
    """

    def test_max_coord_id_is_one_below_the_sentinel(self):
        assert MAX_COORD_ID == ANONYMOUS_OWNER - 1 == 0xFFFE

    def test_sentinel_coord_id_rejected(self):
        with pytest.raises(ValueError):
            encode_lock(ANONYMOUS_OWNER)

    def test_config_rejects_id_spaces_reaching_the_sentinel(self):
        from repro.cluster.config import ClusterConfig

        # 4 * 16384 = 65536 initial ids: id 0xFFFF would be handed out.
        config = ClusterConfig(compute_nodes=4, coordinators_per_node=16384)
        with pytest.raises(ValueError):
            config.validate()

    def test_config_accepts_the_full_legal_id_space(self):
        from repro.cluster.config import ClusterConfig

        # 3 * 21845 = 65535 = MAX_COORD_ID + 1 ids: 0 .. 0xFFFE only.
        ClusterConfig(compute_nodes=3, coordinators_per_node=21845).validate()


# ---------------------------------------------------------------------------
# Deterministic steal-retry re-enactment
# ---------------------------------------------------------------------------


class _Token:
    """Stands in for a posted verb event; the driver answers it."""

    def __init__(self, kind, args):
        self.kind = kind
        self.args = args


class _StubVerbs:
    def cas_lock(self, node, table_id, slot, expected, desired):
        return _Token("cas_lock", (node, table_id, slot, expected, desired))

    def faa_ticket(self, node, table_id, slot, coord_id):
        return _Token("faa_ticket", (node, table_id, slot, coord_id))

    def read_object(self, node, table_id, slot):
        return _Token("read_object", (node, table_id, slot))

    def read_header(self, node, table_id, slot):
        return _Token("read_header", (node, table_id, slot))


class _StubTrace:
    def __init__(self):
        self.lock_events = []

    def focus(self, phase):
        pass

    def lock_event(self, kind, table_id, slot, now):
        self.lock_events.append(kind)


class _StubTx:
    def __init__(self):
        self.trace = _StubTrace()


class _StubEngine:
    """The minimal engine surface the acquisition flow touches; the
    strategy under test answers ``is_stray`` and mints its own word."""

    coord_id = 3
    traced = True  # the stub trace records lock events
    _crash_plans = {}  # no crash point armed

    def __init__(self, failed_ids=()):
        from types import SimpleNamespace

        self.verbs = _StubVerbs()
        self.placement = SimpleNamespace(primary=lambda table_id, slot: 0)
        self.sim = SimpleNamespace(now=0.0)
        self.coordinator = SimpleNamespace(
            stats=CoordinatorStats(),
            node=SimpleNamespace(failed_ids=failed_ids),
        )
        self.commit = SimpleNamespace(late_upgrade=False)
        self.posted = []  # intents handed to the log strategy's post_locked
        self.log = SimpleNamespace(
            pre_lock=lambda tx, intent, word: iter(()),
            post_speculative=lambda tx, intent: False,
            post_locked=lambda tx, intent, speculative: self.posted.append(intent),
        )


def _drive(flow, responses):
    """Run the generator, answering each yielded verb from the script."""
    responses = list(responses)
    try:
        event = next(flow)
        while True:
            assert responses, f"flow yielded more than scripted: {event.kind}"
            expected_kind, answer = responses.pop(0)
            assert event.kind == expected_kind, (event.kind, expected_kind)
            event = flow.send(answer)
    except StopIteration:
        pass
    assert not responses, f"{len(responses)} scripted response(s) unconsumed"


def _make_flow(engine, tx, intent):
    from repro.protocol.strategies import PillCasLockStrategy

    return PillCasLockStrategy(engine).acquire(tx, intent)


def _intent(kind=OP_UPDATE):
    return WriteIntent(table_id=0, key=5, slot=5, kind=kind, new_value=1)


DEAD_A, DEAD_B = 100, 101
LIVE_STEALER = 9

STRAY_A = encode_lock(DEAD_A, tag=1)
STRAY_B = encode_lock(DEAD_B, tag=2)
LIVE_WORD = encode_lock(LIVE_STEALER, tag=3)


class TestStealRetry:
    def test_stray_to_stray_race_retries_and_wins(self):
        """Two stealers, one dead owner: the loser's second CAS observes
        *another* dead coordinator's word (mass failover) and must retry
        against it instead of aborting — aborting would strand the lock
        until some unrelated transaction wanders by."""
        engine = _StubEngine(failed_ids={DEAD_A, DEAD_B})
        tx, intent = _StubTx(), _intent()
        _drive(
            _make_flow(engine, tx, intent),
            [
                ("cas_lock", STRAY_A),           # acquire CAS loses to stray A
                ("read_object", (STRAY_A, 1, True, 10)),
                ("cas_lock", STRAY_B),           # steal CAS loses to stray B
                ("cas_lock", STRAY_B),           # retry against B: wins
                ("read_object", (encode_lock(engine.coord_id, tag=1), 1, True, 10)),
            ],
        )
        assert intent.lock_result == (True, "")
        assert intent.locked
        assert engine.coordinator.stats.steal_retries == 1
        assert engine.coordinator.stats.locks_stolen == 1
        assert tx.trace.lock_events == ["steal", "steal_retry", "acquired"]

    def test_losing_to_a_live_stealer_aborts_without_retry(self):
        """The other stealer won and is alive: its word is not stray, so
        retrying would spin on a healthy lock — convert to a conflict."""
        engine = _StubEngine(failed_ids={DEAD_A})
        tx, intent = _StubTx(), _intent()
        _drive(
            _make_flow(engine, tx, intent),
            [
                ("cas_lock", STRAY_A),
                ("read_object", (STRAY_A, 1, True, 10)),
                ("cas_lock", LIVE_WORD),         # lost to a live winner
            ],
        )
        assert intent.lock_result == (False, AbortReason.LOCK_CONFLICT)
        assert not intent.locked
        assert engine.coordinator.stats.steal_retries == 0
        assert engine.coordinator.stats.locks_stolen == 0
        assert tx.trace.lock_events == ["steal", "steal_lost"]

    def test_retry_budget_is_bounded(self):
        """A pathological stray-churn sequence must stop at the limit."""
        from repro.protocol.strategies import STEAL_RETRY_LIMIT

        dead = list(range(200, 200 + STEAL_RETRY_LIMIT + 2))
        words = [encode_lock(coord, tag=coord) for coord in dead]
        engine = _StubEngine(failed_ids=set(dead))
        tx, intent = _StubTx(), _intent()
        script = [
            ("cas_lock", words[0]),
            ("read_object", (words[0], 1, True, 10)),
        ]
        # Steal CAS + every bounded retry each lose to the next stray.
        for word in words[1 : STEAL_RETRY_LIMIT + 2]:
            script.append(("cas_lock", word))
        _drive(_make_flow(engine, tx, intent), script)
        assert intent.lock_result == (False, AbortReason.LOCK_CONFLICT)
        assert engine.coordinator.stats.steal_retries == STEAL_RETRY_LIMIT
        assert engine.coordinator.stats.locks_stolen == 0


# ---------------------------------------------------------------------------
# One acquire flow: the ticket queue and the CAS word share head and tail
# ---------------------------------------------------------------------------


def _ticket_flow(engine, tx, intent):
    from repro.protocol.strategies import TicketLockStrategy

    return TicketLockStrategy(engine).acquire(tx, intent)


HOLDER = 8


class TestTicketFlow:
    def test_head_of_queue_is_granted_by_the_faa_alone(self):
        engine = _StubEngine()
        tx, intent = _StubTx(), _intent()
        granted = encode_ticket_word(engine.coord_id, serving=4, next_ticket=5)
        _drive(
            _ticket_flow(engine, tx, intent),
            [("faa_ticket", (4, granted)), ("read_object", (granted, 6, True, 10))],
        )
        assert intent.lock_result == (True, "")
        assert (intent.locked, intent.lock_node) == (True, 0)
        assert (intent.old_version, intent.old_present, intent.old_value) == (6, True, 10)
        assert tx.trace.lock_events == ["acquired"]
        assert engine.posted == [intent]

    def test_waiter_polls_then_rereads_the_image_under_the_lock(self):
        engine = _StubEngine()
        tx, intent = _StubTx(), _intent()
        waiting = encode_ticket_word(HOLDER, serving=4, next_ticket=6)
        granted = encode_ticket_word(engine.coord_id, serving=5, next_ticket=6)
        _drive(
            _ticket_flow(engine, tx, intent),
            [
                ("faa_ticket", (5, waiting)),
                ("read_object", (waiting, 6, True, 10)),  # raced the holder
                ("read_header", (waiting, 6, True)),
                ("read_header", (granted, 7, True)),
                ("read_object", (granted, 7, True, 11)),
            ],
        )
        assert intent.lock_result == (True, "")
        assert (intent.old_version, intent.old_value) == (7, 11)

    def test_dead_holder_is_advanced_past(self):
        engine = _StubEngine(failed_ids={HOLDER})
        tx, intent = _StubTx(), _intent()
        stray = encode_ticket_word(HOLDER, serving=4, next_ticket=6)
        granted = encode_ticket_word(engine.coord_id, serving=5, next_ticket=6)
        _drive(
            _ticket_flow(engine, tx, intent),
            [
                ("faa_ticket", (5, stray)),
                ("read_object", (stray, 6, True, 10)),
                ("cas_lock", stray),  # the queue advance wins
                ("read_header", (granted, 6, True)),
                ("read_object", (granted, 6, True, 10)),
            ],
        )
        assert intent.lock_result == (True, "")
        assert engine.coordinator.stats.locks_stolen == 1
        assert tx.trace.lock_events == ["steal", "acquired"]

    def test_refused_enqueue_is_a_conflict(self):
        engine = _StubEngine()
        tx, intent = _StubTx(), _intent()
        foreign = encode_lock(HOLDER, tag=1)
        _drive(
            _ticket_flow(engine, tx, intent),
            [("faa_ticket", (-1, foreign)), ("read_object", (foreign, 6, True, 10))],
        )
        assert intent.lock_result == (False, AbortReason.LOCK_CONFLICT)
        assert not intent.locked
        assert tx.trace.lock_events == ["conflict"]


@pytest.mark.parametrize("flow", [_make_flow, _ticket_flow])
class TestSharedTail:
    """Whichever way the word was taken, the same checks run under it."""

    GRANT = {
        _make_flow: ("cas_lock", 0),
        _ticket_flow: ("faa_ticket", (0, encode_ticket_word(3, 0, 1))),
    }

    def test_insert_over_a_present_key_fails_holding_the_lock(self, flow):
        engine = _StubEngine()
        tx, intent = _StubTx(), _intent(OP_INSERT)
        _drive(flow(engine, tx, intent), [self.GRANT[flow], ("read_object", (0, 2, True, 9))])
        assert intent.lock_result == (False, AbortReason.DUPLICATE_KEY)
        # The lock is held: the abort path must release it.
        assert intent.locked and tx.trace.lock_events == ["acquired"]
        assert engine.posted == []

    def test_upgrade_sees_a_newer_version(self, flow):
        engine = _StubEngine()
        tx, intent = _StubTx(), _intent()
        intent.expected_version = 1
        _drive(flow(engine, tx, intent), [self.GRANT[flow], ("read_object", (0, 2, True, 9))])
        assert intent.lock_result == (False, AbortReason.UPGRADE_VERSION)

    def test_a_dead_replica_is_a_link_revoked_result_not_a_raise(self, flow):
        from repro.rdma.errors import RdmaError

        engine = _StubEngine()
        tx, intent = _StubTx(), _intent()
        generator = flow(engine, tx, intent)
        next(generator)
        with pytest.raises(StopIteration):
            generator.throw(RdmaError("replica down"))
        assert intent.lock_result == (False, AbortReason.LINK_REVOKED)
