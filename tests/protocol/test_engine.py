"""Behavioural tests of the shared OCC engine (commit/abort paths)."""

import pytest

from repro.protocol.types import AbortReason
from repro.protocol.zoo import ZOO


def write_txn(key, value):
    def logic(tx):
        tx.write("kv", key, value)
        return value

    return logic


def rmw_txn(key, delta=1):
    def logic(tx):
        value = yield from tx.read_for_update("kv", key)
        tx.write("kv", key, (value or 0) + delta)
        return (value or 0) + delta

    return logic


def read_txn(*keys):
    def logic(tx):
        values = []
        for key in keys:
            value = yield from tx.read("kv", key)
            values.append(value)
        return values

    return logic


@pytest.mark.parametrize("protocol", ["pandora", "baseline", "tradlog"])
class TestCommitPath:
    def test_blind_write_commits(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)
        outcome = rig.run_txn(rig.coordinators[0], write_txn(3, 42))
        assert outcome.committed
        assert rig.value_at(3) == 42

    def test_commit_updates_all_replicas(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol, replication=2)
        rig.run_txn(rig.coordinators[0], write_txn(7, 99))
        assert rig.replica_values(7) == [99, 99]

    def test_commit_bumps_version(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)
        before = rig.slot_state(5).version
        rig.run_txn(rig.coordinators[0], write_txn(5, 1))
        assert rig.slot_state(5).version == before + 1

    def test_commit_releases_locks(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)
        rig.run_txn(rig.coordinators[0], write_txn(5, 1))
        assert rig.slot_state(5).lock == 0

    def test_rmw_reads_own_lockset(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)
        rig.run_txn(rig.coordinators[0], rmw_txn(4))
        outcome = rig.run_txn(rig.coordinators[0], rmw_txn(4))
        assert outcome.committed
        assert rig.value_at(4) == 2

    def test_read_only_txn(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)
        rig.run_txn(rig.coordinators[0], write_txn(2, 5))
        outcome = rig.run_txn(rig.coordinators[0], read_txn(2, 3))
        assert outcome.committed
        assert outcome.value == [5, 0]

    def test_read_your_writes(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)

        def logic(tx):
            tx.write("kv", 9, 123)
            value = yield from tx.read("kv", 9)
            return value

        outcome = rig.run_txn(rig.coordinators[0], logic)
        assert outcome.value == 123

    def test_multi_write_txn_atomic(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)

        def logic(tx):
            tx.write("kv", 10, 1)
            tx.write("kv", 11, 1)
            return None

        assert rig.run_txn(rig.coordinators[0], logic).committed
        assert rig.value_at(10) == 1 and rig.value_at(11) == 1


@pytest.mark.parametrize("protocol", ["pandora", "baseline", "tradlog"])
class TestInsertDelete:
    def test_insert_then_read(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol, keys=64)

        def insert(tx):
            tx.insert("kv", "new-key", 77)
            return None

        assert rig.run_txn(rig.coordinators[0], insert).committed
        outcome = rig.run_txn(rig.coordinators[0], read_txn("new-key"))
        assert outcome.value == [77]

    def test_duplicate_insert_aborts(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)

        def insert(tx):
            tx.insert("kv", 3, 1)  # key 3 is pre-loaded
            return None

        outcome = rig.run_txn(rig.coordinators[0], insert)
        assert not outcome.committed
        assert outcome.reason == AbortReason.DUPLICATE_KEY

    def test_delete_then_read_none(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)

        def delete(tx):
            tx.delete("kv", 6)
            return None

        assert rig.run_txn(rig.coordinators[0], delete).committed
        outcome = rig.run_txn(rig.coordinators[0], read_txn(6))
        assert outcome.value == [None]

    def test_delete_absent_aborts(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol, keys=64)

        def delete(tx):
            tx.delete("kv", "never-inserted")
            return None

        outcome = rig.run_txn(rig.coordinators[0], delete)
        assert not outcome.committed
        assert outcome.reason == AbortReason.NOT_FOUND

    def test_write_after_delete_resurrects(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)

        def logic(tx):
            tx.delete("kv", 7)
            tx.write("kv", 7, 42)
            return None

        assert rig.run_txn(rig.coordinators[0], logic).committed
        outcome = rig.run_txn(rig.coordinators[0], read_txn(7))
        assert outcome.value == [42]

    def test_delete_then_insert_same_txn(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)

        def logic(tx):
            tx.delete("kv", 7)
            tx.insert("kv", 7, 43)
            return None

        assert rig.run_txn(rig.coordinators[0], logic).committed
        outcome = rig.run_txn(rig.coordinators[0], read_txn(7))
        assert outcome.value == [43]

    def test_reinsert_after_delete(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol)

        def delete(tx):
            tx.delete("kv", 8)
            return None

        def insert(tx):
            tx.insert("kv", 8, 500)
            return None

        assert rig.run_txn(rig.coordinators[0], delete).committed
        assert rig.run_txn(rig.coordinators[0], insert).committed
        assert rig.run_txn(rig.coordinators[0], read_txn(8)).value == [500]


@pytest.mark.parametrize("protocol", ["pandora", "baseline", "tradlog"])
class TestConflicts:
    def test_lock_conflict_aborts_one(self, rig_factory, protocol):
        rig = rig_factory(protocol=protocol, compute_nodes=2)
        first = rig.submit(rig.coordinators[0], rmw_txn(5))
        second = rig.submit(rig.coordinators[1], rmw_txn(5))
        rig.sim.run()
        outcomes = [first.value, second.value]
        committed = [outcome for outcome in outcomes if outcome.committed]
        # At least one commits; both committing must never double-apply.
        assert len(committed) >= 1
        assert rig.value_at(5) == len(committed)

    def test_abort_releases_only_own_locks(self, rig_factory, protocol):
        """After any mix of conflicting txns, no lock leaks."""
        rig = rig_factory(protocol=protocol, compute_nodes=2)
        processes = [
            rig.submit(rig.coordinators[index % 2], rmw_txn(5))
            for index in range(6)
        ]
        rig.sim.run()
        assert all(process.triggered for process in processes)
        assert rig.slot_state(5).lock == 0
        # ... and no log record outlives its transaction — including
        # tradlog's lock-intent records of the CASes that lost.
        assert not all(process.value.committed for process in processes)
        assert not [
            record
            for memory in rig.memory.values()
            for region in memory.log_regions.values()
            for record in region.valid_records()
        ]

    def test_validation_catches_intervening_write(self, rig_factory, protocol):
        """Read-set validation: a write between read and validation
        aborts the reader (version check)."""
        rig = rig_factory(protocol=protocol, compute_nodes=2)
        sim = rig.sim
        coordinator_a, coordinator_b = rig.coordinators[:2]

        def slow_reader(tx):
            _x = yield from tx.read("kv", 1)
            # Stall long enough for the writer to commit, then read a
            # second key so validation has a multi-read read-set.
            yield sim.timeout(200e-6)
            _y = yield from tx.read("kv", 2)
            return None

        reader = rig.submit(coordinator_a, slow_reader)
        sim.run(until=50e-6)
        writer = rig.submit(coordinator_b, write_txn(1, 777))
        sim.run()
        assert writer.value.committed
        assert not reader.value.committed
        assert reader.value.reason == AbortReason.VALIDATION_VERSION

    def test_upgrade_version_conflict(self, rig_factory, protocol):
        """Read-then-write: lock acquisition re-checks the version."""
        rig = rig_factory(protocol=protocol, compute_nodes=2)
        sim = rig.sim

        def read_then_write(tx):
            value = yield from tx.read("kv", 1)
            yield sim.timeout(200e-6)  # let the other writer slip in
            tx.write("kv", 1, (value or 0) + 1)
            return None

        slow = rig.submit(rig.coordinators[0], read_then_write)
        sim.run(until=50e-6)
        fast = rig.submit(rig.coordinators[1], write_txn(1, 100))
        sim.run()
        assert fast.value.committed
        assert not slow.value.committed
        # The lost-update anomaly must not occur.
        assert rig.value_at(1) == 100


class TestPandoraSpecifics:
    def test_lock_word_carries_coordinator_id(self, rig_factory):
        from repro.protocol.locks import is_locked, owner_of

        rig = rig_factory(protocol="pandora")
        coordinator = rig.coordinators[0]
        seen = {}

        def logic(tx):
            value = yield from tx.read_for_update("kv", 3)
            seen["word"] = rig.slot_state(3).lock
            tx.write("kv", 3, 1)
            return value

        rig.run_txn(coordinator, logic)
        assert is_locked(seen["word"])
        assert owner_of(seen["word"]) == coordinator.coord_id

    def test_stray_lock_stolen(self, rig_factory):
        """PILL: a lock owned by a failed coordinator is stolen."""
        from repro.protocol.locks import encode_lock

        rig = rig_factory(protocol="pandora", compute_nodes=2)
        dead_coord = rig.coordinators[0]
        live_coord = rig.coordinators[1]
        # Plant a stray lock owned by the "failed" coordinator.
        rig.slot_state(4).lock = encode_lock(dead_coord.coord_id, tag=1)
        live_coord.node.add_failed_ids([dead_coord.coord_id])

        outcome = rig.run_txn(live_coord, write_txn(4, 55))
        assert outcome.committed
        assert live_coord.stats.locks_stolen == 1
        assert rig.value_at(4) == 55

    def test_live_lock_not_stolen(self, rig_factory):
        from repro.protocol.locks import encode_lock

        rig = rig_factory(protocol="pandora", compute_nodes=2)
        other = rig.coordinators[0]
        live = rig.coordinators[1]
        rig.slot_state(4).lock = encode_lock(other.coord_id, tag=1)
        # other.coord_id is NOT in failed-ids.
        outcome = rig.run_txn(live, write_txn(4, 55))
        assert not outcome.committed
        assert outcome.reason == AbortReason.LOCK_CONFLICT
        assert live.stats.locks_stolen == 0

    def test_read_passes_stray_lock(self, rig_factory):
        from repro.protocol.locks import encode_lock

        rig = rig_factory(protocol="pandora", compute_nodes=2)
        dead = rig.coordinators[0]
        live = rig.coordinators[1]
        rig.slot_state(4).lock = encode_lock(dead.coord_id, tag=1)
        live.node.add_failed_ids([dead.coord_id])
        outcome = rig.run_txn(live, read_txn(4))
        assert outcome.committed

    def test_read_aborts_on_live_lock(self, rig_factory):
        from repro.protocol.locks import encode_lock

        rig = rig_factory(protocol="pandora", compute_nodes=2)
        other = rig.coordinators[0]
        live = rig.coordinators[1]
        rig.slot_state(4).lock = encode_lock(other.coord_id, tag=1)
        outcome = rig.run_txn(live, read_txn(4))
        assert not outcome.committed
        assert outcome.reason == AbortReason.READ_LOCKED

    def test_coalesced_log_written_to_f_plus_one_nodes(self, rig_factory):
        rig = rig_factory(protocol="pandora", replication=2)
        coordinator = rig.coordinators[0]
        log_nodes = rig.catalog.log_nodes(coordinator.coord_id)
        assert len(log_nodes) == 2

        writes_before = {
            node_id: rig.memory[node_id].verb_counts.get("write_log", 0)
            for node_id in rig.memory
        }

        def logic(tx):
            tx.write("kv", 1, 1)
            tx.write("kv", 2, 2)
            tx.write("kv", 3, 3)
            return None

        rig.run_txn(coordinator, logic)
        # Exactly one coalesced record per log node, regardless of the
        # write-set size (§3.1.4: f+1 writes total, not per object).
        for node_id in rig.memory:
            delta = rig.memory[node_id].verb_counts.get("write_log", 0) - writes_before[
                node_id
            ]
            assert delta == (1 if node_id in log_nodes else 0)

    def test_commit_invalidates_log_records(self, rig_factory):
        rig = rig_factory(protocol="pandora")
        coordinator = rig.coordinators[0]
        rig.run_txn(coordinator, write_txn(1, 5))
        rig.sim.run()  # drain unsignaled invalidations
        for node_id in rig.catalog.log_nodes(coordinator.coord_id):
            region = rig.memory[node_id].log_regions.get(coordinator.coord_id)
            assert region is not None
            assert region.valid_records() == []

    def test_abort_truncates_log_before_unlock(self, rig_factory):
        """§3.1.5: an aborting logged txn invalidates its records."""
        rig = rig_factory(protocol="pandora", compute_nodes=2)
        sim = rig.sim

        def read_then_write(tx):
            value = yield from tx.read("kv", 1)
            yield sim.timeout(200e-6)
            tx.write("kv", 1, (value or 0) + 1)
            tx.write("kv", 2, 1)
            return None

        slow = rig.submit(rig.coordinators[0], read_then_write)
        sim.run(until=50e-6)
        rig.submit(rig.coordinators[1], write_txn(1, 9))
        sim.run()
        assert not slow.value.committed
        for node_id in rig.catalog.log_nodes(rig.coordinators[0].coord_id):
            region = rig.memory[node_id].log_regions.get(
                rig.coordinators[0].coord_id
            )
            if region is not None:
                assert region.valid_records() == []


class TestFordSpecifics:
    def test_per_object_logging_to_object_replicas(self, rig_factory):
        rig = rig_factory(protocol="baseline", replication=2)
        coordinator = rig.coordinators[0]

        def logic(tx):
            tx.write("kv", 1, 1)
            return None

        rig.run_txn(coordinator, logic)
        slot = rig.catalog.slot_for(0, 1)
        replicas = rig.placement.replicas(0, slot)
        for node_id in replicas:
            region = rig.memory[node_id].log_regions.get(coordinator.coord_id)
            assert region is not None  # a log copy landed there

    def test_anonymous_locks(self, rig_factory):
        from repro.protocol.locks import ANONYMOUS_OWNER, owner_of

        rig = rig_factory(protocol="baseline")
        seen = {}

        def logic(tx):
            value = yield from tx.read_for_update("kv", 3)
            seen["word"] = rig.slot_state(3).lock
            tx.write("kv", 3, 1)
            return value

        rig.run_txn(rig.coordinators[0], logic)
        assert owner_of(seen["word"]) == ANONYMOUS_OWNER


class TestTradLogSpecifics:
    def test_lock_intent_logged_before_lock(self, rig_factory):
        rig = rig_factory(protocol="tradlog")
        coordinator = rig.coordinators[0]
        rig.run_txn(coordinator, write_txn(1, 5))
        # Lock-intent records (txn_id == -1) were written then
        # invalidated at unlock; the region must exist on log nodes.
        for node_id in rig.catalog.log_nodes(coordinator.coord_id):
            assert coordinator.coord_id in rig.memory[node_id].log_regions

    def test_extra_round_trip_slows_writes(self, rig_factory):
        fast = rig_factory(protocol="pandora")
        slow = rig_factory(protocol="tradlog")
        fast_outcome = fast.run_txn(fast.coordinators[0], write_txn(1, 5))
        slow_outcome = slow.run_txn(slow.coordinators[0], write_txn(1, 5))
        assert slow_outcome.latency > fast_outcome.latency


# ---------------------------------------------------------------------------
# Every way an attempt ends lets go of its write-set exactly once
# ---------------------------------------------------------------------------

HELD, LOST = 3, 9  # the key the attempt locks, and the one it loses


def _counting(name):
    """The *name* row with a log strategy that counts release_intent."""
    from collections import Counter
    from dataclasses import replace

    released = Counter()

    class CountingLog(ZOO[name].log):
        def release_intent(self, intent):
            released[self.engine.coord_id, intent.key] += 1
            super().release_intent(intent)

    return replace(ZOO[name], log=CountingLog), released


def _unlocks_of(coordinator):
    """Record every ``write_lock`` *coordinator*'s compute node posts."""
    posted = []
    verbs = coordinator.verbs
    write_lock = verbs.write_lock

    def recording(node, table_id, slot, word, **kwargs):
        posted.append((table_id, slot, word))
        return write_lock(node, table_id, slot, word, **kwargs)

    verbs.write_lock = recording
    return posted


def _reconfigure(node, times=1):
    """Deliver a memory reconfiguration the way recovery does: *times*
    same-instant ``begin_memory_reconfig`` calls, the end 60 µs later."""
    for _ in range(times):
        node.begin_memory_reconfig()
    node.sim.run(until=node.sim.now + 60e-6)
    node.end_memory_reconfig()


def _booked_once(coordinator, reason):
    """One attempt, one booking: a commit, or one abort for *reason*."""
    stats = coordinator.stats
    assert stats.attempts == stats.commits + stats.aborts == 1
    assert stats.abort_reasons == ({reason: 1} if reason else {})


# What each ending resolves to: None commits, else the one abort reason.
ENDINGS = {
    "commit": None,
    "abort": AbortReason.LOCK_CONFLICT,
    "interrupted-after-apply": None,
    "interrupted-before-apply": AbortReason.MEMORY_RECONFIG,
    "reconfig-mid-body": AbortReason.MEMORY_RECONFIG,
    "reconfig-in-user-abort": AbortReason.USER,
    "reconfig-twice": AbortReason.MEMORY_RECONFIG,
}


class TestAttemptEndings:
    """The commit tail, ``_abort`` and both branches of
    ``recover_interrupted`` share one unlock loop, and each attempt ends
    in exactly one of them: one booking, one ``write_lock 0`` per held
    lock, one ``release_intent`` per intent — held or not. The
    ``reconfig-*`` endings interrupt through ``begin_memory_reconfig``,
    the way a memory failure reaches an attempt (§3.2.5)."""

    @pytest.mark.parametrize("protocol", ["pandora", "tradlog", "lotus", "vote1pc"])
    @pytest.mark.parametrize("ending", list(ENDINGS))
    def test_write_set_is_let_go_exactly_once(self, rig_factory, protocol, ending):
        from repro.protocol.strategies import LOCK_INTENT_TXN

        declaration, released = _counting(protocol)
        rig = rig_factory(protocol=declaration, sanitize=True)
        sim = rig.sim
        coordinator, rival = rig.coordinators
        unlocks = _unlocks_of(coordinator)
        intents = [HELD]

        if ending == "abort":
            # The rival sits on LOST, so that intent's lock is never
            # held — and must still be let go (tradlog logged it).
            def squat(tx):
                yield from tx.read_for_update("kv", LOST)
                yield sim.timeout(1.0)

            rig.submit(rival, squat)
            sim.run(until=50e-6)
            intents.append(LOST)

        def body(tx):
            if ending == "reconfig-in-user-abort":
                tx.write("kv", HELD, 1)  # its lock CAS still in flight ...
                tx.abort()  # ... when the application gives up
            yield from tx.read_for_update("kv", HELD)
            tx.write("kv", HELD, 1)
            if ending == "abort":
                tx.write("kv", LOST, 2)
            if ending.startswith(("interrupted", "reconfig")):
                yield sim.timeout(1.0)  # parked, holding its lock

        process = rig.submit(coordinator, body)
        if ending.startswith("interrupted"):
            # The attempt is resolved by hand from what it knew.
            sim.run(until=sim.now + 100e-6)
            tx = coordinator.engine.current_tx
            process.kill()
            tx.apply_done = ending == "interrupted-after-apply"
            process = sim.process(coordinator.engine.recover_interrupted(tx))
        elif ending == "reconfig-in-user-abort":
            while not coordinator.stats.attempts:
                sim.step()  # ... until _abort waits on the lock CAS
            _reconfigure(coordinator.node)
        elif ending.startswith("reconfig"):
            sim.run(until=sim.now + 100e-6)
            _reconfigure(coordinator.node, times=2 if ending == "reconfig-twice" else 1)
        sim.run()

        reason = ENDINGS[ending]
        assert process.value.committed == (reason is None)
        assert process.value.reason == reason
        _booked_once(coordinator, reason)
        mine = {key: n for (coord_id, key), n in released.items() if coord_id == coordinator.coord_id}
        assert mine == {key: 1 for key in intents}
        assert unlocks == [(0, rig.catalog.slot_for(0, HELD), 0)]
        assert rig.slot_state(HELD).lock == 0
        assert rig.cluster.sanitizer.violations == []
        if protocol == "tradlog":
            records = [
                record
                for node in rig.memory.values()
                for record in node.log_regions[coordinator.coord_id].records
                if record.txn_id == LOCK_INTENT_TXN
            ]
            assert len(records) == 2 * len(intents)  # f+1 copies each
            assert not any(record.valid for record in records)

    @pytest.mark.parametrize("protocol", sorted(ZOO))
    def test_an_interrupt_during_apply_rolls_back_once(self, rig_factory, protocol):
        """Interrupted with its apply writes on the wire, an attempt
        aborts once: its undo images land behind those writes, and only
        then its one unlock."""
        declaration, released = _counting(protocol)
        rig = rig_factory(protocol=declaration, sanitize=True)
        coordinator = rig.coordinators[0]
        engine = coordinator.engine
        unlocks = _unlocks_of(coordinator)
        slot = rig.catalog.slot_for(0, HELD)

        def images():
            return [
                (state.version, state.value, state.present, state.lock)
                for state in (
                    rig.memory[node].slot(0, slot) for node in rig.placement.replicas(0, slot)
                )
            ]

        before = images()
        process = rig.submit(coordinator, write_txn(HELD, 1))
        while engine.current_tx is None or not engine.current_tx.write_set[0, slot].applied:
            rig.sim.step()
        assert not engine.current_tx.apply_done  # the writes are in flight
        _reconfigure(coordinator.node)
        rig.sim.run()

        assert process.value.reason == AbortReason.MEMORY_RECONFIG
        _booked_once(coordinator, AbortReason.MEMORY_RECONFIG)
        assert dict(released) == {(coordinator.coord_id, HELD): 1}
        assert unlocks == [(0, slot, 0)]
        assert images() == before
        assert rig.cluster.sanitizer.violations == []


def test_a_lock_subprocess_parked_on_its_cas_is_two_frames_deep(rig_factory):
    """The subprocess *is* the strategy's acquire flow, parked inside
    its take-the-word step — no engine trampolines in between (four
    generator frames before the engine-subclass hooks were retired)."""
    rig = rig_factory(protocol="pandora")
    coordinator = rig.coordinators[0]
    rig.submit(coordinator, write_txn(3, 42))
    node = rig.memory[rig.placement.primary(0, rig.catalog.slot_for(0, 3))]
    while not node.verb_counts.get("cas_lock"):
        rig.sim.step()  # ... until the CAS has landed; its answer has not
    (proc,) = coordinator.engine.current_tx.lock_procs
    assert proc.is_alive
    frames = []
    generator = proc.generator
    while generator is not None:
        frames.append(generator.gi_code.co_name)
        generator = generator.gi_yieldfrom
    assert frames == ["acquire", "_take"]
