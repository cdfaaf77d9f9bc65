"""Edge cases of the engine: interrupts, error paths, optimizations."""

import pytest

from repro.protocol.types import AbortReason
from repro.rdma.errors import RemoteNodeDownError

# One row per lock/log/commit triple of the zoo (baseline is ford's
# triple with the Table 1 bugs fixed).
TRIPLES = ("pandora", "ford", "tradlog", "lotus", "vote1pc")


class TestValidationOptimization:
    def test_single_read_skips_validation(self, rig_factory):
        """A lone read with no writes commits in one round trip."""
        rig = rig_factory(protocol="pandora")

        def single(tx):
            value = yield from tx.read("kv", 1)
            return value

        outcome = rig.run_txn(rig.coordinators[0], single)
        # One read RTT (~3.4us) only; validation would add another.
        assert outcome.latency < 5e-6

    def test_two_reads_validate(self, rig_factory):
        rig = rig_factory(protocol="pandora")

        def double(tx):
            a = yield from tx.read("kv", 1)
            b = yield from tx.read("kv", 2)
            return (a, b)

        outcome = rig.run_txn(rig.coordinators[0], double)
        assert outcome.latency > 5e-6  # extra validation round trip

    def test_read_plus_write_validates_read(self, rig_factory):
        rig = rig_factory(protocol="pandora")

        def mixed(tx):
            a = yield from tx.read("kv", 1)
            tx.write("kv", 2, (a or 0) + 1)
            return None

        outcome = rig.run_txn(rig.coordinators[0], mixed)
        assert outcome.committed


class TestReadForUpdateCaching:
    def test_second_read_for_update_uses_held_lock(self, rig_factory):
        rig = rig_factory(protocol="pandora")

        def logic(tx):
            first = yield from tx.read_for_update("kv", 3)
            second = yield from tx.read_for_update("kv", 3)
            tx.write("kv", 3, (second or 0) + 1)
            return (first, second)

        outcome = rig.run_txn(rig.coordinators[0], logic)
        assert outcome.committed
        assert outcome.value[0] == outcome.value[1]

    def test_write_after_read_for_update_no_new_lock(self, rig_factory):
        rig = rig_factory(protocol="pandora")
        node = rig.placement.primary(0, rig.catalog.slot_for(0, 3))
        before = rig.memory[node].verb_counts.get("cas_lock", 0)

        def logic(tx):
            value = yield from tx.read_for_update("kv", 3)
            tx.write("kv", 3, (value or 0) + 1)
            return None

        rig.run_txn(rig.coordinators[0], logic)
        after = rig.memory[node].verb_counts.get("cas_lock", 0)
        assert after - before == 1  # exactly one lock CAS


class TestInterruptHandling:
    def test_interrupt_before_apply_rolls_back(self, rig_factory):
        rig = rig_factory(protocol="pandora")
        coordinator = rig.coordinators[0]
        sim = rig.sim

        def slow(tx):
            value = yield from tx.read_for_update("kv", 3)
            yield sim.timeout(100e-6)
            tx.write("kv", 3, 777)
            return None

        process = rig.submit(coordinator, slow)
        sim.run(until=20e-6)
        # Memory reconfiguration interrupt mid-execution.
        process.interrupt(coordinator.engine.current_tx)
        sim.run()
        outcome = process.value
        assert not outcome.committed
        assert outcome.reason == AbortReason.MEMORY_RECONFIG
        assert rig.value_at(3) == 0  # write never applied
        assert rig.slot_state(3).lock == 0  # lock released
        # Regression: the interrupt used to be booked as an application
        # error although no transaction body raised, and later twice.
        reasons = coordinator.stats.abort_reasons
        assert reasons == {AbortReason.MEMORY_RECONFIG: 1}
        assert AbortReason.APP_ERROR not in reasons


class TestAbortSurvivesALostLogCopy:
    @pytest.mark.parametrize("protocol", TRIPLES)
    def test_a_failed_log_ack_does_not_skip_the_unlocks(self, rig_factory, protocol):
        """A log copy on a server that died in flight fails with
        RdmaError; an abort that lets it escape skips its unlocks,
        leaving the lock held under a live coordinator id, which PILL
        can never steal."""
        rig = rig_factory(protocol=protocol)
        coordinator = rig.coordinators[0]

        def body(tx):
            yield from tx.read_for_update("kv", 3)
            tx.log_acks.append(rig.sim.event().fail(RemoteNodeDownError(1)))
            tx.abort()

        outcome = rig.run_txn(coordinator, body)
        assert not outcome.committed
        assert outcome.reason == AbortReason.USER
        assert rig.slot_state(3).lock == 0


class TestAppErrorReleasesLocks:
    """Regression for the lock leak an application error caused in
    run_attempt (found by a since-retired static analyser).

    An unmodeled exception from application logic used to escape the
    engine with the write-set's eagerly-acquired locks still set under
    a live coordinator id — unstealable by PILL forever. run_attempt
    now routes generic exceptions through the abort path before
    re-raising.
    """

    def test_app_exception_releases_held_locks(self, rig_factory):
        rig = rig_factory(protocol="pandora")
        coordinator = rig.coordinators[0]

        def buggy(tx):
            # read_for_update acquires the write lock synchronously, so
            # the lock is definitely held when the bug fires.
            yield from tx.read_for_update("kv", 5)
            raise ValueError("application bug")

        caught = []

        def driver():
            try:
                yield from coordinator.engine.run_attempt(
                    buggy, coordinator.next_txn_id()
                )
            except ValueError as error:
                caught.append(error)

        rig.sim.process(driver(), name="driver")
        rig.sim.run()
        assert caught, "the application error must still propagate"
        assert rig.slot_state(5).lock == 0  # lock released by abort path

    def test_app_exception_mid_writes_releases_all(self, rig_factory):
        rig = rig_factory(protocol="pandora")
        coordinator = rig.coordinators[0]

        def buggy(tx):
            yield from tx.read_for_update("kv", 7)
            yield from tx.read_for_update("kv", 8)
            raise KeyError("missing application state")

        caught = []

        def driver():
            try:
                yield from coordinator.engine.run_attempt(
                    buggy, coordinator.next_txn_id()
                )
            except KeyError as error:
                caught.append(error)

        rig.sim.process(driver(), name="driver")
        rig.sim.run()
        assert caught
        assert rig.slot_state(7).lock == 0
        assert rig.slot_state(8).lock == 0


class TestMemoryNodeLossDuringTxn:
    def test_txn_aborts_cleanly_when_replica_dies(self, rig_factory):
        rig = rig_factory(protocol="pandora", memory_nodes=2, replication=2)
        sim = rig.sim
        coordinator = rig.coordinators[0]

        def slow_writer(tx):
            value = yield from tx.read_for_update("kv", 3)
            yield sim.timeout(50e-6)
            tx.write("kv", 3, (value or 0) + 1)
            return None

        process = rig.submit(coordinator, slow_writer)
        sim.run(until=20e-6)
        # Kill a replica of key 3 mid-transaction; commit writes to it
        # will fail with RemoteNodeDownError.
        slot = rig.catalog.slot_for(0, 3)
        victim = rig.placement.replicas(0, slot)[1]
        rig.memory[victim].crash()
        sim.run()
        outcome = process.value
        # Aborted via §3.2.5 self-decision (no placement update in the
        # bare rig, so the txn cannot commit) — and nothing hangs.
        assert process.triggered
        assert not outcome.committed


class TestLateUpgradeCheck:
    def test_ford_aborts_at_validation_not_lock_time(self, rig_factory):
        """FORD's deferred re-check still prevents lost updates."""
        rig = rig_factory(protocol="baseline", compute_nodes=2)
        sim = rig.sim

        def read_then_write(tx):
            value = yield from tx.read("kv", 1)
            yield sim.timeout(200e-6)
            tx.write("kv", 1, (value or 0) + 1)
            return None

        def blind(tx):
            tx.write("kv", 1, 50)
            return None

        slow = rig.submit(rig.coordinators[0], read_then_write)
        sim.run(until=50e-6)
        fast = rig.submit(rig.coordinators[1], blind)
        sim.run()
        assert fast.value.committed
        assert not slow.value.committed
        assert slow.value.reason == AbortReason.UPGRADE_VERSION
        assert rig.value_at(1) == 50  # no lost update
