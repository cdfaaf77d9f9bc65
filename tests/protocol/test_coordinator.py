"""Tests for the coordinator worker loop: retries, stats, policies."""


from repro.protocol.coordinator import CoordinatorConfig, CoordinatorStats
from repro.protocol.types import AbortReason


class TestCoordinatorConfig:
    def test_defaults(self):
        config = CoordinatorConfig()
        assert config.max_attempts == 64
        assert not config.abandon_on_conflict


class TestStatsMerge:
    def test_merge_counts(self):
        left, right = CoordinatorStats(), CoordinatorStats()
        left.commits, right.commits = 3, 4
        left.abort_reasons["x"] = 1
        right.abort_reasons["x"] = 2
        left.merge(right)
        assert left.commits == 7
        assert left.abort_reasons["x"] == 3

    def test_merge_latency_histograms(self):
        left, right = CoordinatorStats(), CoordinatorStats()
        left.latency.add(1e-5)
        right.latency.add(2e-5)
        left.merge(right)
        assert left.latency.count == 2


class TestRetryPolicy:
    def test_conflict_retried_until_commit(self, rig_factory):
        """A lock conflict resolves once the holder finishes."""
        from repro.protocol.coordinator import CoordinatorConfig

        rig = rig_factory(protocol="pandora", compute_nodes=2)
        holder, contender = rig.coordinators[:2]
        contender.config = CoordinatorConfig(max_attempts=32)
        sim = rig.sim

        def hold_then_write(tx):
            value = yield from tx.read_for_update("kv", 3)
            yield sim.timeout(50e-6)
            tx.write("kv", 3, (value or 0) + 1)
            return None

        def increment(tx):
            value = yield from tx.read_for_update("kv", 3)
            tx.write("kv", 3, (value or 0) + 1)
            return None

        slow = rig.submit(holder, hold_then_write)
        sim.run(until=5e-6)
        fast = rig.submit(contender, increment)
        sim.run()
        assert slow.value.committed
        assert fast.value.committed
        assert fast.value.attempts > 1
        assert rig.value_at(3) == 2

    def test_user_abort_not_retried(self, rig_factory):
        from repro.protocol.coordinator import CoordinatorConfig

        rig = rig_factory(protocol="pandora")
        coordinator = rig.coordinators[0]
        coordinator.config = CoordinatorConfig(max_attempts=32)
        attempts = {"count": 0}

        def always_abort(tx):
            attempts["count"] += 1
            value = yield from tx.read("kv", 1)
            tx.abort("business rule")
            return value

        outcome = rig.run_txn(coordinator, always_abort)
        assert not outcome.committed
        assert outcome.reason == AbortReason.USER
        assert attempts["count"] == 1

    def test_abandon_on_conflict(self, rig_factory):
        from repro.protocol.coordinator import CoordinatorConfig
        from repro.protocol.locks import encode_lock

        rig = rig_factory(protocol="pandora", compute_nodes=2)
        coordinator = rig.coordinators[1]
        coordinator.config = CoordinatorConfig(abandon_on_conflict=True)
        # Permanently locked by a live (never-failing) coordinator.
        rig.slot_state(4).lock = encode_lock(rig.coordinators[0].coord_id)

        def write(tx):
            tx.write("kv", 4, 9)
            return None

        outcome = rig.run_txn(coordinator, write)
        assert not outcome.committed
        assert outcome.attempts == 1

    def test_attempts_bounded(self, rig_factory):
        from repro.protocol.coordinator import CoordinatorConfig
        from repro.protocol.locks import encode_lock

        rig = rig_factory(protocol="pandora", compute_nodes=2)
        coordinator = rig.coordinators[1]
        coordinator.config = CoordinatorConfig(max_attempts=5)
        rig.slot_state(4).lock = encode_lock(rig.coordinators[0].coord_id)

        def write(tx):
            tx.write("kv", 4, 9)
            return None

        outcome = rig.run_txn(coordinator, write)
        assert not outcome.committed
        assert outcome.attempts == 5

    def test_txn_ids_unique_and_tagged(self, rig_factory):
        rig = rig_factory(protocol="pandora")
        coordinator = rig.coordinators[0]
        ids = {coordinator.next_txn_id() for _ in range(100)}
        assert len(ids) == 100
        assert all((txn_id >> 32) == coordinator.coord_id for txn_id in ids)

    def test_latency_recorded_on_commit(self, rig_factory):
        rig = rig_factory(protocol="pandora")
        coordinator = rig.coordinators[0]

        def write(tx):
            tx.write("kv", 1, 1)
            return None

        rig.run_txn(coordinator, write)
        assert coordinator.stats.latency.count == 1
        assert coordinator.stats.latency.percentile(50) > 0


class TestSubmit:
    """``Coordinator.submit`` is the one way in for scripted transactions:
    it records the process on the coordinator, so the node-level paths
    that reach in-flight attempts (crash, reconfiguration) find it."""

    @staticmethod
    def _slow(sim):
        def slow(tx):
            value = yield from tx.read_for_update("kv", 3)
            yield sim.timeout(100e-6)
            tx.write("kv", 3, (value or 0) + 1)
            return None

        return slow

    def test_node_crash_kills_a_submitted_transaction(self, rig_factory):
        rig = rig_factory(protocol="pandora")
        coordinator = rig.coordinators[0]
        process = coordinator.submit(self._slow(rig.sim))
        assert coordinator.process is process
        rig.sim.run(until=20e-6)
        assert rig.slot_state(3).lock != 0  # mid-transaction, lock held
        coordinator.node.crash()
        rig.sim.run()
        assert coordinator.process is None
        assert process.triggered and not process.ok
        assert rig.value_at(3) == 0  # the write never applied
        assert rig.slot_state(3).lock != 0  # ... and the lock is now stray

    def test_memory_reconfig_interrupts_a_submitted_transaction(self, rig_factory):
        rig = rig_factory(protocol="pandora")
        coordinator = rig.coordinators[0]
        node = coordinator.node
        process = coordinator.submit(self._slow(rig.sim))
        rig.sim.run(until=20e-6)
        node.begin_memory_reconfig()
        rig.sim.run(until=60e-6)
        node.end_memory_reconfig()
        rig.sim.run()
        outcome = process.value
        assert not outcome.committed
        assert outcome.reason == AbortReason.MEMORY_RECONFIG
        assert coordinator.stats.abort_reasons == {AbortReason.MEMORY_RECONFIG: 1}
        assert rig.value_at(3) == 0
        assert rig.slot_state(3).lock == 0

    def test_a_delay_costs_exactly_one_kernel_event(self, rig_factory):
        """``delay=None`` spawns ``run_transaction`` bare; any delay —
        ``0.0`` included, which the litmus goldens depend on — puts one
        ``sim.timeout`` ahead of it and nothing else."""

        def increment(tx):
            value = yield from tx.read_for_update("kv", 3)
            tx.write("kv", 3, (value or 0) + 1)
            return None

        def events(start):
            rig = rig_factory(protocol="pandora")
            process = start(rig.coordinators[0])
            rig.sim.run()
            assert process.value.committed
            return rig.sim.processed_events

        bare = events(lambda c: c.sim.process(c.run_transaction(increment)))
        assert events(lambda c: c.submit(increment)) == bare
        assert events(lambda c: c.submit(increment, delay=0.0)) == bare + 1
        assert events(lambda c: c.submit(increment, delay=7e-6)) == bare + 1

    def test_process_names(self, rig_factory):
        coordinator = rig_factory(protocol="pandora").coordinators[1]
        assert coordinator.submit(lambda tx: None).name == "txn-c1"
        assert coordinator.submit(lambda tx: None, name="lit-0-3").name == "lit-0-3"
