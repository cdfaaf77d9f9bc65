"""Tests for the serializability checker."""

import pytest

from repro.litmus.checker import SerializabilityChecker, check_history


def entry(txn_id, reads=None, rmw=None, writes=None, time=0.0):
    return (txn_id, time, reads or {}, rmw or {}, writes or {})


OBJ_X = (0, 1)
OBJ_Y = (0, 2)


class TestChecker:
    def test_empty_history_serializable(self):
        assert check_history([])

    def test_single_txn(self):
        assert check_history([entry(1, writes={OBJ_X: 1})])

    def test_serial_chain(self):
        history = [
            entry(1, writes={OBJ_X: 1}),
            entry(2, rmw={OBJ_X: 1}, writes={OBJ_X: 2}),
            entry(3, rmw={OBJ_X: 2}, writes={OBJ_X: 3}),
        ]
        checker = SerializabilityChecker(history)
        assert checker.is_serializable()
        assert checker.serial_order() == [1, 2, 3]

    def test_write_skew_cycle_detected(self):
        """The classic litmus-2 anomaly: both read the other's
        pre-state and both write — an rw/rw cycle."""
        history = [
            # T1 read X@v1, wrote Y@v2; T2 read Y@v1, wrote X@v2.
            entry(1, reads={OBJ_X: 1}, writes={OBJ_Y: 2}),
            entry(2, reads={OBJ_Y: 1}, writes={OBJ_X: 2}),
        ]
        checker = SerializabilityChecker(history)
        assert not checker.is_serializable()
        assert checker.find_cycle()

    def test_read_from_edge(self):
        history = [
            entry(1, writes={OBJ_X: 5}),
            entry(2, reads={OBJ_X: 5}),
        ]
        checker = SerializabilityChecker(history)
        assert checker.graph.has_edge(1, 2)
        assert checker.is_serializable()

    def test_anti_dependency_edge(self):
        history = [
            entry(1, reads={OBJ_X: 1}),
            entry(2, writes={OBJ_X: 2}),
        ]
        checker = SerializabilityChecker(history)
        assert checker.graph.has_edge(1, 2)  # rw: 1 must precede 2

    def test_serial_order_raises_on_cycle(self):
        history = [
            entry(1, reads={OBJ_X: 1}, writes={OBJ_Y: 2}),
            entry(2, reads={OBJ_Y: 1}, writes={OBJ_X: 2}),
        ]
        with pytest.raises(ValueError):
            SerializabilityChecker(history).serial_order()

    def test_independent_txns_any_order(self):
        history = [
            entry(1, writes={OBJ_X: 1}),
            entry(2, writes={OBJ_Y: 1}),
        ]
        assert check_history(history)


class TestCheckerOnLiveHistory:
    """Collect real histories via the coordinator history sink."""

    def _run_workload(self, protocol, keys=8, txns=60):
        import random

        from tests.protocol.conftest import ProtocolRig

        rig = ProtocolRig(protocol=protocol, compute_nodes=2, keys=keys)
        history = []
        for coordinator in rig.coordinators:
            coordinator.history_sink = history
        rng = random.Random(5)
        processes = []

        def rmw(key):
            def logic(tx):
                value = yield from tx.read_for_update("kv", key)
                tx.write("kv", key, (value or 0) + 1)
                return None

            return logic

        def reader(key_a, key_b):
            def logic(tx):
                a = yield from tx.read("kv", key_a)
                b = yield from tx.read("kv", key_b)
                return (a, b)

            return logic

        for index in range(txns):
            coordinator = rig.coordinators[index % len(rig.coordinators)]
            if rng.random() < 0.5:
                logic = rmw(rng.randrange(keys))
            else:
                logic = reader(rng.randrange(keys), rng.randrange(keys))
            processes.append(rig.submit(coordinator, logic))
        rig.sim.run()
        return history

    @pytest.mark.parametrize("protocol", ["pandora", "baseline", "tradlog"])
    def test_live_history_is_serializable(self, protocol):
        history = self._run_workload(protocol)
        # Contention is high and the rig coordinators do not retry, so
        # only a fraction commits — enough for a meaningful check.
        assert len(history) >= 5
        assert check_history(history)
