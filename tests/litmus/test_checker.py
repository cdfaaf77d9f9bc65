"""Tests for the serializability checker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.builder import Cluster
from repro.cluster.config import ClusterConfig
from repro.litmus.checker import SerializabilityChecker, check_history
from repro.protocol.types import BugFlags
from repro.workloads.keyvalue import FuzzWorkload


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
        assert checker.edges[1] == {2: "wr"}
        assert checker.is_serializable()

    def test_anti_dependency_edge(self):
        history = [
            entry(1, reads={OBJ_X: 1}),
            entry(2, writes={OBJ_X: 2}),
        ]
        checker = SerializabilityChecker(history)
        assert checker.edges[1] == {2: "rw"}  # 1 must precede 2

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


def implied(history, first, second):
    """Does Adya's taxonomy order *first* before *second*? Read straight
    off the three definitions, pairwise and without an index — the
    reference the checker's construction is held to."""
    _id1, _time1, reads1, rmw1, writes1 = first
    _id2, _time2, reads2, rmw2, writes2 = second
    observed1, observed2 = {**reads1, **rmw1}, {**reads2, **rmw2}

    def second_installs_next(address, version):
        mine = writes2.get(address)
        return mine is not None and mine > version and not any(
            version < other[4].get(address, version) < mine for other in history
        )

    return (
        any(observed2.get(a) == v for a, v in writes1.items())  # wr
        or any(second_installs_next(a, v) for a, v in writes1.items())  # ww
        or any(second_installs_next(a, v) for a, v in observed1.items())  # rw
    )


def assert_closed_walk(history, cycle):
    by_id = {entry[0]: entry for entry in history}
    assert cycle
    for (tail, head), (next_tail, _next_head) in zip(cycle, cycle[1:] + cycle[:1]):
        assert head == next_tail
        assert implied(history, by_id[tail], by_id[head])


ADDRESSES = [(0, slot) for slot in range(3)]
observations = st.dictionaries(st.sampled_from(ADDRESSES), st.integers(0, 5), max_size=2)


@st.composite
def histories(draw):
    """Up to six transactions; each version of an address has one
    installer, reads may observe anything (so cycles are common)."""
    txn_ids = draw(st.permutations(range(1, draw(st.integers(0, 6)) + 1)))
    writes = {txn_id: {} for txn_id in txn_ids}
    for address in ADDRESSES if txn_ids else ():
        writers = draw(st.lists(st.sampled_from(txn_ids), unique=True))
        for version, txn_id in enumerate(writers, start=1):
            writes[txn_id][address] = version
    return [
        entry(txn_id, draw(observations), draw(observations), writes[txn_id])
        for txn_id in txn_ids
    ]


class TestCheckerAgainstDefinitions:
    """Verdicts certified by their own witnesses: a closed walk over
    implied edges proves a cycle, an order respecting every implied
    edge proves there is none."""

    @settings(max_examples=300, deadline=None)
    @given(histories())
    def test_edges_witness_and_serial_order(self, history):
        checker = SerializabilityChecker(history)
        edges = {(u, v) for u, successors in checker.edges.items() for v in successors}
        assert edges == {
            (first[0], second[0])
            for first in history
            for second in history
            if first is not second and implied(history, first, second)
        }
        if checker.is_serializable():
            assert checker.find_cycle() == []
            order = checker.serial_order()
            assert sorted(order) == sorted(entry[0] for entry in history)
            assert all(order.index(u) < order.index(v) for u, v in edges)
        else:
            assert_closed_walk(history, checker.find_cycle())

    @settings(max_examples=300, deadline=None)
    @given(histories())
    def test_same_verdict_and_witness_as_networkx(self, history):
        """The reference the checker no longer ships: same verdict, and
        — both walk nodes and edges in insertion order — same witness."""
        nx = pytest.importorskip("networkx")
        checker = SerializabilityChecker(history)
        graph = nx.DiGraph()
        graph.add_nodes_from(checker.edges)
        graph.add_edges_from(
            (u, v) for u, successors in checker.edges.items() for v in successors
        )
        assert checker.is_serializable() == nx.is_directed_acyclic_graph(graph)
        if not checker.is_serializable():
            assert checker.find_cycle() == list(nx.find_cycle(graph))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_recorded_ford_witness_reproduces(self, seed):
        from repro.chaos import ChaosRunner, generate_schedule
        from tests.integration.golden import load_golden

        runner = ChaosRunner(generate_schedule(seed, protocol="ford"))
        runner.run()
        cycle = SerializabilityChecker(runner.history).find_cycle()
        assert_closed_walk(runner.history, cycle)
        recorded = load_golden()[f"chaos/ford/{seed}"]["violations"]
        assert (
            f"[CHAOS-SERIAL] committed history has a cycle: {cycle[:6]}" in recorded
        )


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

    @staticmethod
    def _fuzz_history(bugs):
        """12 ms of random traffic on 8 hot keys, 3 x 3 coordinators."""
        cluster = Cluster(
            ClusterConfig(
                protocol="pandora",
                bugs=bugs,
                compute_nodes=3,
                coordinators_per_node=3,
                seed=6,
            ),
            FuzzWorkload(8),
        )
        history = cluster.record_history()
        cluster.start()
        cluster.run(until=12e-3)
        return history

    def test_covert_locks_history_has_a_cycle(self):
        """Cross-validation: the history checker independently catches
        the covert-locks bug that litmus-2 exposes, and the same run
        without the bug has no cycle."""
        buggy = SerializabilityChecker(self._fuzz_history(BugFlags(covert_locks=True)))
        assert not buggy.is_serializable()
        assert buggy.find_cycle()
        assert check_history(self._fuzz_history(None))
