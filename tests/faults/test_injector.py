"""Tests for the fault injector and MTTF process."""

import random

import pytest

from repro import Cluster, ClusterConfig
from repro.faults.injector import FaultInjector
from repro.faults.mttf import MttfProcess
from repro.sim import Simulator
from repro.workloads import MicroBenchmark


def make_cluster(**overrides):
    defaults = dict(coordinators_per_node=2, seed=41)
    defaults.update(overrides)
    cluster = Cluster(
        ClusterConfig(**defaults), MicroBenchmark(num_keys=200, write_ratio=1.0)
    )
    cluster.start()
    return cluster


class TestTimedCrash:
    def test_crash_at_time(self):
        cluster = make_cluster()
        cluster.crash_compute(0, at=0.005)
        cluster.run(until=0.006)
        assert not cluster.compute_nodes[0].alive
        assert cluster.compute_nodes[0].crash_time == pytest.approx(0.005)

    def test_crash_records_event(self):
        cluster = make_cluster()
        cluster.injector.crash_at(cluster.compute_nodes[0], 0.003)
        cluster.run(until=0.004)
        assert cluster.injector.crashes[0][1] == 0

    def test_crash_on_dead_node_is_noop(self):
        cluster = make_cluster()
        cluster.injector.crash_at(cluster.compute_nodes[0], 0.002)
        cluster.injector.crash_at(cluster.compute_nodes[0], 0.003)
        cluster.run(until=0.004)
        assert len(cluster.injector.crashes) == 1


class TestCrashPoints:
    def test_crash_on_named_point(self):
        cluster = make_cluster()
        cluster.injector.crash_on_point(0, "locked", nth=1)
        cluster.run(until=0.010)
        assert not cluster.compute_nodes[0].alive
        assert cluster.injector.crashes[0][2] == "locked"

    def test_nth_occurrence(self):
        first = make_cluster()
        first.injector.crash_on_point(0, "locked", nth=1)
        first.run(until=0.010)
        later = make_cluster()
        later.injector.crash_on_point(0, "locked", nth=30)
        later.run(until=0.010)
        assert later.compute_nodes[0].crash_time > first.compute_nodes[0].crash_time

    def test_plan_fires_once(self):
        cluster = make_cluster(restart_failed_after=1e-3, fd_timeout=2e-3)
        plan = cluster.injector.crash_on_point(0, "locked", nth=1)
        cluster.run(until=0.050)
        assert plan.fired
        # The node restarted and was not re-crashed by the same plan.
        assert cluster.compute_nodes[0].alive

    def test_point_mismatch_does_not_fire(self):
        # A declared point this run never reaches: nothing interrupts
        # an attempt, so no attempt is resolved by recover_interrupted.
        cluster = make_cluster()
        cluster.injector.crash_on_point(0, "recover_undo_written", nth=1)
        cluster.run(until=0.010)
        assert cluster.compute_nodes[0].alive

    def test_an_undeclared_point_is_rejected(self):
        """A misspelled point would never match: refuse it up front."""
        cluster = make_cluster()
        with pytest.raises(ValueError, match="'decison'"):
            cluster.injector.crash_on_point(0, "decison", nth=1)
        assert cluster.injector.plans_by_node == {}

    def test_the_declared_points_are_the_engines_crash_points(self):
        """Every ``_cp("…")`` boundary in the engines is a declared
        point, and every declared point is one (a deleted boundary
        would leave litmus and chaos plans that can never fire)."""
        import ast
        import pathlib

        import repro.protocol
        from repro.faults.injector import ALL_CRASH_POINTS

        engines = pathlib.Path(repro.protocol.__file__).parent
        literals = {
            node.args[0].value
            for path in sorted(engines.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_cp"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        }
        assert literals == set(ALL_CRASH_POINTS)

    def test_clear_plans(self):
        cluster = make_cluster()
        cluster.injector.crash_on_point(0, "locked", nth=50_000)
        cluster.injector.clear(0)
        assert cluster.injector.plans_by_node.get(0) in (None, [])

    def test_other_nodes_unaffected(self):
        cluster = make_cluster()
        cluster.injector.crash_on_point(0, "locked", nth=1)
        cluster.run(until=0.010)
        assert cluster.compute_nodes[1].alive

    def test_plan_added_mid_run_still_fires(self):
        # Engines skip the injector call while no plan is armed; arming
        # one after traffic has started must take effect at the very
        # next crash point, and cleared plans must stop firing again.
        cluster = make_cluster()
        cluster.run(until=0.002)
        assert cluster.injector.crashes == []
        cluster.injector.crash_on_point(0, "locked", nth=1)
        cluster.run(until=0.003)
        assert not cluster.compute_nodes[0].alive
        (when, node_id, point), = cluster.injector.crashes
        assert (node_id, point) == (0, "locked") and when >= 0.002
        cluster.injector.clear()
        cluster.run(until=0.004)
        assert cluster.compute_nodes[1].alive

    def test_crash_point_without_plans_is_free(self):
        injector = FaultInjector(Simulator())

        class FakeNode:
            node_id = 9

        class FakeCoordinator:
            node = FakeNode()

        assert injector.crash_point("locked", FakeCoordinator()) is None


class TestMttfProcess:
    def test_crash_restore_cycles(self):
        cluster = make_cluster(fd_timeout=1e-3, fd_heartbeat_interval=0.3e-3)
        node = cluster.compute_nodes[0]
        mttf = MttfProcess(
            cluster.sim,
            node,
            restart=cluster.restart_compute,
            mttf=5e-3,
            repair_time=1e-3,
            rng=random.Random(5),
        )
        mttf.start()
        cluster.run(until=0.060)
        assert mttf.crash_count >= 3
        # The node ends up alive (restored) or mid-repair; either way
        # the cluster kept making progress.
        assert cluster.aggregate_stats().commits > 0

    def test_invalid_mttf(self):
        with pytest.raises(ValueError):
            MttfProcess(Simulator(), None, None, mttf=0)

    def test_stop(self):
        cluster = make_cluster()
        node = cluster.compute_nodes[0]
        mttf = MttfProcess(
            cluster.sim, node, cluster.restart_compute, mttf=100.0
        )
        mttf.start()
        mttf.stop()
        cluster.run(until=0.010)
        assert node.alive


class TestDefaultSeed:
    """Components built without an RNG fall back to the named constant
    (and say so at debug level) instead of a silent `random.Random(0)`."""

    def test_constant_exists(self):
        from repro.faults.injector import DEFAULT_FAULT_SEED

        assert DEFAULT_FAULT_SEED == 0

    def test_injector_fallback_matches_constant(self):
        from repro.faults.injector import DEFAULT_FAULT_SEED

        injector = FaultInjector(Simulator())
        reference = random.Random(DEFAULT_FAULT_SEED)
        assert [injector.rng.random() for _ in range(5)] == [
            reference.random() for _ in range(5)
        ]

    def test_mttf_fallback_matches_constant(self):
        from repro.faults.injector import DEFAULT_FAULT_SEED

        cluster = make_cluster()
        mttf = MttfProcess(
            cluster.sim, cluster.compute_nodes[0], cluster.restart_compute, mttf=1.0
        )
        reference = random.Random(DEFAULT_FAULT_SEED)
        assert [mttf.rng.random() for _ in range(5)] == [
            reference.random() for _ in range(5)
        ]

    def test_fallback_logs_at_debug(self, caplog):
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro.faults.injector"):
            FaultInjector(Simulator())
        assert any("DEFAULT_FAULT_SEED" in record.message for record in caplog.records)


class TestStateHygiene:
    """Injector state hygiene: clear() resets plans, dead nodes are inert."""

    def _rig(self, alive=True):
        sim = Simulator()
        injector = FaultInjector(sim, random.Random(7))

        class FakeNode:
            node_id = 0

            def __init__(self):
                self.alive = alive
                self.crashed = 0

            def crash(self):
                self.alive = False
                self.crashed += 1

        class FakeCoordinator:
            pass

        node = FakeNode()
        coordinator = FakeCoordinator()
        coordinator.node = node
        return sim, injector, node, coordinator

    def test_clear_resets_countdown(self):
        _sim, injector, _node, coordinator = self._rig()
        plan = injector.crash_on_point(0, "locked", nth=3)
        injector.crash_point("locked", coordinator)
        injector.crash_point("locked", coordinator)
        assert plan._seen == 2
        injector.clear()
        injector.add_plan(plan)
        # Fresh countdown: the first post-clear invocation is #1 of 3,
        # not #3 of 3 (the pre-fix behaviour fired here).
        assert injector.crash_point("locked", coordinator) is None
        assert not plan.fired

    def test_clear_resets_fired_flag(self):
        _sim, injector, node, coordinator = self._rig()
        plan = injector.crash_on_point(0, "locked", nth=1)
        assert injector.crash_point("locked", coordinator) is not None
        assert plan.fired
        injector.clear(0)
        node.alive = True
        injector.add_plan(plan)
        # A re-registered plan arms again instead of staying spent.
        assert injector.crash_point("locked", coordinator) is not None

    def test_per_node_clear_resets_only_that_node(self):
        _sim, injector, _node, _coordinator = self._rig()
        mine = injector.crash_on_point(0, "locked", nth=5)
        other = injector.crash_on_point(1, "locked", nth=5)
        mine._seen = other._seen = 4
        injector.clear(0)
        assert mine._seen == 0
        assert other._seen == 4

    def test_crash_at_dead_node_never_schedules(self):
        sim, injector, node, _coordinator = self._rig(alive=False)
        injector.crash_at(node, 0.005)
        assert sim.queue_depth == 0

    def test_crash_point_on_dead_node_is_inert(self):
        _sim, injector, node, coordinator = self._rig(alive=False)
        plan = injector.crash_on_point(0, "locked", nth=1)
        rng_state = injector.rng.getstate()
        assert injector.crash_point("locked", coordinator) is None
        assert not plan.fired and plan._seen == 0
        assert not injector.crashes
        assert node.crashed == 0
        # Probabilistic plans must not burn RNG draws either, or a
        # dead-node window would shift every later seeded decision.
        injector.clear()
        injector.random_crashes(0, probability=0.5)
        assert injector.crash_point("locked", coordinator) is None
        assert injector.rng.getstate() == rng_state
