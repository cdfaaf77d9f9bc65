"""Unit tests for the wall-clock kernel profiler."""

import pytest

from repro.obs.profile import (
    NULL_PROFILER,
    KernelProfiler,
    NullKernelProfiler,
    subsystem_of_module,
)
from repro.sim import Simulator


class TestClassification:
    def test_subsystem_of_module(self):
        assert subsystem_of_module("repro.sim.kernel") == "kernel"
        assert subsystem_of_module("repro.rdma.qp") == "rdma"
        assert subsystem_of_module("repro.protocol.pandora") == "protocol"
        assert subsystem_of_module("repro.analysis.sanitizer") == "sanitizer"
        assert subsystem_of_module("numpy.core") == "other"
        assert subsystem_of_module(None) == "other"

    def test_classify_event(self):
        sim = Simulator()
        profiler = KernelProfiler()
        label, subsystem = profiler.classify(sim.timeout(1.0))
        assert label.startswith("event:")
        assert subsystem == "kernel"

    def test_classify_process_normalizes_instance_digits(self):
        sim = Simulator()
        profiler = KernelProfiler()

        def worker():
            yield sim.timeout(1.0)

        labels = set()
        for i in range(3):
            process = sim.process(worker(), name=f"coordinator-{i}")
            labels.add(profiler.classify(process)[0])
        # Instance ids collapse so three coordinators share one site.
        assert labels == {"process:coordinator-*"}

    def test_classify_callback_by_code_object(self):
        profiler = KernelProfiler()

        def callback():
            pass

        label, _subsystem = profiler.classify(callback)
        assert label.endswith("callback")
        # Cached by __code__: same answer, same object.
        assert profiler.classify(callback) is profiler.classify(callback)


class TestFrameAccounting:
    def test_pop_folds_self_and_child_time(self):
        profiler = KernelProfiler()
        profiler.push_site("root", "kernel")
        profiler.push("network", "delay")
        profiler.pop()
        profiler.pop()
        root = profiler.sites["root"]
        inner = profiler.sites["network:delay"]
        assert root.count == 1
        assert inner.count == 1
        assert inner.subsystem == "network"
        # Parent self time excludes the nested frame.
        assert root.self_ns == root.total_ns - inner.total_ns

    def test_collapsed_stack_paths(self):
        profiler = KernelProfiler()
        profiler.push_site("root", "kernel")
        profiler.push("rdma.post", "write_lock")
        profiler.pop()
        profiler.pop()
        paths = {line.rsplit(" ", 1)[0] for line in profiler.collapsed()}
        assert "root;rdma.post:write_lock" in paths
        for line in profiler.collapsed():
            ns = int(line.rsplit(" ", 1)[1])
            assert ns > 0

    def test_phase_attribution_on_verb_post_frames_only(self):
        profiler = KernelProfiler()
        profiler.set_phase("lock")
        profiler.push("rdma.post", "write_lock")
        profiler.pop()
        profiler.push("network", "delay")  # not a verb post: no phase
        profiler.pop()
        profiler.set_phase(None)
        profiler.push("rdma.post", "write_log")  # no ambient phase
        profiler.pop()
        assert list(profiler.phase_ns) == ["lock"]
        assert profiler.phase_counts == {"lock": 1}

    def test_subsystem_rollup_sums_sites(self):
        profiler = KernelProfiler()
        for _ in range(2):
            profiler.push("fanin", "AllOf")
            profiler.pop()
        profiler.push("fanin", "AnyOf")
        profiler.pop()
        calls, ns = profiler.subsystem_rollup()["kernel"]
        assert calls == 3
        assert ns > 0


class TestProfiledSimulation:
    def test_profiled_run_attributes_every_step(self):
        profiler = KernelProfiler()
        sim = Simulator(profiler=profiler)
        done = []

        def worker(tag):
            yield sim.timeout(1.0)
            yield sim.all_of([sim.timeout(1.0), sim.timeout(2.0)])
            done.append(tag)

        for tag in range(3):
            sim.process(worker(tag), name=f"worker-{tag}")
        profiler.run_begin()
        sim.run()
        profiler.run_end()
        assert done == [0, 1, 2]
        assert profiler.steps == sim.processed_events
        assert profiler.run_wall_ns > 0
        assert profiler._stack == []  # every frame was popped
        labels = set(profiler.sites)
        assert "process:worker-*" in labels
        assert "resume:worker-*" in labels
        assert "fanin:AllOf" in labels
        rollup = profiler.subsystem_rollup()
        assert rollup["kernel"][1] > 0
        # Attributed self time never exceeds the bracketing run time.
        assert profiler.profiled_ns <= profiler.run_wall_ns

    def test_resume_is_billed_to_the_generator_owner(self):
        """A coordinator's resume is protocol code, not kernel code: the
        ``resume:`` frame follows the file that defines the generator,
        like the ``process:`` root does. (The workers of the test above
        are defined outside ``repro``, hence "other".)"""
        from repro.protocol.coordinator import Coordinator

        profiler = KernelProfiler()
        sim = Simulator(profiler=profiler)

        def worker():
            yield sim.timeout(1.0)

        sim.process(worker(), name="worker-0")
        # A generator defined under repro/protocol; with no coordinator
        # behind it the first resume fails the process, which is enough.
        stub = sim.process(Coordinator._run(None), name="coordinator-7")
        sim.run()
        assert isinstance(stub._exception, AttributeError)
        assert profiler.sites["resume:worker-*"].subsystem == "other"
        assert profiler.sites["resume:coordinator-*"].subsystem == "protocol"
        # Not yet seen by the profiler: the old answer, not a crash.
        profiler.push("resume", "stranger-1")
        profiler.pop()
        assert profiler.sites["resume:stranger-*"].subsystem == "kernel"

    def test_work_request_legs_are_rdma_entries(self):
        """The verb object is on the kernel queue as bound methods of
        itself; both legs must classify as rdma, not event:*/kernel."""
        import random

        from repro.memory.node import MemoryNode
        from repro.rdma.network import Network, NetworkConfig
        from repro.rdma.qp import QueuePair

        profiler = KernelProfiler()
        sim = Simulator(profiler=profiler)
        memory = MemoryNode(0)
        memory.create_table(0, 4, value_size=8)
        qp = QueuePair(sim, Network(NetworkConfig(), random.Random(0)), 0, memory)
        qp.post("read_header", (0, 0), 16)
        sim.run()
        assert profiler.sites["cb:WorkRequest._arrive"].subsystem == "rdma"
        assert profiler.sites["cb:WorkRequest._deliver"].subsystem == "rdma"
        assert not any(label.startswith("event:") for label in profiler.sites)

    def test_report_sections_render(self):
        profiler = KernelProfiler()
        sim = Simulator(profiler=profiler)

        def worker():
            yield sim.timeout(1.0)

        sim.process(worker(), name="worker-0")
        profiler.run_begin()
        sim.run()
        profiler.run_end()
        report = profiler.report(top=5)
        assert "kernel steps:" in report
        assert "wall-clock by subsystem" in report
        assert "hottest sites" in report

    def test_unprofiled_simulator_uses_null_singleton(self):
        sim = Simulator()
        assert sim.profiler is NULL_PROFILER
        assert sim.step.__func__ is not Simulator._profiled_step


class TestNullProfiler:
    def test_singleton_is_disabled_and_slotted(self):
        assert NULL_PROFILER.enabled is False
        assert isinstance(NULL_PROFILER, NullKernelProfiler)
        with pytest.raises(AttributeError):
            NULL_PROFILER.anything = 1

    def test_hooks_are_noops(self):
        NULL_PROFILER.run_begin()
        NULL_PROFILER.push("event", "x")
        NULL_PROFILER.push_site("a", "kernel")
        NULL_PROFILER.begin_step(object())
        NULL_PROFILER.end_step()
        NULL_PROFILER.pop()
        NULL_PROFILER.pop()  # unbalanced pops are fine: no stack exists
        NULL_PROFILER.set_phase("lock")
        NULL_PROFILER.run_end()
        assert NULL_PROFILER.collapsed() == []
        assert NULL_PROFILER.report() == "(profiling disabled)\n"
