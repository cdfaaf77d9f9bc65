"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.obs.profile import KernelProfiler
from repro.sim import (
    Interrupt,
    ProcessKilled,
    Simulator,
)


@pytest.fixture
def sim():
    """The plain simulator; every class below that uses this fixture
    runs again on the profiled one (see "The profiled twin")."""
    return Simulator()


class TestTimeAdvancement:
    def test_initial_time_is_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        fired = []

        def proc():
            yield sim.timeout(1.5)
            fired.append(sim.now)

        sim.process(proc())
        sim.run()
        assert fired == [1.5]

    def test_run_until_stops_clock_exactly(self, sim):
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_in_past_raises(self, sim):
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=0.5)

    def test_events_fire_in_time_order(self, sim):
        order = []

        def proc(delay, tag):
            yield sim.timeout(delay)
            order.append(tag)

        sim.process(proc(3.0, "c"))
        sim.process(proc(1.0, "a"))
        sim.process(proc(2.0, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in range(5):
            sim.process(proc(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_timeout_raises(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        event = sim.event()
        seen = []

        def proc():
            value = yield event
            seen.append(value)

        sim.process(proc())
        sim.call_at(2.0, lambda: event.succeed("payload"))
        sim.run()
        assert seen == ["payload"]

    def test_fail_raises_in_process(self, sim):
        event = sim.event()
        caught = []

        def proc():
            try:
                yield event
            except ValueError as error:
                caught.append(str(error))

        sim.process(proc())
        sim.call_soon(lambda: event.fail(ValueError("boom")))
        sim.run()
        assert caught == ["boom"]

    def test_double_succeed_raises(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(RuntimeError):
            event.succeed(2)

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(RuntimeError):
            _ = event.value

    def test_late_callback_still_fires(self, sim):
        event = sim.event()
        event.succeed(7)
        sim.run()
        assert event.processed
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]

    def test_processed_events_share_nothing_mutable(self, sim):
        # A processed event holds no callback list of its own. kill()
        # and interrupt() strip the target's callbacks whatever state
        # it is in; that must not reach another processed event.
        first, second = sim.event(), sim.event()
        first.succeed(1)
        second.succeed(2)
        sim.run()

        def parked():
            yield first

        for stop in ("kill", "interrupt"):
            process = sim.process(parked())
            sim.step()  # now waiting on the already-processed event
            getattr(process, stop)()
            sim.run()
            assert not process.is_alive
        seen = []
        second.add_callback(lambda event: seen.append(event.value))
        first.add_callback(lambda event: seen.append(event.value))
        sim.run()
        assert seen == [2, 1]


class TestProcesses:
    def test_process_return_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return 42

        process = sim.process(proc())
        result = sim.run_until_complete(process)
        assert result == 42

    def test_process_exception_propagates_to_joiner(self, sim):
        def failing():
            yield sim.timeout(1.0)
            raise RuntimeError("inner")

        caught = []

        def joiner():
            try:
                yield sim.process(failing())
            except RuntimeError as error:
                caught.append(str(error))

        sim.process(joiner())
        sim.run()
        assert caught == ["inner"]

    def test_yield_from_subgenerator(self, sim):
        def sub():
            yield sim.timeout(1.0)
            return "sub-value"

        def main():
            value = yield from sub()
            return value

        process = sim.process(main())
        assert sim.run_until_complete(process) == "sub-value"

    def test_kill_stops_process(self, sim):
        progress = []

        def proc():
            progress.append("start")
            yield sim.timeout(5.0)
            progress.append("end")

        process = sim.process(proc())
        sim.run(until=1.0)
        process.kill()
        sim.run()
        assert progress == ["start"]
        assert not process.is_alive
        with pytest.raises(ProcessKilled):
            _ = process.value

    def test_kill_is_idempotent(self, sim):
        def proc():
            yield sim.timeout(5.0)

        process = sim.process(proc())
        sim.run(until=1.0)
        process.kill()
        process.kill()
        sim.run()
        assert not process.is_alive

    def test_interrupt_raises_in_process(self, sim):
        caught = []

        def proc():
            try:
                yield sim.timeout(10.0)
            except Interrupt as interrupt:
                caught.append(interrupt.cause)

        process = sim.process(proc())
        sim.run(until=1.0)
        process.interrupt("because")
        sim.run()
        assert caught == ["because"]

    def test_interrupted_process_can_continue(self, sim):
        trace = []

        def proc():
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                trace.append(("interrupted", sim.now))
            yield sim.timeout(2.0)
            trace.append(("done", sim.now))

        process = sim.process(proc())
        sim.run(until=1.0)
        process.interrupt()
        sim.run()
        assert trace == [("interrupted", 1.0), ("done", 3.0)]

    def test_yielding_non_event_raises(self, sim):
        def proc():
            yield 42

        process = sim.process(proc())
        sim.run()
        with pytest.raises(TypeError):
            _ = process.value

    def test_deadlock_detection(self, sim):
        def proc():
            yield sim.event()  # never fires

        process = sim.process(proc())
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run_until_complete(process)

    def test_kill_from_inside_the_generator(self, sim):
        """A process that kills itself (a node crashing its own worker)
        runs to its next yield and never resumes past it."""
        progress = []
        own = []

        def proc():
            progress.append("start")
            own[0].kill()
            progress.append("after kill")
            yield sim.timeout(1.0)
            progress.append("resumed")

        own.append(sim.process(proc()))
        sim.run()
        assert progress == ["start", "after kill"]
        assert not own[0].is_alive
        with pytest.raises(ProcessKilled):
            own[0].value

    def test_yielding_a_processed_event_resumes_next_step(self, sim):
        event = sim.event()
        event.succeed("early")
        sim.run()
        got = []

        def proc():
            got.append((yield event))

        sim.process(proc())
        sim.run()
        assert got == ["early"]

    def test_interrupt_before_the_first_step(self, sim):
        """The first step still runs first; the interrupt lands at the
        generator's first yield."""
        trace = []

        def proc():
            trace.append("started")
            try:
                yield sim.timeout(5.0)
            except Interrupt as interrupt:
                trace.append(("interrupt", interrupt.cause, sim.now))

        process = sim.process(proc())
        process.interrupt("early")
        sim.run()
        assert trace == ["started", ("interrupt", "early", 0.0)]

    def test_two_interrupts_land_one_yield_after_the_other(self, sim):
        trace = []

        def proc():
            for _ in range(3):
                try:
                    yield sim.timeout(5.0)
                    trace.append(("woke", sim.now))
                except Interrupt as interrupt:
                    trace.append(interrupt.cause)

        process = sim.process(proc())
        sim.run(until=1.0)
        process.interrupt("first")
        process.interrupt("second")
        sim.run()
        assert trace == ["first", "second", ("woke", 6.0)]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        times = []

        def proc():
            events = [sim.timeout(1.0, "a"), sim.timeout(3.0, "b"), sim.timeout(2.0, "c")]
            values = yield sim.all_of(events)
            times.append((sim.now, values))

        sim.process(proc())
        sim.run()
        assert times == [(3.0, ["a", "b", "c"])]

    def test_all_of_empty_fires_immediately(self, sim):
        done = []

        def proc():
            values = yield sim.all_of([])
            done.append(values)

        sim.process(proc())
        sim.run()
        assert done == [[]]

    def test_any_of_fires_on_first(self, sim):
        results = []

        def proc():
            events = [sim.timeout(5.0, "slow"), sim.timeout(1.0, "fast")]
            index, value = yield sim.any_of(events)
            results.append((sim.now, index, value))

        sim.process(proc())
        sim.run()
        assert results == [(1.0, 1, "fast")]

    def test_any_of_duplicate_event_reports_first_index(self, sim):
        results = []

        def proc():
            shared = sim.timeout(1.0, "v")
            index, value = yield sim.any_of([shared, shared, shared])
            results.append((index, value))

        sim.process(proc())
        sim.run()
        assert results == [(0, "v")]

    def test_any_of_duplicate_behind_distinct_event(self, sim):
        results = []

        def proc():
            slow = sim.timeout(5.0, "slow")
            fast = sim.timeout(1.0, "fast")
            index, value = yield sim.any_of([slow, fast, fast])
            results.append((index, value))

        sim.process(proc())
        sim.run()
        # The duplicate's first occurrence (slot 1) wins, never slot 2.
        assert results == [(1, "fast")]

    def test_any_of_empty_fires_immediately(self, sim):
        done = []

        def proc():
            value = yield sim.any_of([])
            done.append(value)

        sim.process(proc())
        sim.run()
        assert done == [[]]

    def test_any_of_index_lookup_is_precomputed(self, sim):
        events = [sim.event() for _ in range(4)]
        condition = sim.any_of(events)
        assert condition._index_of == {id(event): i for i, event in enumerate(events)}

    def test_any_of_propagates_failure(self, sim):
        event = sim.event()
        caught = []

        def proc():
            try:
                yield sim.any_of([sim.timeout(5.0), event])
            except KeyError as error:
                caught.append((error.args[0], sim.now))

        sim.process(proc())
        sim.call_at(1.0, lambda: event.fail(KeyError("bad")))
        sim.run()
        assert caught == [("bad", 1.0)]

    def test_conditions_over_processed_children(self, sim):
        done = sim.event()
        done.succeed("ready")
        sim.run()
        got = []

        def proc():
            got.append((yield sim.all_of([done, sim.timeout(1.0, "later")])))
            got.append((yield sim.any_of([done])))

        sim.process(proc())
        sim.run()
        assert got == [["ready", "later"], (0, "ready")]

    def test_all_of_propagates_failure(self, sim):
        event = sim.event()
        caught = []

        def proc():
            try:
                yield sim.all_of([sim.timeout(5.0), event])
            except KeyError as error:
                caught.append(error.args[0])

        sim.process(proc())
        sim.call_at(1.0, lambda: event.fail(KeyError("bad")))
        sim.run()
        assert caught == ["bad"]


class TestCallScheduling:
    def test_call_soon_runs_at_current_time(self, sim):
        times = []
        sim.call_soon(lambda: times.append(sim.now))
        sim.run()
        assert times == [0.0]

    def test_call_at_runs_at_absolute_time(self, sim):
        times = []
        sim.call_at(4.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.5]

    def test_call_at_past_raises(self, sim):
        sim.timeout(2.0)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(1.0, lambda: None)

    def test_kill_is_idempotent(self, sim):
        def proc():
            yield sim.timeout(10.0)

        process = sim.process(proc())
        sim.run(until=1.0)
        process.kill()
        process.kill()  # second kill: no ValueError, no state change
        sim.run()
        assert not process.is_alive
        with pytest.raises(ProcessKilled):
            process.value

    def test_kill_after_completion_preserves_result(self, sim):
        """Killing a process whose event is already processed is a
        no-op: the return value must not be clobbered by ProcessKilled."""

        def proc():
            yield sim.timeout(1.0)
            return "done"

        process = sim.process(proc())
        sim.run()
        process.kill()
        process.interrupt()
        assert process.value == "done"

    def test_interrupt_after_completion_schedules_nothing(self, sim):
        def proc():
            yield sim.timeout(1.0)

        process = sim.process(proc())
        sim.run()
        before = sim.processed_events
        process.interrupt("late")
        sim.run()
        assert sim.processed_events == before

    def test_snapshotted_wakeup_after_interrupt_is_stale(self, sim):
        """An event triggering in the same tick as an interrupt must not
        double-drive the generator. The event's callback loop snapshots
        the callback list, so ``interrupt()``'s callback strip cannot reach
        a wake-up already in flight — ``_on_target`` has to recognise
        it as stale instead.
        """
        event = sim.event()
        got = []

        def proc():
            try:
                yield event
                got.append("value")
            except Interrupt as interrupt:
                got.append(("interrupt", interrupt.cause))

        # Subscribe the interrupter *before* the process, so the
        # snapshot runs it first and the process wake-up is orphaned.
        process_ref = []
        event.add_callback(lambda _e: process_ref[0].interrupt("now"))
        process_ref.append(sim.process(proc()))
        sim.call_at(1.0, lambda: event.succeed("v"))
        sim.run()
        assert got == [("interrupt", "now")]

    def test_stale_wakeup_from_processed_event_after_interrupt(self, sim):
        """Late-subscription path: yielding an already-processed event
        parks the wake-up in the kernel queue, out of reach of
        ``interrupt()``'s strip. The parked wake-up must not deliver
        the event value to a generator that has been interrupted."""
        event = sim.event()
        event.succeed("old")
        sim.run()
        got = []

        def proc():
            try:
                yield event
                got.append("value")
            except Interrupt:
                got.append("interrupt")

        process = sim.process(proc())
        sim.call_soon(lambda: process.interrupt())
        sim.run()
        assert got == ["interrupt"]

    def test_determinism_across_runs(self):
        def build_and_run():
            sim = Simulator()
            trace = []

            def worker(tag, delay):
                for _ in range(3):
                    yield sim.timeout(delay)
                    trace.append((sim.now, tag))

            for tag in range(4):
                sim.process(worker(tag, 0.5 + tag * 0.25))
            sim.run()
            return trace

        assert build_and_run() == build_and_run()


class TestNowRingScheduler:
    """PR 9 ring-kernel specifics: the now-ring / timer-heap split.

    Invariants under test: the timer heap only ever holds strictly
    future entries, same-instant work drains in schedule order before
    time advances, queue_depth spans both queues, and ``run(until=...)``
    must peek across *both* queues — including when ``until`` lands
    exactly on a chained QP completion's timestamp.
    """

    def test_timer_heap_holds_only_future_entries(self, sim):
        sim.call_at(1.0, lambda: None)
        sim.call_soon(lambda: None)
        assert all(when > sim.now for when, _, _ in sim._timers)
        assert len(sim._ring) == 1

    def test_call_soon_during_cohort_runs_before_time_advances(self, sim):
        order = []

        def first():
            order.append(("first", sim.now))
            # Lands in the now-ring: must run at t=1.0, before the
            # t=2.0 timer, even though it was scheduled last.
            sim.call_soon(lambda: order.append(("soon", sim.now)))

        sim.call_at(1.0, first)
        sim.call_at(2.0, lambda: order.append(("later", sim.now)))
        sim.run()
        assert order == [("first", 1.0), ("soon", 1.0), ("later", 2.0)]

    def test_same_instant_timers_drain_in_schedule_order(self, sim):
        order = []
        for tag in range(5):
            sim.call_at(1.0, lambda tag=tag: order.append(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_queue_depth_spans_ring_and_timers(self, sim):
        sim.call_soon(lambda: None)
        sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        assert sim.queue_depth == 3

    def test_processed_events_is_right_at_every_run_boundary(self, sim):
        # run() counts into a local; every way out of it — queues
        # drained, `until` reached, an entry raising — must fold it in.
        def boom():
            raise RuntimeError("boom")

        sim.call_soon(lambda: None)
        sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, boom)
        sim.call_at(2.0, lambda: None)
        sim.run(until=1.0)
        assert sim.processed_events == 2
        with pytest.raises(RuntimeError):
            sim.run()
        # Like step(): the entry that raised is not counted ...
        assert (sim.processed_events, sim.now) == (2, 2.0)
        sim.run()
        # ... and the rest of its cohort is still there to run.
        assert (sim.processed_events, sim.queue_depth) == (3, 0)

    # -- chained QP deliveries, through QueuePair.post only ----------------

    @staticmethod
    def _queue_pair(sim):
        """A QP on a jitter-free fabric: equal-size verbs posted at one
        instant share their arrival instant on both legs."""
        import random

        from repro.memory.node import MemoryNode
        from repro.rdma.network import Network, NetworkConfig
        from repro.rdma.qp import QueuePair

        memory = MemoryNode(0)
        memory.create_table(0, 8, value_size=8)
        network = Network(NetworkConfig(jitter=0.0), random.Random(0))
        return QueuePair(sim, network, 0, memory), memory, network

    def test_pipelined_verbs_are_one_entry_fifo_and_counted_each(self, sim):
        qp, _memory, _network = self._queue_pair(sim)
        done = []
        for slot in range(4):
            qp.post("read_header", (0, slot), 16).add_callback(
                lambda event, slot=slot: done.append((slot, sim.now))
            )
        # One kernel entry holds all four requests ...
        assert sim.queue_depth == 1
        sim.step()
        # ... and, executed back to back, all four responses.
        assert sim.queue_depth == 1
        assert done == []
        sim.run()
        assert [slot for slot, _when in done] == [0, 1, 2, 3]
        assert len({when for _slot, when in done}) == 1
        # Four request deliveries + four response deliveries.
        assert sim.processed_events == 8

    def test_chain_splits_when_another_push_intervenes(self, sim):
        # An unrelated timer push between two same-instant posts could
        # order between them, so the second must open a fresh chain.
        from repro.rdma.qp import VERB_HEADER_BYTES

        qp, memory, network = self._queue_pair(sim)
        arrival = network.delay(16 + VERB_HEADER_BYTES)
        seen = []
        qp.post("write_lock", (0, 0, 1), 16)
        sim.call_at(arrival, lambda: seen.append(memory.slot(0, 0).lock))
        qp.post("write_lock", (0, 0, 2), 16)
        assert sim.queue_depth == 3
        sim.run(until=arrival)
        # Dispatched between the two writes, in (when, seq) order.
        assert seen == [1]
        assert memory.slot(0, 0).lock == 2

    def test_run_until_lands_on_chained_completion(self, sim):
        # run(until=T) with a chain of completions due exactly at T must
        # deliver every member, stop the clock at T, and count each
        # member in processed_events (the chain head compensates).
        def drive(sim, until):
            qp, _memory, _network = self._queue_pair(sim)
            done = []
            for slot in range(3):
                qp.post("read_header", (0, slot), 16).add_callback(
                    lambda _event: done.append(sim.now)
                )
            sim.run(until=until)
            return done

        completed_at = drive(Simulator(), None)[0]
        done = drive(sim, completed_at)
        assert done == [completed_at] * 3
        assert sim.now == completed_at
        assert sim.processed_events == 6
        assert sim.queue_depth == 0

    def test_four_worker_drive_matches_recorded_trace(self):
        sim = Simulator()
        trace = []

        def worker(tag, delay):
            for _ in range(4):
                yield sim.timeout(delay)
                trace.append((sim.now, tag))

        for tag in range(4):
            sim.process(worker(tag, 0.5 + tag * 0.25))
        sim.run()
        # Same-instant resumptions dispatch in scheduling (seq) order.
        assert trace == [
            (0.5, 0), (0.75, 1), (1.0, 2), (1.0, 0), (1.25, 3), (1.5, 1),
            (1.5, 0), (2.0, 2), (2.0, 0), (2.25, 1), (2.5, 3), (3.0, 2),
            (3.0, 1), (3.75, 3), (4.0, 2), (5.0, 3),
        ]
        assert sim.processed_events == 24


# -- the profiled twin -----------------------------------------------------------
#
# With an enabled profiler the simulator runs profiled twins of its step,
# of every process resume and of every AllOf/AnyOf fan-in. Each twin wraps
# the plain body in a profiler frame; every semantics test above runs
# again on one to hold it to the same contract.


class _Profiled:
    @pytest.fixture
    def sim(self):
        return Simulator(profiler=KernelProfiler())


class TestTimeAdvancementProfiled(_Profiled, TestTimeAdvancement):
    pass


class TestEventsProfiled(_Profiled, TestEvents):
    pass


class TestProcessesProfiled(_Profiled, TestProcesses):
    pass


class TestConditionsProfiled(_Profiled, TestConditions):
    pass


class TestCallSchedulingProfiled(_Profiled, TestCallScheduling):
    pass


class TestNowRingSchedulerProfiled(_Profiled, TestNowRingScheduler):
    pass


def test_the_profiled_twins_open_one_frame_per_resume_and_fanin():
    profiler = KernelProfiler()
    sim = Simulator(profiler=profiler)

    def proc():
        for _ in range(3):
            yield sim.timeout(1.0)
        yield sim.all_of([sim.timeout(1.0), sim.timeout(2.0)])

    sim.process(proc(), name="worker-7")
    sim.run()
    # The first step, three timeouts and the AllOf: five resumes.
    assert profiler.sites["resume:worker-*"].count == 5
    assert profiler.sites["fanin:AllOf"].count == 2
    assert profiler.steps == sim.processed_events
    assert profiler._stack == []
