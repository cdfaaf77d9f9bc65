"""Tests for the simulated RDMA fabric: network, QPs, verbs."""

import random
from collections import Counter
from itertools import combinations

import pytest

from repro.memory.node import MemoryNode
from repro.rdma.errors import LinkRevokedError, RemoteNodeDownError
from repro.rdma.network import Network, NetworkConfig
from repro.rdma.verbs import Verbs
from repro.sim import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    network = Network(NetworkConfig(jitter=0.0), random.Random(1))
    memory = MemoryNode(0)
    memory.create_table(0, 64, value_size=8)
    memory.load_slot(0, 3, value=111)
    verbs = Verbs(sim, compute_id=7, network=network, memory_nodes={0: memory})
    return sim, network, memory, verbs


class TestNetworkModel:
    def test_small_message_delay_near_base_latency(self):
        network = Network(NetworkConfig(jitter=0.0), random.Random(0))
        delay = network.delay(64)
        assert delay == pytest.approx(
            NetworkConfig().one_way_latency + 64 / NetworkConfig().bandwidth_bytes_per_sec
        )

    def test_bulk_transfer_charged_bandwidth(self):
        config = NetworkConfig(jitter=0.0)
        network = Network(config, random.Random(0))
        one_gib = 1 << 30
        delay = network.delay(one_gib)
        assert delay > one_gib / config.bandwidth_bytes_per_sec

    def test_scan_arithmetic_matches_paper_claim(self):
        """§3.1.1: scanning 100 GiB over 100 Gbps takes >= 8 s."""
        network = Network(NetworkConfig(jitter=0.0), random.Random(0))
        assert network.transfer_time(100 * (1 << 30)) >= 8.0

    def test_loss_adds_retransmit_latency(self):
        config = NetworkConfig(jitter=0.0, loss_probability=0.999)
        network = Network(config, random.Random(0))
        assert network.delay(64) > config.retransmit_timeout

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            NetworkConfig(one_way_latency=0).validate()
        with pytest.raises(ValueError):
            NetworkConfig(loss_probability=1.5).validate()


class TestRetransmission:
    """The RC retransmit model: lost packets retry geometrically.

    A retransmitted packet is just as likely to be lost as the
    original, so the retry count is geometric with mean p/(1-p) — the
    old model charged at most one ``retransmit_timeout`` per message,
    underestimating tail latency badly at high loss.
    """

    def _base(self, config: NetworkConfig, size: int = 64) -> float:
        return config.one_way_latency + size / config.bandwidth_bytes_per_sec

    def test_retries_are_geometric_not_single(self):
        config = NetworkConfig(jitter=0.0, loss_probability=0.75)
        network = Network(config, random.Random(3))
        base = self._base(config)
        retries = [
            round((network.delay(64) - base) / config.retransmit_timeout)
            for _ in range(500)
        ]
        # The pre-fix model capped this at 1 retransmission.
        assert max(retries) >= 3
        # Geometric mean p/(1-p) = 3; loose bounds for a seeded sample.
        mean = sum(retries) / len(retries)
        assert 2.0 < mean < 4.5

    def test_each_retry_rerolls_jitter(self):
        """Every retry is a fresh wire traversal: jitter accumulates
        beyond one roll's worth whenever a message retries twice."""
        config = NetworkConfig(jitter=0.2e-6, loss_probability=0.7)
        network = Network(config, random.Random(5))
        base = self._base(config)
        for _ in range(500):
            extra = network.delay(64) - base
            retries = int(extra // config.retransmit_timeout)
            jitter_total = extra - retries * config.retransmit_timeout
            if jitter_total > config.jitter:
                return  # more jitter than a single roll can produce
        pytest.fail("jitter never exceeded one roll across 500 draws")

    def test_zero_loss_pays_no_retransmit(self):
        config = NetworkConfig(jitter=0.0, loss_probability=0.0)
        network = Network(config, random.Random(0))
        assert network.delay(64) == pytest.approx(self._base(config))

    def test_same_seed_same_delays(self):
        config = NetworkConfig(loss_probability=0.4)
        first = Network(config, random.Random(9))
        second = Network(config, random.Random(9))
        assert [first.delay(64) for _ in range(50)] == [
            second.delay(64) for _ in range(50)
        ]


class TestVerbs:
    def test_read_object_roundtrip(self, rig):
        sim, _network, _memory, verbs = rig

        def proc():
            snapshot = yield verbs.read_object(0, 0, 3)
            return snapshot

        lock, version, present, value = sim.run_until_complete(sim.process(proc()))
        assert (lock, version, present, value) == (0, 1, True, 111)

    def test_read_costs_a_round_trip(self, rig):
        sim, network, _memory, verbs = rig

        def proc():
            yield verbs.read_header(0, 0, 3)
            return sim.now

        elapsed = sim.run_until_complete(sim.process(proc()))
        assert elapsed >= 2 * network.config.one_way_latency

    def test_cas_succeeds_and_returns_old(self, rig):
        sim, _network, memory, verbs = rig

        def proc():
            old = yield verbs.cas_lock(0, 0, 3, 0, 0xABC)
            return old

        assert sim.run_until_complete(sim.process(proc())) == 0
        assert memory.slot(0, 3).lock == 0xABC

    def test_cas_failure_leaves_word(self, rig):
        sim, _network, memory, verbs = rig
        memory.slot(0, 3).lock = 0x111

        def proc():
            old = yield verbs.cas_lock(0, 0, 3, 0, 0xABC)
            return old

        assert sim.run_until_complete(sim.process(proc())) == 0x111
        assert memory.slot(0, 3).lock == 0x111

    def test_concurrent_cas_only_one_wins(self, rig):
        """The atomicity that makes one-sided locking possible."""
        sim, _network, memory, verbs = rig

        def contender(word):
            old = yield verbs.cas_lock(0, 0, 3, 0, word)
            return old == 0

        winners = [sim.process(contender(0x100 + i)) for i in range(8)]
        sim.run()
        assert sum(1 for process in winners if process.value) == 1

    def test_qp_fifo_cas_then_read(self, rig):
        """RC in-order delivery: a read posted after a CAS observes it."""
        sim, _network, _memory, verbs = rig

        def proc():
            cas_event = verbs.cas_lock(0, 0, 3, 0, 0xBEEF)
            read_event = verbs.read_header(0, 0, 3)
            yield cas_event
            lock, _version, _present = yield read_event
            return lock

        assert sim.run_until_complete(sim.process(proc())) == 0xBEEF

    def test_write_object_updates_value_and_version(self, rig):
        sim, _network, memory, verbs = rig

        def proc():
            yield verbs.write_object(0, 0, 3, version=2, value=999, present=True)

        sim.run_until_complete(sim.process(proc()))
        slot = memory.slot(0, 3)
        assert (slot.version, slot.value) == (2, 999)

    def test_unsignaled_write_still_lands(self, rig):
        sim, _network, memory, verbs = rig

        def proc():
            event = verbs.write_object(
                0, 0, 3, version=5, value=1, present=True, signaled=False
            )
            yield event  # fires immediately, before the write lands
            return sim.now

        returned_at = sim.run_until_complete(sim.process(proc()))
        assert returned_at == 0.0
        assert memory.slot(0, 3).version != 5
        sim.run()
        assert memory.slot(0, 3).version == 5

    def test_batched_header_read(self, rig):
        sim, _network, memory, verbs = rig
        memory.load_slot(0, 4, value=5)

        def proc():
            headers = yield verbs.read_headers(0, [(0, 3), (0, 4)])
            return headers

        headers = sim.run_until_complete(sim.process(proc()))
        assert len(headers) == 2
        assert headers[0][1] == 1  # version of slot 3

    def test_missing_qp_raises(self, rig):
        _sim, _network, _memory, verbs = rig
        with pytest.raises(KeyError, match="compute 7 has no QP to memory node 99"):
            verbs.read_header(99, 0, 0)
        # Every verb looks its QP up the same way.
        with pytest.raises(KeyError, match="compute 7 has no QP to memory node 5"):
            verbs.write_log(5, None, 64)


class TestFailureSemantics:
    def test_revoked_link_fails_completions(self, rig):
        sim, _network, memory, verbs = rig
        memory._op_ctrl_revoke(0, (7,))

        def proc():
            try:
                yield verbs.read_header(0, 0, 3)
            except LinkRevokedError:
                return "revoked"
            return "ok"

        assert sim.run_until_complete(sim.process(proc())) == "revoked"

    def test_revocation_rpc_end_to_end(self, rig):
        sim, _network, memory, verbs = rig

        def proc():
            yield verbs.revoke_link(0, target_compute_id=7)
            try:
                yield verbs.read_header(0, 0, 3)
            except LinkRevokedError:
                return "fenced"
            return "ok"

        assert sim.run_until_complete(sim.process(proc())) == "fenced"
        assert memory.is_revoked(7)

    def test_dead_memory_node_fails_verbs(self, rig):
        sim, _network, memory, verbs = rig
        memory.crash()

        def proc():
            try:
                yield verbs.read_header(0, 0, 3)
            except RemoteNodeDownError:
                return "down"
            return "ok"

        assert sim.run_until_complete(sim.process(proc())) == "down"

    def test_posted_verbs_land_after_sender_dies(self, rig):
        """The stray-lock mechanism: a CAS posted by a process that is
        killed immediately afterwards still executes at memory."""
        sim, _network, memory, verbs = rig

        def proc():
            verbs.cas_lock(0, 0, 3, 0, 0xDEAD)
            yield sim.timeout(100)  # killed long before this

        process = sim.process(proc())
        sim.run(until=1e-9)
        process.kill()
        sim.run()
        assert memory.slot(0, 3).lock == 0xDEAD


class TestChainedWorkRequests:
    """Same-instant verbs share one kernel entry per leg (docs/KERNEL.md).

    The jitter-free rig makes equal-size verbs posted at one instant
    arrive at one instant, so each burst below is a chain; every check
    goes through ``post`` and the returned completion events only.
    """

    def _burst(self, verbs, count=3):
        outcomes = []
        for slot in range(count):
            verbs.read_header(0, 0, slot).add_callback(
                lambda event, slot=slot: outcomes.append((slot, type(event._exception)))
            )
        return outcomes

    def test_node_crash_before_arrival_fails_every_member_in_order(self, rig):
        sim, _network, memory, verbs = rig
        outcomes = self._burst(verbs)
        assert sim.queue_depth == 1
        memory.crash()
        sim.run()
        assert outcomes == [(slot, RemoteNodeDownError) for slot in range(3)]
        assert memory.verb_counts == {}
        # Refusals travel back like results: 3 request + 3 response legs.
        assert sim.processed_events == 6

    def test_link_revoked_before_arrival_fails_every_member_in_order(self, rig):
        sim, _network, memory, verbs = rig
        outcomes = self._burst(verbs)
        memory._op_ctrl_revoke(0, (7,))
        sim.run()
        assert outcomes == [(slot, LinkRevokedError) for slot in range(3)]
        assert memory.verb_counts == {}

    def test_a_revoke_inside_a_chain_fences_the_members_behind_it(self, rig):
        sim, _network, memory, verbs = rig
        qp = verbs.qps[0]
        revoke = qp.post("ctrl_revoke", (7,), 16)
        reads = [qp.post("read_header", (0, slot), 16) for slot in range(2)]
        assert sim.queue_depth == 1
        sim.run()
        assert revoke.ok
        assert [type(read._exception) for read in reads] == [LinkRevokedError] * 2
        assert memory.verb_counts == {"ctrl_revoke": 1}

    def test_verb_counts_sum_to_the_verbs_applied(self, rig):
        sim, _network, memory, verbs = rig
        self._burst(verbs, count=4)
        verbs.cas_lock(0, 0, 3, 0, 1)
        verbs.write_object(0, 0, 3, version=2, value=5, signaled=False)
        sim.run()
        assert memory.verb_counts == {"read_header": 4, "cas_lock": 1, "write_object": 1}
        assert sum(memory.verb_counts.values()) == 6

    def test_unsignaled_verbs_to_a_dead_node_are_dropped(self, rig):
        sim, _network, memory, verbs = rig
        events = [
            verbs.write_object(0, 0, 3, version=9, value=slot, signaled=False)
            for slot in range(3)
        ]
        # Nobody waits for them: fired at post time, value None.
        assert all(event.processed and event.value is None for event in events)
        memory.crash()
        sim.run()
        assert memory.verb_counts == {}
        assert memory.slot(0, 3).version == 1
        # Still fired, still no error; only the request leg ever ran.
        assert all(event.ok and event.value is None for event in events)
        assert sim.processed_events == 3

    # -- observed and unobserved QPs schedule identically -------------------

    # What _script posts: 3 rounds of 4 reads + 1 unsignaled write +
    # 1 CAS, 3 doomed reads and 1 read to the dead node. Every signaled
    # verb gets a response, refusals included.
    POSTED, SIGNALED = 22, 19

    @staticmethod
    def _script(profiler=None, obs=None, sanitize=False):
        """Pipelined bursts, an unsignaled write, a revocation mid-flight
        and a node crash, on a jittery fabric (so RNG draw order counts).

        *sanitize* is True for a real ``PillSanitizer``, or a stand-in's
        class."""
        from repro.analysis.sanitizer import PillSanitizer

        sim = Simulator(profiler=profiler)
        network = Network(NetworkConfig(), random.Random(5))
        network.profiler = sim.profiler
        memory = MemoryNode(0)
        memory.create_table(0, 64, value_size=8)
        sanitizer = None
        if sanitize is True:
            sanitizer = PillSanitizer({0: memory}, sim=sim, strict=False)
        elif sanitize:
            sanitizer = sanitize()
        if sanitizer is not None:
            memory.sanitizer = sanitizer
        verbs = Verbs(sim, 7, network, {0: memory}, obs=obs, sanitizer=sanitizer)
        completions = []

        def note(event):
            completions.append((sim.now, type(event._exception).__name__))

        def client():
            for round_ in range(3):
                burst = [verbs.read_header(0, 0, slot) for slot in range(4)]
                verbs.write_object(0, 0, 5, version=round_ + 2, value=round_, signaled=False)
                burst.append(verbs.cas_lock(0, 0, 6, 0, 0))
                for event in burst:
                    event.add_callback(note)
                yield sim.all_of(burst)
            doomed = [verbs.read_header(0, 0, slot) for slot in range(3)]
            memory._op_ctrl_revoke(0, (7,))
            for event in doomed:
                event.add_callback(note)
            try:
                yield sim.all_of(doomed)
            except LinkRevokedError:
                pass
            memory.crash()
            verbs.read_object(0, 0, 1).add_callback(note)

        sim.process(client(), name="client")
        sim.run()
        return completions, sim.processed_events

    def test_observed_qp_matches_unobserved(self):
        from repro.obs import KernelProfiler, Obs

        plain = self._script()
        assert [name for _when, name in plain[0]].count("LinkRevokedError") == 3
        assert plain[0][-1][1] == "RemoteNodeDownError"
        assert len(plain[0]) == self.SIGNALED
        # Who watches is decided per observer: every subset, not one flag.
        observers = ("sanitizer", "obs", "profiler")
        for size in (1, 2, 3):
            for present in combinations(observers, size):
                profiler = KernelProfiler() if "profiler" in present else None
                observed = self._script(
                    profiler=profiler,
                    obs=Obs(trace=True, flight=True) if "obs" in present else None,
                    sanitize="sanitizer" in present,
                )
                assert observed == plain, present
                if profiler is not None:
                    # Chains are compensated in the profiler's step counter too.
                    assert profiler.steps == plain[1]

    def test_a_qp_calls_the_observers_it_has_and_no_others(self, monkeypatch):
        from repro.analysis import NoopSanitizer
        from repro.obs import KernelProfiler, Obs
        from repro.obs.flight import FlightRecorder
        from repro.obs.profile import NullKernelProfiler

        calls = Counter()

        def counted(who, hook, inner=lambda *args: None):
            def method(self, *args):
                calls[who, hook] += 1
                return inner(self, *args)

            return method

        class Profiler(KernelProfiler):
            def push(self, category, detail=None):
                if category in ("rdma.post", "shim", "rdma.complete"):  # the QP's frames
                    calls["profiler", category] += 1
                super().push(category, detail)

        class Flight(FlightRecorder):
            on_post = counted("flight", "post", FlightRecorder.on_post)
            on_complete = counted("flight", "complete", FlightRecorder.on_complete)

        class Watcher(Obs):
            on_verb_post = counted("obs", "post", Obs.on_verb_post)
            on_verb_complete = counted("obs", "complete", Obs.on_verb_complete)

        class Sanitizer(NoopSanitizer):
            enabled = True
            on_post = counted("sanitizer", "post")

        def watcher():
            obs = Watcher(trace=False)
            obs.flight = Flight()
            return obs

        # An absent observer's no-op twin must not be called in its
        # place. Only the profiler's still has verb hooks to call: the
        # obs, flight and sanitizer twins have none, so a call would
        # fail the run outright.
        for hook in ("push", "pop"):
            monkeypatch.setattr(
                NullKernelProfiler, hook, counted("NullKernelProfiler", hook)
            )

        expected = {
            "sanitizer": {("sanitizer", "post"): self.POSTED},
            "obs": {
                ("obs", "post"): self.POSTED,
                ("obs", "complete"): self.SIGNALED,
                ("flight", "post"): self.POSTED,
                ("flight", "complete"): self.SIGNALED,
            },
            "profiler": {
                ("profiler", "rdma.post"): self.POSTED,
                ("profiler", "shim"): self.POSTED,
                ("profiler", "rdma.complete"): self.SIGNALED,
            },
        }
        for size in range(len(expected) + 1):
            for present in combinations(expected, size):
                calls.clear()
                self._script(
                    profiler=Profiler() if "profiler" in present else None,
                    obs=watcher() if "obs" in present else None,
                    sanitize="sanitizer" in present and Sanitizer,
                )
                wanted = {}
                for name in present:
                    wanted.update(expected[name])
                assert calls == wanted, present
