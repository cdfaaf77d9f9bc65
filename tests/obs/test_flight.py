"""Flight recorder: attribution correctness and zero perturbation.

Unit tests drive :class:`FlightRecorder` directly (ambient-focus guard,
first-close-wins sealing, completion tokens); integration tests check
that a seeded run's flight records reconcile exactly with the harness
outcome and that enabling the recorder never changes a seeded run.
"""

import pytest

from repro.bench.harness import run_steady_state
from repro.obs import Obs
from repro.obs.flight import UNSIGNALED, FlightRecorder, NullFlightRecorder
from repro.workloads import SmallBank


def _smallbank():
    return SmallBank(accounts=1_000)


STEADY = dict(duration=6e-3, warmup=2e-3, coordinators_per_node=4, seed=11)


class TestRecorderUnit:
    def test_begin_focus_post_attributes_to_current_attempt(self):
        recorder = FlightRecorder()
        record = recorder.begin("pandora", 2, 7, 42, 1, 0.001)
        recorder.focus(record, "lock")
        token = recorder.on_post("cas_lock", 2, 5, 0.002)
        assert token is not None
        assert record.verbs == [["cas_lock", 5, "lock", 0.002, UNSIGNALED, True]]
        recorder.on_complete(token, 3e-6, True)
        assert record.verbs[0][4] == 3e-6
        assert not recorder.unattributed

    def test_post_from_other_compute_node_is_unattributed(self):
        recorder = FlightRecorder()
        record = recorder.begin("pandora", 2, 7, 42, 1, 0.001)
        recorder.focus(record, "lock")
        assert recorder.on_post("read_object", 3, 5, 0.002) is None
        assert recorder.unattributed == {"read_object": 1}
        assert record.verbs == []

    def test_post_after_close_is_unattributed(self):
        recorder = FlightRecorder()
        record = recorder.begin("pandora", 2, 7, 42, 1, 0.001)
        recorder.close(record, "commit", 0.002, writes=1)
        assert recorder.on_post("write_log", 2, 5, 0.003) is None
        assert recorder.unattributed == {"write_log": 1}

    def test_first_close_wins(self):
        recorder = FlightRecorder()
        record = recorder.begin("pandora", 2, 7, 42, 1, 0.001)
        recorder.close(record, "commit:interrupted", 0.002, writes=3)
        recorder.close(record, "interrupted", 0.005, writes=0)
        assert record.outcome == "commit:interrupted"
        assert record.end == 0.002
        assert record.writes == 3

    def test_focus_on_closed_record_does_not_steal_attribution(self):
        recorder = FlightRecorder()
        dead = recorder.begin("pandora", 2, 7, 42, 1, 0.001)
        recorder.close(dead, "abort:lock_conflict", 0.002)
        live = recorder.begin("pandora", 2, 8, 43, 1, 0.003)
        recorder.focus(dead, "commit")  # stale focus from a killed attempt
        token = recorder.on_post("write_object", 2, 5, 0.004)
        assert token is not None
        assert live.verbs and not dead.verbs

    def test_lock_events_recorded_in_order(self):
        recorder = FlightRecorder()
        record = recorder.begin("pandora", 2, 7, 42, 1, 0.001)
        recorder.on_lock(record, "conflict", 3, 17, 0.002)
        recorder.on_lock(record, "steal", 3, 17, 0.003)
        assert record.locks == [("conflict", 3, 17, 0.002), ("steal", 3, 17, 0.003)]

    def test_null_recorder_is_inert(self):
        null = NullFlightRecorder()
        assert null.begin("pandora", 2, 7, 42, 1, 0.0) is None
        assert len(null) == 0 and null.closed() == [] and null.committed() == []


class TestFlightParity:
    def test_flight_enabled_run_is_bit_identical(self):
        base = run_steady_state(_smallbank, "pandora", **STEADY)
        flown = run_steady_state(
            _smallbank, "pandora", obs=Obs(trace=False, flight=True), **STEADY
        )
        # Dataclass equality covers commits, aborts, throughput, and
        # latency percentiles — the full observable outcome.
        assert flown == base

    def test_flight_disabled_obs_records_nothing(self):
        obs = Obs(trace=False)
        run_steady_state(_smallbank, "pandora", obs=obs, **STEADY)
        assert len(obs.flight) == 0
        assert not obs.flight.attempts


class TestFlightContent:
    @pytest.fixture(scope="class")
    def flown_steady(self):
        obs = Obs(trace=True, flight=True)
        result = run_steady_state(_smallbank, "pandora", obs=obs, **STEADY)
        return obs, result

    def test_committed_records_match_harness_commits(self, flown_steady):
        obs, result = flown_steady
        assert len(obs.flight.committed()) == result.commits

    def test_committed_phases_cover_the_protocol_pipeline(self, flown_steady):
        obs, _result = flown_steady
        record = obs.flight.committed()[0]
        names = [name for name, _start, _end in record.phases]
        assert names == ["execute", "lock", "validate", "log", "commit", "unlock"]
        for _name, start, end in record.phases:
            assert record.start <= start <= end <= record.end

    def test_pandora_logs_f_plus_one_per_committed_write_txn(self, flown_steady):
        obs, _result = flown_steady
        # default_config pins replication_degree=2 => f+1 == 2 log servers.
        log_servers = obs.run_meta["log_servers"]
        for record in obs.flight.committed():
            expected = log_servers if record.writes else 0
            assert record.log_writes() == expected, (record.txn_id, record.attempt)

    def test_signaled_verbs_carry_completion_latency(self, flown_steady):
        obs, _result = flown_steady
        record = obs.flight.committed()[0]
        signaled = [entry for entry in record.verbs if entry[4] != UNSIGNALED]
        assert signaled, "no signaled verbs recorded"
        for _kind, _node, _phase, _ts, latency, ok in (
            entry[:6] for entry in signaled
        ):
            assert latency > 0 and ok

    def test_unattributed_is_only_system_traffic(self, flown_steady):
        obs, _result = flown_steady
        # Coordinator log-region registration is control-plane traffic
        # posted before any attempt opens; nothing else may leak.
        assert set(obs.flight.unattributed) <= {"ctrl_register_log_region"}


class TestBoundedMemory:
    def test_max_flights_evicts_oldest_closed_attempts(self):
        recorder = FlightRecorder(max_flights=10)
        for txn in range(100):
            record = recorder.begin("pandora", 0, 1, txn, 1, txn * 1e-6)
            recorder.close(record, "commit", txn * 1e-6 + 5e-7)
        assert len(recorder.attempts) == 10
        assert recorder.evicted == 90
        # The survivors are the newest records, in order.
        assert [record.txn_id for record in recorder.attempts] == list(range(90, 100))

    def test_open_attempts_are_never_evicted(self):
        recorder = FlightRecorder(max_flights=5)
        kept_open = [
            recorder.begin("pandora", 0, 1, txn, 1, txn * 1e-6) for txn in range(20)
        ]
        # Nothing is closed, so nothing may be dropped — a crash report
        # must still see what was killed mid-air.
        assert len(recorder.attempts) == 20
        assert recorder.evicted == 0
        for record in kept_open:
            recorder.close(record, "abort:crash", 1e-3)
        recorder.begin("pandora", 0, 1, 99, 1, 2e-3)
        assert len(recorder.attempts) == 5

    def test_max_flights_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(max_flights=0)
        assert NullFlightRecorder().max_flights is None

    def test_bounded_recorder_survives_a_10x_run(self):
        # The regression this bound exists for: a long traffic run must
        # not accumulate one resident record per attempt. Same seeded
        # workload, 10x the duration, yet residency stays at the cap
        # and the run outcome is untouched by eviction.
        long_steady = dict(STEADY, duration=10 * STEADY["duration"])
        base = run_steady_state(_smallbank, "pandora", **long_steady)
        obs = Obs(trace=False, flight=True, max_flights=64)
        bounded = run_steady_state(_smallbank, "pandora", obs=obs, **long_steady)
        assert bounded == base
        assert len(obs.flight.attempts) <= 64
        assert obs.flight.evicted > 1_000
        assert obs.flight.evicted + len(obs.flight.attempts) >= base.commits
