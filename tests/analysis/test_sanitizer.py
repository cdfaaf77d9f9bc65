"""PillSanitizer: raw-verb strict checks plus end-to-end clean runs."""

import hashlib

import pytest

from repro.analysis.sanitizer import (
    LOCK_OVERWRITE,
    PillSanitizer,
    SanitizerViolation,
    STEAL_LIVE_OWNER,
    UNLOCK_BY_NON_OWNER,
    WRITE_WITHOUT_LOCK,
)
from repro.memory.node import LogRecord, MemoryNode
from repro.protocol.locks import encode_lock


def make_node(node_id=0, slots=8):
    node = MemoryNode(node_id)
    node.create_table(0, slots, 8)
    for slot in range(slots):
        node.load_slot(0, slot, 0)
    return node


def make_strict(node, failed_ids=frozenset()):
    sanitizer = PillSanitizer({node.node_id: node}, failed_ids=failed_ids, strict=True)
    node.sanitizer = sanitizer
    return sanitizer


class TestStrictRawVerbs:
    def test_write_without_lock_raises(self):
        node = make_node()
        make_strict(node)
        with pytest.raises(SanitizerViolation) as excinfo:
            node.apply(1, "write_object", (0, 3, 2, 99, True))
        assert excinfo.value.code == WRITE_WITHOUT_LOCK

    def test_locked_write_by_owner_passes(self):
        node = make_node()
        word = encode_lock(1)
        make_strict(node)
        node.apply(1, "cas_lock", (0, 3, 0, word))
        # Non-advancing write (same version): needs the lock but no
        # logged undo record, so only the lock discipline is in play.
        node.apply(1, "write_object", (0, 3, 1, 99, True))
        node.apply(1, "write_lock", (0, 3, 0))

    def test_steal_from_live_owner_raises(self):
        node = make_node()
        make_strict(node)
        node.apply(5, "cas_lock", (0, 3, 0, encode_lock(5)))
        with pytest.raises(SanitizerViolation) as excinfo:
            node.apply(1, "cas_lock", (0, 3, encode_lock(5), encode_lock(1)))
        assert excinfo.value.code == STEAL_LIVE_OWNER

    def test_steal_from_failed_owner_allowed(self):
        node = make_node()
        make_strict(node, failed_ids=frozenset({5}))
        node.apply(5, "cas_lock", (0, 3, 0, encode_lock(5)))
        node.apply(1, "cas_lock", (0, 3, encode_lock(5), encode_lock(1)))

    def test_unlock_by_non_owner_raises(self):
        node = make_node()
        make_strict(node)
        node.apply(5, "cas_lock", (0, 3, 0, encode_lock(5)))
        with pytest.raises(SanitizerViolation) as excinfo:
            node.apply(1, "write_lock", (0, 3, 0))
        assert excinfo.value.code == UNLOCK_BY_NON_OWNER

    def test_lock_overwrite_raises(self):
        node = make_node()
        make_strict(node)
        node.apply(5, "cas_lock", (0, 3, 0, encode_lock(5)))
        with pytest.raises(SanitizerViolation) as excinfo:
            node.apply(1, "write_lock", (0, 3, encode_lock(1)))
        assert excinfo.value.code == LOCK_OVERWRITE

    def test_violation_carries_timeline(self):
        node = make_node()
        make_strict(node)
        with pytest.raises(SanitizerViolation) as excinfo:
            node.apply(1, "write_object", (0, 3, 2, 99, True))
        text = str(excinfo.value)
        assert WRITE_WITHOUT_LOCK in text
        assert "write_object" in text

    def test_collect_mode_records_without_raising(self):
        node = make_node()
        sanitizer = PillSanitizer({0: node}, strict=False)
        node.sanitizer = sanitizer
        node.apply(1, "write_object", (0, 3, 2, 99, True))
        assert [v.code for v in sanitizer.violations] == [WRITE_WITHOUT_LOCK]


class _CountedRepr:
    """A stored value that counts how often it is formatted."""

    def __init__(self):
        self.calls = 0

    def __repr__(self):
        self.calls += 1
        return "<counted>"


def _drive(sanitizer, node, src, kind, args):
    """One verb through both sanitizer layers: QP post, then execution."""
    sanitizer.on_post(src, node.node_id, kind, args, 0.0)
    return node.apply(src, kind, args)


class TestTimelineIsRenderedAtViolationTime:
    def test_clean_sequence_formats_nothing(self):
        node = make_node()
        sanitizer = make_strict(node)
        value = _CountedRepr()
        undo = (0, 3, 3, 1, 2, 0, value, True, True)
        record = LogRecord(coord_id=1, txn_id=7, entries=(undo,))
        _drive(sanitizer, node, 1, "cas_lock", (0, 3, 0, encode_lock(1)))
        _drive(sanitizer, node, 1, "write_log", (record,))
        _drive(sanitizer, node, 1, "write_object", (0, 3, 2, value, True))
        _drive(sanitizer, node, 1, "write_lock", (0, 3, 0))
        assert sanitizer.violations == []
        assert value.calls == 0
        with pytest.raises(SanitizerViolation) as excinfo:
            node.apply(1, "write_object", (0, 3, 3, value, True))
        assert value.calls > 0
        assert "write_object (0, 3, 2, <counted>, True)" in str(excinfo.value)

    def test_write_log_renders_as_it_was_when_traced(self):
        node = make_node()
        sanitizer = make_strict(node)
        record = LogRecord(coord_id=1, txn_id=7, entries=())
        _drive(sanitizer, node, 1, "write_log", (record,))
        node.apply(1, "invalidate_log", (1, record.record_id))
        assert (record.valid, record.record_id) == (False, 0)
        assert record.charged_bytes > 0
        sanitizer.before_verb(node, 1, "write_log", (record,))
        with pytest.raises(SanitizerViolation) as excinfo:
            node.apply(1, "write_object", (0, 3, 2, 99, True))
        logged = [line for line in excinfo.value.timeline if " write_log " in line]
        fresh = "entries=(), valid=True, record_id=-1, charged_bytes=0),)"
        assert [line.split()[1] for line in logged] == ["post", "exec", "exec"]
        assert logged[0].endswith(fresh) and logged[1].endswith(fresh)
        assert logged[2].endswith(
            f"entries=(), valid=False, record_id=0, charged_bytes={record.charged_bytes}),)"
        )

    def test_timeline_is_oldest_first_and_capped(self):
        node = make_node()
        sanitizer = PillSanitizer({0: node}, strict=True, timeline_depth=4)
        node.sanitizer = sanitizer
        for slot in range(6):
            node.apply(1, "read_header", (0, slot))
        with pytest.raises(SanitizerViolation) as excinfo:
            node.apply(1, "write_object", (0, 3, 2, 99, True))
        assert [line.split(None, 3)[3] for line in excinfo.value.timeline] == [
            "read_header (0, 3)",
            "read_header (0, 4)",
            "read_header (0, 5)",
            "write_object (0, 3, 2, 99, True)",
        ]

    def test_collected_violation_keeps_its_timeline_after_the_ring_rotates(self):
        node = make_node()
        sanitizer = PillSanitizer({0: node}, strict=False, timeline_depth=4)
        node.sanitizer = sanitizer
        node.apply(1, "write_object", (0, 3, 2, 99, True))
        (violation,) = sanitizer.violations
        timeline, text = list(violation.timeline), str(violation)
        assert timeline and all(isinstance(line, str) for line in timeline)
        for slot in range(8):
            node.apply(1, "read_header", (0, slot))
        assert violation.timeline == timeline
        assert str(violation) == text


class TestViolationTextParity:
    """Every violation string, timelines included, is the one the
    render-at-trace-time sanitizer of commit 4c31ca9 produced (digests
    taken from a clone of that commit, see CHANGES.md PR 20)."""

    @staticmethod
    def _digest(violations):
        text = "\n".join(str(violation) for violation in violations)
        return len(violations), hashlib.sha256(text.encode()).hexdigest()

    def test_mutant_harness_violations(self):
        from repro.analysis.mutants import MUTANTS

        violations = []
        for spec in MUTANTS:
            violations.extend(spec.scenario(spec.protocol).sanitizer.violations)
        assert self._digest(violations) == (
            17,
            "12ea6d9415c59488a88fa09fd282d7af22e5de9ac74d1f9971459e14b87bbfd6",
        )

    def test_crashing_ford_litmus_violations(self):
        from repro.litmus import LitmusRunner
        from repro.litmus.specs import litmus1_direct_write

        runner = LitmusRunner(
            litmus1_direct_write(),
            protocol="ford",
            rounds=12,
            seed=7,
            sanitize=True,
            crash_probability=0.3,
        )
        runner.run()
        violations = runner.cluster.sanitizer.violations
        assert {violation.code for violation in violations} == {
            "PILL-DECIDE",
            "PILL-LOG",
            "PILL-UNLOCK",
            "PILL-WRITE",
        }
        assert self._digest(violations) == (
            285,
            "b18616bf8e3665512b1b2d8886b54e9cd9015561361c3bb848998c34be4db9d5",
        )


class TestCleanProtocolRuns:
    """Each sanitized run is as short as its path allows. The failovers
    crash at 8 ms, the earliest crash whose pre-crash rate (measured in
    2 ms windows from 5 ms to one window before the crash) is nonzero,
    and end just after recovery closes its record: the 5 ms FD timeout
    detects at 12.5 ms, compute recovery finishes at ~12.6 ms, memory
    recovery at 14.5 ms."""

    def test_stock_pandora_scenarios_are_clean(self):
        from repro.analysis.mutants import MUTANTS, PANDORA

        for spec in MUTANTS:
            rig = spec.scenario(PANDORA)
            codes = [v.code for v in rig.sanitizer.violations]
            assert codes == [], (spec.name, codes)

    def test_sanitized_steady_state_is_clean(self):
        from repro.bench.harness import run_steady_state
        from repro.workloads import MicroBenchmark

        result = run_steady_state(
            lambda: MicroBenchmark(num_keys=2_000, write_ratio=1.0),
            "pandora",
            warmup=1e-3,
            duration=1e-3,
            sanitize=True,
        )
        assert result.commits > 0

    def test_sanitized_compute_failover_is_clean(self):
        from repro.bench.harness import run_failover
        from repro.workloads import MicroBenchmark

        result = run_failover(
            lambda: MicroBenchmark(num_keys=2_000, write_ratio=1.0),
            "pandora",
            crash_kind="compute",
            crash_at=8e-3,
            duration=13e-3,
            sanitize=True,
        )
        assert result.pre_rate > 0
        assert [
            (record.kind, record.finished_at > 0) for record in result.recovery_records
        ] == [("compute", True)]

    def test_sanitized_memory_failover_is_clean(self):
        from repro.bench.harness import run_failover
        from repro.workloads import MicroBenchmark

        result = run_failover(
            lambda: MicroBenchmark(num_keys=2_000, write_ratio=1.0),
            "pandora",
            crash_kind="memory",
            crash_at=8e-3,
            duration=15e-3,
            sanitize=True,
        )
        assert result.pre_rate > 0
        assert [
            (record.kind, record.finished_at > 0) for record in result.recovery_records
        ] == [("memory", True)]

    def test_sanitized_litmus_family_is_clean(self):
        from repro.litmus import LITMUS_SUITE, LitmusRunner

        spec = LITMUS_SUITE()[0]
        runner = LitmusRunner(
            spec,
            protocol="pandora",
            rounds=6,
            crash_probability=0.5,
            seed=5,
            sanitize=True,
        )
        report = runner.run()
        assert report.passed
        assert runner.cluster.sanitizer.violations == []


class TestDisabledSanitizerIsInert:
    def test_runs_bit_identical_with_and_without_noop(self):
        """A build without ``sanitize=True`` must not change behaviour —
        the hooks are no-ops, so histories match a plain run exactly."""
        from repro.litmus.fuzzer import HistoryFuzzer

        plain = HistoryFuzzer(protocol="pandora", seed=9, duration=5e-3)
        sanitized = HistoryFuzzer(
            protocol="pandora", seed=9, duration=5e-3, sanitize=True
        )
        plain.run()
        sanitized.run()
        assert plain.history == sanitized.history
