"""Tests for the memory-node substrate: slots, logs, scans, control."""

import pytest

from repro.memory.node import (
    LOG_REGION_CAPACITY_BYTES,
    LogRecord,
    LogRegion,
    MemoryNode,
    OBJECT_HEADER_BYTES,
)


@pytest.fixture
def node():
    memory = MemoryNode(0)
    memory.create_table(0, 16, value_size=40)
    memory.load_slot(0, 1, value="hello")
    return memory


def _entry(table=0, slot=1, key=1, old_ver=1, new_ver=2):
    return (table, slot, key, old_ver, new_ver, "old", "new", True, True)


class TestTables:
    def test_create_and_load(self, node):
        slot = node.slot(0, 1)
        assert slot.present and slot.value == "hello" and slot.version == 1

    def test_duplicate_table_raises(self, node):
        with pytest.raises(ValueError):
            node.create_table(0, 4, value_size=8)

    def test_slot_bytes(self, node):
        assert node.slot(0, 1).slot_bytes == OBJECT_HEADER_BYTES + 40

    def test_total_data_bytes(self, node):
        assert node.total_data_bytes() == 16 * (OBJECT_HEADER_BYTES + 40)


class TestVerbDispatch:
    def test_unknown_verb_raises(self, node):
        with pytest.raises(ValueError, match="unknown verb kind 'nonsense'"):
            node.apply(1, "nonsense", ())
        assert node.verb_counts == {}

    def test_verb_counting(self, node):
        node.apply(1, "read_header", (0, 1))
        node.apply(1, "read_header", (0, 1))
        assert node.verb_counts["read_header"] == 2

    def test_verb_counts_sum_to_the_verbs_applied(self, node):
        applied = [
            ("read_header", (0, 1)),
            ("cas_lock", (0, 1, 0, 42)),
            ("read_object", (0, 2)),
            ("cas_lock", (0, 1, 42, 0)),
            ("write_log", (LogRecord(coord_id=1, txn_id=1, entries=(_entry(),)),)),
        ]
        for kind, args in applied:
            node.apply(1, kind, args)
        assert node.verb_counts == {
            "read_header": 1, "cas_lock": 2, "read_object": 1, "write_log": 1
        }
        assert sum(node.verb_counts.values()) == len(applied)

    def test_cas_lock_semantics(self, node):
        old, _size = node.apply(1, "cas_lock", (0, 1, 0, 42))
        assert old == 0
        old, _size = node.apply(1, "cas_lock", (0, 1, 0, 43))
        assert old == 42  # failed CAS returns the current word
        assert node.slot(0, 1).lock == 42

    def test_write_object_in_place(self, node):
        node.apply(1, "write_object", (0, 1, 7, "updated", True))
        slot = node.slot(0, 1)
        assert (slot.version, slot.value) == (7, "updated")

    def test_scan_chunk_reports_locked_and_charges_bytes(self, node):
        node.slot(0, 2).lock = 99
        (locked, next_pos), size = node.apply(1, "scan_chunk", (0, 0, 16))
        assert locked == [(2, 99)]
        assert next_pos == 16
        assert size == 16 * (OBJECT_HEADER_BYTES + 40)


class TestLogRegions:
    def test_write_and_read_log(self, node):
        record = LogRecord(coord_id=3, txn_id=10, entries=(_entry(),))
        record_id, _ = node.apply(1, "write_log", (record,))
        records, _ = node.apply(1, "read_log_region", (3,))
        assert len(records) == 1
        assert records[0].record_id == record_id

    def test_invalidate_log(self, node):
        record = LogRecord(coord_id=3, txn_id=10, entries=(_entry(),))
        record_id, _ = node.apply(1, "write_log", (record,))
        found, _ = node.apply(1, "invalidate_log", (3, record_id))
        assert found
        records, _ = node.apply(1, "read_log_region", (3,))
        assert records == []

    def test_truncate_region_hides_all_records(self, node):
        for txn in range(3):
            node.apply(1, "write_log", (LogRecord(3, txn, (_entry(),)),))
        node.apply(1, "truncate_log_region", (3,))
        records, _ = node.apply(1, "read_log_region", (3,))
        assert records == []

    def test_register_resets_region(self, node):
        node.apply(1, "write_log", (LogRecord(3, 1, (_entry(),)),))
        node.apply(1, "truncate_log_region", (3,))
        node.apply(1, "ctrl_register_log_region", (3,))
        node.apply(1, "write_log", (LogRecord(3, 2, (_entry(),)),))
        records, _ = node.apply(1, "read_log_region", (3,))
        assert len(records) == 1

    def test_region_wraps_at_capacity(self):
        region = LogRegion(coord_id=1, capacity_bytes=300)
        for txn in range(10):
            record = LogRecord(1, txn, (_entry(),))
            region.append(record, 100)
        assert region.used_bytes <= 300
        ids = [record.txn_id for record in region.valid_records()]
        assert ids == [7, 8, 9]

    def test_region_default_capacity_is_32k(self):
        assert LogRegion(coord_id=1).capacity_bytes == LOG_REGION_CAPACITY_BYTES

    def test_record_size_accounts_values(self):
        record = LogRecord(1, 1, (_entry(), _entry(slot=2)))
        small = record.size_bytes({0: 8})
        large = record.size_bytes({0: 672})
        assert large > small

    def test_read_missing_region_is_empty(self, node):
        records, _ = node.apply(1, "read_log_region", (99,))
        assert records == []


class TestControlPlane:
    def test_revoke_and_unrevoke(self, node):
        node.apply(1, "ctrl_revoke", (5,))
        assert node.is_revoked(5)
        node.apply(1, "ctrl_unrevoke", (5,))
        assert not node.is_revoked(5)

    def test_crash_and_restart(self, node):
        node.crash()
        assert not node.alive
        node.restart()
        assert node.alive
        assert node.slot(0, 1).value == "hello"  # memory intact

    def test_locked_slots_introspection(self, node):
        node.slot(0, 4).lock = 1
        node.slot(0, 9).lock = 2
        assert node.locked_slots(0) == [4, 9]
