"""Quantitative message-cost claims (§3.1.4).

"The total cost of logging in our technique is always f+1 RDMA Writes
as opposed to FORD's f+1 RDMA Writes per object in the write-set."
"""

import pytest


def multi_write_txn(n_keys):
    def logic(tx):
        for key in range(n_keys):
            tx.write("kv", key, key + 100)
        return None

    return logic


def total_log_writes(rig):
    return sum(
        memory.verb_counts.get("write_log", 0) for memory in rig.memory.values()
    )


class TestLoggingCost:
    @pytest.mark.parametrize("write_set_size", [1, 2, 4, 8])
    def test_pandora_logs_f_plus_one_writes_total(self, rig_factory, write_set_size):
        rig = rig_factory(protocol="pandora", replication=2)
        rig.run_txn(rig.coordinators[0], multi_write_txn(write_set_size))
        # f+1 = 2, independent of the write-set size.
        assert total_log_writes(rig) == 2

    @pytest.mark.parametrize("write_set_size", [1, 2, 4])
    def test_ford_logs_f_plus_one_per_object(self, rig_factory, write_set_size):
        rig = rig_factory(protocol="baseline", replication=2)
        rig.run_txn(rig.coordinators[0], multi_write_txn(write_set_size))
        assert total_log_writes(rig) == 2 * write_set_size

    def test_tradlog_adds_lock_intent_writes(self, rig_factory):
        """Traditional scheme: f+1 lock-intent writes per lock on top
        of the coalesced undo record."""
        rig = rig_factory(protocol="tradlog", replication=2)
        rig.run_txn(rig.coordinators[0], multi_write_txn(3))
        # 3 locks x 2 intent writes + 2 coalesced undo writes.
        assert total_log_writes(rig) == 3 * 2 + 2


class TestLockCost:
    def test_one_cas_per_write_object(self, rig_factory):
        rig = rig_factory(protocol="pandora", replication=2)
        rig.run_txn(rig.coordinators[0], multi_write_txn(4))
        cas_total = sum(
            memory.verb_counts.get("cas_lock", 0) for memory in rig.memory.values()
        )
        assert cas_total == 4  # uncontended: exactly one CAS per object

    def test_steal_costs_one_extra_cas(self, rig_factory):
        from repro.protocol.locks import encode_lock

        rig = rig_factory(protocol="pandora", compute_nodes=2)
        dead = rig.coordinators[0]
        live = rig.coordinators[1]
        rig.slot_state(2).lock = encode_lock(dead.coord_id)
        live.node.add_failed_ids([dead.coord_id])

        def write(tx):
            tx.write("kv", 2, 9)
            return None

        before = sum(
            memory.verb_counts.get("cas_lock", 0) for memory in rig.memory.values()
        )
        rig.run_txn(live, write)
        after = sum(
            memory.verb_counts.get("cas_lock", 0) for memory in rig.memory.values()
        )
        assert after - before == 2  # failed CAS + steal CAS


class TestCommitCost:
    def test_apply_writes_every_replica_once(self, rig_factory):
        rig = rig_factory(protocol="pandora", replication=2)
        rig.run_txn(rig.coordinators[0], multi_write_txn(3))
        applies = sum(
            memory.verb_counts.get("write_object", 0)
            for memory in rig.memory.values()
        )
        assert applies == 3 * 2  # objects x replicas

    def test_unlock_only_primaries(self, rig_factory):
        rig = rig_factory(protocol="pandora", replication=2)
        rig.run_txn(rig.coordinators[0], multi_write_txn(3))
        rig.sim.run()  # drain unsignaled unlocks
        unlocks = sum(
            memory.verb_counts.get("write_lock", 0)
            for memory in rig.memory.values()
        )
        assert unlocks == 3  # one per object, primary only
