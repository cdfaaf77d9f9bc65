"""Log-server placement under memory failures (§3.1.4 + §3.2.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvs.placement import Placement


class TestLogNodeFailover:
    def test_log_nodes_promote_on_failure(self):
        placement = Placement([0, 1, 2, 3], replication_degree=2)
        before = placement.log_nodes(coord_id=5)
        victim = before[0]
        placement.mark_down(victim)
        after = placement.log_nodes(coord_id=5)
        assert victim not in after
        assert len(after) == 2
        # The surviving log server keeps its role (stable prefix).
        assert before[1] in after

    def test_log_nodes_restored_on_mark_up(self):
        placement = Placement([0, 1, 2], replication_degree=2)
        before = placement.log_nodes(coord_id=9)
        placement.mark_down(before[0])
        placement.mark_up(before[0])
        assert placement.log_nodes(coord_id=9) == before

    def test_degraded_quorum_returns_live_subset(self):
        """With f failures and no spare server, logging degrades to the
        live subset instead of raising — raising here escaped
        mid-transaction after the lock barrier and silently killed the
        worker with its locks held under a live coordinator id (see
        tests/chaos/schedules/degraded-log-quorum.json)."""
        placement = Placement([0, 1], replication_degree=2)
        placement.mark_down(0)
        assert placement.log_nodes(coord_id=1) == (1,)

    def test_zero_live_log_servers_raise(self):
        placement = Placement([0, 1], replication_degree=2)
        placement.mark_down(0)
        placement.mark_down(1)
        with pytest.raises(RuntimeError):
            placement.log_nodes(coord_id=1)

    def test_different_coordinators_spread_over_nodes(self):
        placement = Placement(list(range(6)), replication_degree=2)
        primaries = {placement.log_nodes(coord)[0] for coord in range(64)}
        # Consistent hashing spreads coordinators' log primaries.
        assert len(primaries) >= 4

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.booleans(), st.integers(0, 3)), min_size=1, max_size=12
        )
    )
    def test_memoised_answer_tracks_every_mark_down_and_mark_up(self, steps):
        """log_nodes() is memoised per coordinator and dropped whenever
        the down-set changes: after any history it answers like a
        Placement that has never been asked before."""

        def answers(placement):
            out = []
            for coord_id in range(6):
                try:
                    out.append(placement.log_nodes(coord_id))
                except RuntimeError:
                    out.append("no live log server")
            return out

        nodes = [0, 1, 2, 3]
        placement = Placement(nodes, replication_degree=2)
        answers(placement)  # fill the memo before the first change
        down = set()
        for up, node_id in steps:
            if up:
                placement.mark_up(node_id)
                down.discard(node_id)
            else:
                placement.mark_down(node_id)
                down.add(node_id)
            fresh = Placement(nodes, replication_degree=2)
            for dead in sorted(down):
                fresh.mark_down(dead)
            assert answers(placement) == answers(fresh)
            assert answers(placement) == answers(fresh)  # and once memoised
