"""The fuzz workload's transaction stream is a pure function of its seed."""

import random

from repro.workloads.keyvalue import FuzzWorkload


def _scenario_stream(seed, count=200):
    """The first *count* generated transaction kinds for one seed."""
    workload = FuzzWorkload(keys=24)
    rng = random.Random(seed)
    return [workload.next_transaction(rng).__name__ for _ in range(count)]


class TestFuzzWorkload:
    """Chaos runs replay bit-identically from their seed only if the
    traffic does — the property every chaos artifact relies on."""

    def test_same_seed_same_scenario_stream(self):
        assert _scenario_stream(7) == _scenario_stream(7)

    def test_different_seeds_differ(self):
        assert _scenario_stream(7) != _scenario_stream(8)

    def test_scenario_stream_covers_every_kind(self):
        kinds = set(_scenario_stream(3, count=500))
        assert kinds == {
            "read_pair",
            "rmw",
            "blind",
            "transfer",
            "read_a_write_b",
            "delete_or_revive",
        }
