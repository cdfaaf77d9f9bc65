"""The litmus-test specifications of Figure 5.

Each spec lists its logical keys, their initial state, the writer
transactions (as factories over a per-round key mapping), and an
application-observable assertion evaluated on the post-recovery state.
The assertions are exactly the paper's:

* **Litmus 1** (direct-write cycles): two transactions each write the
  same value to X and Y; afterwards ``X == Y`` must hold.
* **Litmus 2** (read-write cycles): T1 reads X and writes Y = x+1,
  T2 reads Y and writes X = y+1; the state ``X == Y != initial`` is
  only reachable through a dependency cycle.
* **Litmus 3** (indirect-write cycles): both transactions increment X,
  one copies it into Y, the other into Z; ``X >= Y`` and ``X >= Z``
  must always hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from repro.workloads.keyvalue import ABSENT  # keys that must start absent

__all__ = [
    "ABSENT",
    "LitmusSpec",
    "litmus1_direct_write",
    "litmus1_insert_delete",
    "litmus2_read_write",
    "litmus3_indirect_write",
    "litmus3_extended",
    "compound_litmus",
    "stretched_litmus",
    "LITMUS_SUITE",
]


@dataclass
class LitmusSpec:
    """One litmus test: writers + an application-observable assertion."""

    name: str
    description: str
    keys: List[str]
    initial: Dict[str, Any]
    # Each writer is writer(keymap) -> logic callable.
    writers: List[Callable[[Dict[str, Any]], Callable]]
    # check(values, outcomes) -> True when the state is consistent.
    check: Callable[[Dict[str, Any], List], bool] = field(repr=False, default=None)

    def describe_violation(self, values: Dict[str, Any]) -> str:
        rendered = ", ".join(f"{key}={value!r}" for key, value in values.items())
        return f"{self.name}: inconsistent state ({rendered})"


# --------------------------------------------------------------------------
# Litmus 1 — Direct-Write dependency cycles (Figure 5a/5d).
# --------------------------------------------------------------------------


def litmus1_direct_write() -> LitmusSpec:
    def writer(value):
        def factory(keymap):
            def logic(tx):
                tx.write("lit", keymap["X"], value)
                tx.write("lit", keymap["Y"], value)
                return None

            return logic

        return factory

    def check(values, _outcomes) -> bool:
        return values["X"] == values["Y"]

    return LitmusSpec(
        name="litmus-1",
        description="direct-write cycles: T1 sets X=Y=V1, T2 sets X=Y=V2; "
        "assert X == Y",
        keys=["X", "Y"],
        initial={"X": 0, "Y": 0},
        writers=[writer(1), writer(2)],
        check=check,
    )


def litmus1_insert_delete() -> LitmusSpec:
    """Litmus 1 variant with inserts/deletes (exercises insert logging)."""

    def inserter(keymap):
        def logic(tx):
            tx.insert("lit", keymap["X"], 1)
            tx.insert("lit", keymap["Y"], 1)
            return None

        return logic

    def deleter(keymap):
        def logic(tx):
            present_x = yield from tx.read("lit", keymap["X"])
            present_y = yield from tx.read("lit", keymap["Y"])
            if present_x is None or present_y is None:
                tx.abort("nothing to delete")
            tx.delete("lit", keymap["X"])
            tx.delete("lit", keymap["Y"])
            return None

        return logic

    def check(values, _outcomes) -> bool:
        # Inserts and deletes cover both keys atomically, so presence
        # must always agree.
        return (values["X"] is None) == (values["Y"] is None)

    return LitmusSpec(
        name="litmus-1-insert",
        description="direct-write cycles with insert/delete; assert "
        "X and Y are both present or both absent",
        keys=["X", "Y"],
        initial={"X": ABSENT, "Y": ABSENT},
        writers=[inserter, deleter],
        check=check,
    )


# --------------------------------------------------------------------------
# Litmus 2 — Read-Write dependency cycles (Figure 5b).
# --------------------------------------------------------------------------


def litmus2_read_write() -> LitmusSpec:
    def t1(keymap):
        def logic(tx):
            x = yield from tx.read("lit", keymap["X"])
            tx.write("lit", keymap["Y"], (x or 0) + 1)
            return None

        return logic

    def t2(keymap):
        def logic(tx):
            y = yield from tx.read("lit", keymap["Y"])
            tx.write("lit", keymap["X"], (y or 0) + 1)
            return None

        return logic

    def check(values, _outcomes) -> bool:
        # X == Y != 0 requires both transactions to have read the
        # other's pre-state: a read-write cycle.
        if values["X"] == 0 and values["Y"] == 0:
            return True
        return values["X"] != values["Y"]

    return LitmusSpec(
        name="litmus-2",
        description="read-write cycles: T1 reads X writes Y=x+1, T2 reads "
        "Y writes X=y+1; assert X != Y (unless untouched)",
        keys=["X", "Y"],
        initial={"X": 0, "Y": 0},
        writers=[t1, t2],
        check=check,
    )


# --------------------------------------------------------------------------
# Litmus 3 — Indirect-Write dependency cycles (Figure 5c).
# --------------------------------------------------------------------------


def litmus3_indirect_write() -> LitmusSpec:
    def incr_into(target):
        def factory(keymap):
            def logic(tx):
                # Exactly as in Figure 5c: a plain read of X followed
                # by writes of X and the target (read-then-write).
                x = yield from tx.read("lit", keymap["X"])
                tx.write("lit", keymap["X"], (x or 0) + 1)
                tx.write("lit", keymap[target], (x or 0) + 1)
                return None

            return logic

        return factory

    def check(values, outcomes) -> bool:
        x = values["X"] or 0
        y = values["Y"] or 0
        z = values["Z"] or 0
        if not (x >= y and x >= z):
            return False
        # Extended assertion ("additional variables", §5): X counts the
        # committed increments exactly; crashed coordinators' txns are
        # unknown, so they widen the admissible range.
        committed = sum(
            1 for outcome in outcomes if outcome is not None and outcome.committed
        )
        unknown = sum(1 for outcome in outcomes if outcome is None)
        return committed <= x <= committed + unknown

    return LitmusSpec(
        name="litmus-3",
        description="indirect-write cycles: T1 x=X, X=x+1, Y=x+1; T2 x=X, "
        "X=x+1, Z=x+1; assert X >= Y, X >= Z, and X counts commits",
        keys=["X", "Y", "Z"],
        initial={"X": 0, "Y": 0, "Z": 0},
        writers=[incr_into("Y"), incr_into("Z")],
        check=check,
    )


def litmus3_extended() -> LitmusSpec:
    """Litmus 3 extended with a ballast read ("additional variables").

    T1 also *reads* ballast key B, which T2 blindly overwrites. B gives
    T1 a validated read-set member, so T1 can abort at validation —
    *after* its undo logs for X and Y were written. Those
    logged-then-aborted transactions are precisely the state FORD's
    recovery misinterprets (the "Lost Decision" bug, §3.1.3): a later
    crash makes recovery roll back X even though another transaction
    committed it, observable as ``X < Z``.
    """

    def t1(keymap):
        def logic(tx):
            x = yield from tx.read("lit", keymap["X"])
            _ballast = yield from tx.read("lit", keymap["B"])
            tx.write("lit", keymap["X"], (x or 0) + 1)
            tx.write("lit", keymap["Y"], (x or 0) + 1)
            return None

        return logic

    def t2(keymap):
        def logic(tx):
            x = yield from tx.read("lit", keymap["X"])
            tx.write("lit", keymap["X"], (x or 0) + 1)
            tx.write("lit", keymap["Z"], (x or 0) + 1)
            tx.write("lit", keymap["B"], (x or 0) + 100)
            return None

        return logic

    def check(values, outcomes) -> bool:
        x = values["X"] or 0
        y = values["Y"] or 0
        z = values["Z"] or 0
        if not (x >= y and x >= z):
            return False
        committed = sum(
            1 for outcome in outcomes if outcome is not None and outcome.committed
        )
        unknown = sum(1 for outcome in outcomes if outcome is None)
        return committed <= x <= committed + unknown

    return LitmusSpec(
        name="litmus-3-ext",
        description="indirect-write cycles with a validated ballast read; "
        "assert X >= Y, X >= Z, and X counts commits",
        keys=["X", "Y", "Z", "B"],
        initial={"X": 0, "Y": 0, "Z": 0, "B": 0},
        writers=[t1, t2],
        check=check,
    )


# --------------------------------------------------------------------------
# Compound test — stretched/combined basics (§5 "Compound Tests").
# --------------------------------------------------------------------------


def compound_litmus() -> LitmusSpec:
    """Litmus 1 and 3 combined over a wider key set."""

    def direct(value):
        def factory(keymap):
            def logic(tx):
                tx.write("lit", keymap["A"], value)
                tx.write("lit", keymap["B"], value)
                return None

            return logic

        return factory

    def indirect(target):
        def factory(keymap):
            def logic(tx):
                x = yield from tx.read_for_update("lit", keymap["X"])
                tx.write("lit", keymap["X"], (x or 0) + 1)
                tx.write("lit", keymap[target], (x or 0) + 1)
                _a = yield from tx.read("lit", keymap["A"])
                return None

            return logic

        return factory

    def check(values, _outcomes) -> bool:
        x = values["X"] or 0
        if values["A"] != values["B"]:
            return False
        return x >= (values["Y"] or 0) and x >= (values["Z"] or 0)

    return LitmusSpec(
        name="litmus-compound",
        description="combined direct + indirect write cycles",
        keys=["A", "B", "X", "Y", "Z"],
        initial={"A": 0, "B": 0, "X": 0, "Y": 0, "Z": 0},
        writers=[direct(1), direct(2), indirect("Y"), indirect("Z")],
        check=check,
    )


def stretched_litmus(width: int = 6) -> LitmusSpec:
    """A stretched litmus-1: direct-write cycles over *width* keys.

    §5 "Compound Tests": the basic tests were extended by stretching
    them over additional variables. Every writer assigns one value to
    the whole key vector, so any post-state mixing two values is a
    direct-write serializability violation.
    """
    if width < 2:
        raise ValueError("width must be >= 2")
    keys = [f"K{index}" for index in range(width)]

    def writer(value):
        def factory(keymap):
            def logic(tx):
                for key in keys:
                    tx.write("lit", keymap[key], value)
                return None

            return logic

        return factory

    def check(values, _outcomes) -> bool:
        distinct = {values[key] for key in keys}
        return len(distinct) == 1

    return LitmusSpec(
        name=f"litmus-stretched-{width}",
        description=f"direct-write cycles stretched over {width} keys; "
        "assert all keys equal",
        keys=keys,
        initial={key: 0 for key in keys},
        writers=[writer(1), writer(2), writer(3)],
        check=check,
    )


def LITMUS_SUITE() -> List[LitmusSpec]:
    """The full suite, freshly instantiated."""
    return [
        litmus1_direct_write(),
        litmus1_insert_delete(),
        litmus2_read_write(),
        litmus3_indirect_write(),
        litmus3_extended(),
        compound_litmus(),
        stretched_litmus(),
    ]
