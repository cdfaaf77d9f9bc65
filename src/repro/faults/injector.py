"""Crash-stop fault injection.

Failures are injected two ways, matching the paper's methodology
(§6.1 "Emulating Failures" and §5's random crash injection):

* **Timed crashes** — a compute or memory node is killed at a chosen
  virtual time, stopping all in-flight transactions in that process.
* **Crash points** — protocol engines call
  :meth:`FaultInjector.crash_point` at every step boundary; a matching
  :class:`CrashPlan` kills the node *exactly there* (after the verbs
  already posted have left the NIC — they still land at memory, which
  is what creates stray locks and partially-applied commits).

The injector is deliberately deterministic given a seeded RNG so that
litmus failures replay.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim import Event, Simulator

__all__ = [
    "ALL_CRASH_POINTS",
    "CRASH_POINTS",
    "CrashPlan",
    "DEFAULT_FAULT_SEED",
    "check_crash_point",
    "FaultInjector",
    "RECOVERY_CRASH_POINTS",
]

# The engines' ``_cp("...")`` step boundaries: every name a crash plan
# may match. The litmus runner draws from CRASH_POINTS; chaos adds the
# interrupt-resolution boundaries (§3.2.2 x §3.2.5 — crashing while
# resolving an interrupted attempt). The litmus list is kept apart so
# seeded litmus runs stay bit-identical.
CRASH_POINTS = [
    "lock_posted",
    "locked",
    "execution_done",
    "locks_held",
    "log_posted",
    "decision",
    "commit_posted",
    "applied",
    "unlocked",
    "abort_unlocked",
]
RECOVERY_CRASH_POINTS = (
    "recover_interrupted",
    "recover_drained",
    "recover_undo_written",
)
ALL_CRASH_POINTS = tuple(CRASH_POINTS) + RECOVERY_CRASH_POINTS


def check_crash_point(point: Optional[str]) -> None:
    """Raise ValueError unless *point* is None (any step) or declared:
    a misspelled point would never match, so its plan never fires."""
    if point is not None and point not in ALL_CRASH_POINTS:
        raise ValueError(
            f"unknown crash point {point!r}; "
            f"expected one of {', '.join(ALL_CRASH_POINTS)}"
        )

# Seed used when a fault component is built without an explicit RNG.
# Kept as a named constant (and logged on use) so a run that silently
# fell back to it is distinguishable from one that was seeded on
# purpose — `rng or random.Random(0)` hid that difference.
DEFAULT_FAULT_SEED = 0

logger = logging.getLogger(__name__)


@dataclass
class CrashPlan:
    """One planned crash, matched against crash-point invocations."""

    node_id: int
    # Match a specific protocol step (None = any step).
    point: Optional[str] = None
    # Crash on the nth matching invocation (1 = first).
    nth: int = 1
    # Or crash probabilistically on every matching invocation.
    probability: float = 0.0
    # Internal countdown state.
    _seen: int = field(default=0, repr=False)
    fired: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        check_crash_point(self.point)

    def matches(self, point: str) -> bool:
        """True when this plan applies to the named crash point."""
        return self.point is None or self.point == point


class FaultInjector:
    """Holds crash plans and executes them at crash points."""

    def __init__(self, sim: Simulator, rng: Optional[random.Random] = None) -> None:
        self.sim = sim
        if rng is None:
            logger.debug(
                "FaultInjector built without an RNG; seeding with "
                "DEFAULT_FAULT_SEED=%d", DEFAULT_FAULT_SEED,
            )
            rng = random.Random(DEFAULT_FAULT_SEED)
        self.rng = rng
        # node id -> armed crash plans. Empty means no crash point can
        # fire, which is all an engine checks before calling in.
        self.plans_by_node: Dict[int, List[CrashPlan]] = {}
        self.crashes: List[tuple] = []  # (time, node_id, point)

    # -- plan management -----------------------------------------------------

    def add_plan(self, plan: CrashPlan) -> CrashPlan:
        """Register a crash plan."""
        self.plans_by_node.setdefault(plan.node_id, []).append(plan)
        return plan

    def crash_at(self, node, when: float) -> None:
        """Kill *node* at absolute virtual time *when*.

        A no-op if the node is already crashed when the timer is armed
        (scheduling a kill against a corpse would otherwise crash the
        node again should it restart before *when*). The fire-time
        ``alive`` check handles the node dying in between.
        """
        if not node.alive:
            return

        def fire() -> None:
            if node.alive:
                self.crashes.append((self.sim.now, node.node_id, "timer"))
                node.crash()

        self.sim.call_at(when, fire)

    def crash_on_point(self, node_id: int, point: str, nth: int = 1) -> CrashPlan:
        """Kill the node at the nth occurrence of a named crash point."""
        return self.add_plan(CrashPlan(node_id=node_id, point=point, nth=nth))

    def random_crashes(self, node_id: int, probability: float) -> CrashPlan:
        """Kill the node with *probability* at every crash point."""
        return self.add_plan(
            CrashPlan(node_id=node_id, point=None, nth=0, probability=probability)
        )

    def clear(self, node_id: Optional[int] = None) -> None:
        """Drop crash plans (for one node, or all).

        The countdown state of the removed plans is reset so that a
        caller holding a plan reference can re-register it and get a
        fresh plan — previously a cleared-then-re-added plan kept its
        ``_seen``/``fired`` state and either fired early or never.
        """
        if node_id is None:
            removed = [
                plan for plans in self.plans_by_node.values() for plan in plans
            ]
            self.plans_by_node.clear()
        else:
            removed = self.plans_by_node.pop(node_id, [])
        for plan in removed:
            plan._seen = 0
            plan.fired = False

    # -- engine-facing hook ------------------------------------------------------

    def crash_point(self, point: str, coordinator) -> Optional[Event]:
        """Called by engines at each protocol step boundary.

        Returns None when no plan fires (the engine continues
        immediately, zero cost). When a plan fires, the node is crashed
        on the next kernel step and a never-firing event is returned —
        the yielding process is killed while suspended on it, exactly
        like a thread dying between two instructions.
        """
        node = coordinator.node
        plans = self.plans_by_node.get(node.node_id)
        if not plans:
            return None
        if not node.alive:
            # A crash point reached by a process that outlived its
            # node's crash (the kill lands on the next kernel step)
            # must not fire plans, record spurious crashes, or burn
            # RNG draws for probabilistic plans.
            return None
        for plan in plans:
            if plan.fired or not plan.matches(point):
                continue
            if plan.probability > 0.0:
                if self.rng.random() >= plan.probability:
                    continue
            else:
                plan._seen += 1
                if plan._seen < plan.nth:
                    continue
            plan.fired = True
            self.crashes.append((self.sim.now, node.node_id, point))
            self.sim.call_soon(node.crash)
            # Never fires; the process dies suspended here.
            return Event(self.sim)
        return None
