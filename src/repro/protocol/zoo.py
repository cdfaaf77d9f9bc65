"""The protocol zoo: every protocol is one row of one table.

A protocol is a *declaration* — a lock, a log and a commit strategy
(:mod:`repro.protocol.strategies`) plus the Table 1 bug flags it ships
with. The forward path (the shared engine plugs the three in) and the
recovery path (:class:`~repro.recovery.manager.RecoveryManager` composes
its find / undo / release steps from the same three classes) both read
nothing else, so adding or cutting a protocol is an edit to ``ZOO``.

=========  ==============  ============  ============  =========
name       lock            log           commit        bugs
=========  ==============  ============  ============  =========
pandora    PILL CAS        coalesced     logged        fixed
ford       anonymous CAS   per-object    late-upgrade  published
baseline   anonymous CAS   per-object    late-upgrade  fixed
tradlog    anonymous CAS   lock-intent   late-upgrade  fixed
lotus      ticket queue    coalesced     logged        fixed
vote1pc    PILL CAS        none          vote          fixed
=========  ==============  ============  ============  =========

``baseline`` is the paper's comparison system (§4.1): the ford triple —
its engines report themselves as ``ford`` — with the bugs repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Type

from repro.protocol.base import ProtocolEngine
from repro.protocol.strategies import (
    AnonymousCasLockStrategy,
    CoalescedLogStrategy,
    CommitStrategy,
    LateUpgradeLoggedCommitStrategy,
    LockIntentLogStrategy,
    LockStrategy,
    LoggedCommitStrategy,
    LogStrategy,
    NoLogStrategy,
    PerObjectLogStrategy,
    PillCasLockStrategy,
    TicketLockStrategy,
    VoteCommitStrategy,
)
from repro.protocol.types import BugFlags

__all__ = ["Protocol", "ZOO", "TRIPLES"]


@dataclass(frozen=True)
class Protocol:
    """One protocol: a strategy triple and its default bug flags."""

    # The label its engines carry into metrics and flight records.
    name: str
    lock: Type[LockStrategy]
    log: Type[LogStrategy]
    commit: Type[CommitStrategy]
    bugs: Callable[[], BugFlags] = BugFlags.fixed

    @property
    def needs_quiesce_scan(self) -> bool:
        """Must recovery stop the world and scan every slot to find a
        dead owner's locks? Only when the words name no owner *and* no
        lock-intent log says where they are (§3.1.1)."""
        return not self.lock.pill and not self.log.pre_lock_intent

    def engine_factory(self, bugs: Optional[BugFlags] = None) -> Callable:
        """Engine factory for :class:`~repro.protocol.coordinator.Coordinator`."""
        if bugs is None:
            bugs = self.bugs()

        def factory(coordinator):
            return ProtocolEngine(coordinator, self, bugs)

        return factory


_FORD = Protocol(
    "ford",
    AnonymousCasLockStrategy,
    PerObjectLogStrategy,
    LateUpgradeLoggedCommitStrategy,
    bugs=BugFlags.published,
)

ZOO: Dict[str, Protocol] = {
    "pandora": Protocol(
        "pandora", PillCasLockStrategy, CoalescedLogStrategy, LoggedCommitStrategy
    ),
    "ford": _FORD,
    "baseline": replace(_FORD, bugs=BugFlags.fixed),
    "tradlog": Protocol(
        "tradlog",
        AnonymousCasLockStrategy,
        LockIntentLogStrategy,
        LateUpgradeLoggedCommitStrategy,
    ),
    "lotus": Protocol(
        "lotus", TicketLockStrategy, CoalescedLogStrategy, LoggedCommitStrategy
    ),
    "vote1pc": Protocol(
        "vote1pc", PillCasLockStrategy, NoLogStrategy, VoteCommitStrategy
    ),
}

# One name per distinct triple (``baseline`` re-runs ford's).
TRIPLES = tuple(name for name, protocol in ZOO.items() if protocol.name == name)
