"""Shared protocol types: abort reasons, outcomes, intents, bug flags."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

__all__ = [
    "AbortReason",
    "TxnAbort",
    "TxnOutcome",
    "ReadEntry",
    "WriteIntent",
    "BugFlags",
    "OP_UPDATE",
    "OP_INSERT",
    "OP_DELETE",
]

OP_UPDATE = "update"
OP_INSERT = "insert"
OP_DELETE = "delete"


class AbortReason:
    """Why a transaction aborted (string constants, compared by identity)."""

    LOCK_CONFLICT = "lock_conflict"
    READ_LOCKED = "read_locked"
    VALIDATION_VERSION = "validation_version"
    VALIDATION_LOCKED = "validation_locked"
    UPGRADE_VERSION = "upgrade_version"
    DUPLICATE_KEY = "duplicate_key"
    NOT_FOUND = "not_found"
    USER = "user_abort"
    MEMORY_RECONFIG = "memory_reconfiguration"
    LINK_REVOKED = "link_revoked"
    APP_ERROR = "app_error"


class TxnAbort(Exception):
    """Internal control-flow exception ending a transaction attempt."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


@dataclass
class TxnOutcome:
    """Result of one transaction (possibly after several attempts)."""

    committed: bool
    reason: Optional[str] = None
    value: Any = None
    attempts: int = 1
    start_time: float = 0.0
    end_time: float = 0.0
    txn_id: int = -1

    @property
    def latency(self) -> float:
        """Client-observed latency of the (last) attempt."""
        return self.end_time - self.start_time


@dataclass
class ReadEntry:
    """A read-set member: the snapshot the transaction observed."""

    table_id: int
    key: Hashable
    slot: int
    version: int
    present: bool
    value: Any
    node: int


@dataclass
class WriteIntent:
    """A write-set member and everything needed to log/commit/undo it."""

    table_id: int
    key: Hashable
    slot: int
    kind: str  # OP_UPDATE / OP_INSERT / OP_DELETE
    new_value: Any = None
    # Populated at lock time:
    locked: bool = False
    lock_node: Optional[int] = None
    old_version: int = -1
    old_value: Any = None
    old_present: bool = False
    # For read-then-write upgrades: the version the earlier read saw.
    expected_version: Optional[int] = None
    # Replicas this intent's commit-phase updates were posted to.
    applied: bool = False
    # The lock-acquisition subprocess and the (success, abort reason)
    # it leaves behind.
    lock_proc: Any = None
    lock_result: Optional[Tuple[bool, str]] = None
    # (log node, record id) of every lock-intent record copy written
    # ahead of the lock CAS (tradlog only).
    intent_records: Tuple[Tuple[int, int], ...] = ()

    @property
    def new_version(self) -> int:
        """Version this intent installs on commit (old + 1)."""
        return self.old_version + 1

    @property
    def new_present(self) -> bool:
        """Presence after commit (False only for deletes)."""
        return self.kind != OP_DELETE


@dataclass
class BugFlags:
    """The six FORD bugs from Table 1, individually toggleable.

    ``published()`` returns FORD as shipped (all bugs present);
    ``fixed()`` returns the fully repaired behaviour used by Pandora.
    """

    complicit_abort: bool = False  # C1: abort path unlocks never-acquired locks
    missing_insert_log: bool = False  # C2: inserts are not undo-logged
    covert_locks: bool = False  # C1: validation ignores the lock bit
    relaxed_locks: bool = False  # C1: validation may start before all locks land
    lost_decision: bool = False  # C2: logs written for txns that later abort
    log_without_lock: bool = False  # C2: log posted before the lock is grabbed

    @classmethod
    def published(cls) -> "BugFlags":
        """FORD exactly as shipped: all six bugs present."""
        return cls(
            complicit_abort=True,
            missing_insert_log=True,
            covert_locks=True,
            relaxed_locks=True,
            lost_decision=True,
            log_without_lock=True,
        )

    @classmethod
    def fixed(cls) -> "BugFlags":
        """All Table 1 bugs repaired (the Pandora default)."""
        return cls()

    def any_enabled(self) -> bool:
        """True if at least one bug flag is on."""
        return any(
            (
                self.complicit_abort,
                self.missing_insert_log,
                self.covert_locks,
                self.relaxed_locks,
                self.lost_decision,
                self.log_without_lock,
            )
        )
