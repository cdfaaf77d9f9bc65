"""Transaction protocols: the shared OCC engine and the protocol zoo."""

from repro.protocol.base import ProtocolEngine, Txn
from repro.protocol.coordinator import Coordinator, CoordinatorConfig, CoordinatorStats
from repro.protocol.locks import (
    encode_anonymous_lock,
    encode_lock,
    encode_ticket_word,
    is_locked,
    is_ticket_word,
    owner_of,
    tag_of,
)
from repro.protocol.strategies import (
    CommitStrategy,
    LockStrategy,
    LogStrategy,
)
from repro.protocol.types import (
    AbortReason,
    BugFlags,
    TxnAbort,
    TxnOutcome,
    WriteIntent,
)
from repro.protocol.zoo import ZOO, Protocol

__all__ = [
    "AbortReason",
    "BugFlags",
    "CommitStrategy",
    "Coordinator",
    "CoordinatorConfig",
    "CoordinatorStats",
    "LockStrategy",
    "LogStrategy",
    "Protocol",
    "ProtocolEngine",
    "Txn",
    "TxnAbort",
    "TxnOutcome",
    "WriteIntent",
    "ZOO",
    "encode_anonymous_lock",
    "encode_lock",
    "encode_ticket_word",
    "is_locked",
    "is_ticket_word",
    "owner_of",
    "tag_of",
]
