"""Transaction protocols: the shared OCC engine and the protocol zoo."""

from repro.protocol.base import ProtocolEngine, Txn
from repro.protocol.coordinator import Coordinator, CoordinatorConfig, CoordinatorStats
from repro.protocol.ford import FordProtocol, ford_factory
from repro.protocol.locks import (
    encode_anonymous_lock,
    encode_lock,
    encode_ticket_word,
    is_locked,
    is_ticket_word,
    owner_of,
    tag_of,
)
from repro.protocol.lotus import LotusProtocol, lotus_factory
from repro.protocol.pandora import PandoraProtocol, pandora_factory
from repro.protocol.strategies import (
    CommitStrategy,
    LockStrategy,
    LogStrategy,
)
from repro.protocol.tradlog import TradLogProtocol, tradlog_factory
from repro.protocol.types import (
    AbortReason,
    BugFlags,
    TxnAbort,
    TxnOutcome,
    WriteIntent,
)
from repro.protocol.vote1pc import Vote1PCProtocol, vote1pc_factory

__all__ = [
    "AbortReason",
    "BugFlags",
    "CommitStrategy",
    "Coordinator",
    "CoordinatorConfig",
    "CoordinatorStats",
    "FordProtocol",
    "LockStrategy",
    "LogStrategy",
    "LotusProtocol",
    "PandoraProtocol",
    "ProtocolEngine",
    "TradLogProtocol",
    "Txn",
    "TxnAbort",
    "TxnOutcome",
    "Vote1PCProtocol",
    "WriteIntent",
    "encode_anonymous_lock",
    "encode_lock",
    "encode_ticket_word",
    "ford_factory",
    "is_locked",
    "is_ticket_word",
    "lotus_factory",
    "owner_of",
    "pandora_factory",
    "tag_of",
    "tradlog_factory",
    "vote1pc_factory",
]
