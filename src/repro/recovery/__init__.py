"""Failure detection and the RDMA-based recovery protocol (§3.2)."""

from repro.recovery.idalloc import IdAllocator
from repro.recovery.failure_detector import FailureDetector
from repro.recovery.manager import RecoveryManager, RecoveryRecord
from repro.recovery.recycler import IdRecycler

__all__ = [
    "FailureDetector",
    "IdAllocator",
    "IdRecycler",
    "RecoveryManager",
    "RecoveryRecord",
]
