"""Deterministic chaos campaigns over the recovery path.

The paper's availability claim (§5, §6.1) rests on recovery being
correct under *arbitrary* failure timing: FD false positives, failures
landing during recovery, and overlapping compute/memory/log-server
crashes. This package generates seeded multi-fault *schedules*, runs
each against the fuzz workload, and checks an end-of-run consistency
oracle — reusing the PILL sanitizer and the flight recorder for
attribution. Failing schedules are minimized with a delta-debugging
shrinker and emitted as replayable JSON artifacts.
"""

from repro.chaos.campaign import ChaosResult, ChaosRunner, run_schedule
from repro.chaos.oracle import OracleViolation, check_cluster
from repro.chaos.schedule import (
    ALL_CRASH_POINTS,
    FAMILIES,
    FAULT_KINDS,
    Fault,
    Schedule,
    generate_schedule,
)
from repro.chaos.shrink import shrink_schedule

__all__ = [
    "ALL_CRASH_POINTS",
    "FAMILIES",
    "FAULT_KINDS",
    "Fault",
    "Schedule",
    "generate_schedule",
    "ChaosResult",
    "ChaosRunner",
    "run_schedule",
    "OracleViolation",
    "check_cluster",
    "shrink_schedule",
]
