"""Benchmark harness: experiment runners for every table and figure."""

from repro.bench.harness import (
    FailoverResult,
    RecoveryLatencyResult,
    SteadyStateResult,
    default_config,
    run_failover,
    run_mttf,
    run_recovery_latency,
    run_steady_state,
)
from repro.bench.kernelperf import (
    DEFAULT_FLEETS,
    FleetSpec,
    KernelPerfResult,
    run_fleet,
    run_suite,
    suite_payload,
)
from repro.bench.report import delta, format_series, format_table, gate, write_report

__all__ = [
    "DEFAULT_FLEETS",
    "FailoverResult",
    "FleetSpec",
    "KernelPerfResult",
    "RecoveryLatencyResult",
    "SteadyStateResult",
    "default_config",
    "delta",
    "format_series",
    "format_table",
    "gate",
    "run_failover",
    "run_fleet",
    "run_mttf",
    "run_recovery_latency",
    "run_steady_state",
    "run_suite",
    "suite_payload",
    "write_report",
]
