"""OLTP workloads: TPC-C, TATP, SmallBank, the microbenchmark, and the
one-table workload scripted runs preload."""

from repro.workloads.base import Workload
from repro.workloads.keyvalue import KeyValueTable
from repro.workloads.microbench import MicroBenchmark
from repro.workloads.smallbank import SmallBank
from repro.workloads.tatp import Tatp
from repro.workloads.tpcc import TpcC

__all__ = ["KeyValueTable", "MicroBenchmark", "SmallBank", "Tatp", "TpcC", "Workload"]
