"""Fault schedules: seeded multi-fault plans with a JSON round trip.

A *schedule* is a small, replayable description of everything a chaos
run injects: timed node crashes, crash-point plans, network
degradation windows, FD heartbeat partitions, and *triggered* faults
that fire relative to recovery progress (kill the recovery coordinator
mid-recovery, crash a memory node while another node's recovery is in
flight). Schedules are generated deterministically from a seed, one of
five fault families per seed, and serialize to JSON so a failing
schedule can be committed as a regression artifact and replayed
bit-identically.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, fields, replace
from typing import List, Optional

from repro.litmus.runner import CRASH_POINTS
from repro.protocol.zoo import ZOO

__all__ = [
    "ALL_CRASH_POINTS",
    "FAMILIES",
    "FAULT_KINDS",
    "COMPUTE_NODES",
    "MEMORY_NODES",
    "Fault",
    "Schedule",
    "generate_schedule",
]

# Campaign topology: 3 compute x 2 memory keeps a quorum of traffic
# alive under any single-family schedule while still allowing two
# overlapping compute failures.
COMPUTE_NODES = 3
MEMORY_NODES = 2

# The litmus crash points plus the interrupt-resolution boundaries
# added for chaos (§3.2.2 x §3.2.5 — crashing while resolving an
# interrupted attempt). The litmus list itself is left unchanged so
# existing seeded litmus runs stay bit-identical.
RECOVERY_CRASH_POINTS = (
    "recover_interrupted",
    "recover_drained",
    "recover_undo_written",
)
ALL_CRASH_POINTS = tuple(CRASH_POINTS) + RECOVERY_CRASH_POINTS

# The five fault families of the campaign; seed % 5 selects one so any
# contiguous seed bank of >= 5 seeds spans all of them.
FAMILIES = (
    "cascade",  # cascading coordinator (compute) crashes
    "recovery_crash",  # the node performing log recovery dies mid-recovery
    "overlap",  # overlapping compute + memory failures
    "logserver",  # log-server loss around the logging window
    "fd_false_positive",  # heartbeat partition + loss spike
)

# Every ``Fault.kind``; ``ChaosRunner`` has one ``_arm_<kind>`` each.
FAULT_KINDS = (
    "crash_compute",
    "crash_memory",
    "restore_memory",
    "crash_point",
    "net_degrade",
    "fd_blackhole",
    "crash_recovery",
    "crash_memory_during_recovery",
)

_SCHEDULE_VERSION = 1


@dataclass
class Fault:
    """One injected fault.

    ``kind`` selects the interpretation of the other fields:

    * ``crash_compute`` / ``crash_memory`` — kill node ``node`` at
      virtual time ``at``.
    * ``restore_memory`` — stop-the-world re-replication of memory
      node ``node`` at ``at`` (§3.2.5).
    * ``crash_point`` — kill compute node ``node`` at the ``nth``
      invocation of protocol step ``point``.
    * ``net_degrade`` — from ``at`` for ``after`` seconds, set the
      fabric's loss probability to ``loss`` and jitter to ``jitter``.
    * ``fd_blackhole`` — from ``at`` for ``after`` seconds, drop
      compute node ``node``'s heartbeats at the failure detector (a
      deterministic FD false positive).
    * ``crash_recovery`` — once recovery for compute node ``node`` is
      in flight, wait ``after`` seconds, kill the recovery process,
      and re-trigger recovery ``restart_after`` seconds later (the
      recovery coordinator itself crash-restarting).
    * ``crash_memory_during_recovery`` — once recovery for compute
      node ``node`` is in flight, wait ``after`` seconds, then crash
      memory node ``memory_node`` (a log/fence server dying under the
      recovery that is using it).
    """

    kind: str
    at: float = 0.0
    node: int = 0
    point: Optional[str] = None
    nth: int = 1
    after: float = 0.0
    loss: float = 0.0
    jitter: float = 0.0
    memory_node: Optional[int] = None
    restart_after: float = 0.0


@dataclass
class Schedule:
    """A replayable chaos plan: topology seed, family, and faults."""

    seed: int
    family: str
    protocol: str = "pandora"
    duration: float = 12e-3
    keys: int = 24
    # Whether the cluster's FD re-declares a dead node whose recovery
    # died mid-flight (FailureDetector.redetect_interval). On by
    # default — it is how a killed recovery heals; artifacts that pin
    # a bug *in* the re-started recovery path set it to False so the
    # failure is isolated from the self-healing.
    fd_redetect: bool = True
    faults: List[Fault] = field(default_factory=list)

    # -- mutation (shrinker) -----------------------------------------------

    def without_fault(self, index: int) -> "Schedule":
        """A copy with fault *index* removed."""
        faults = [replace(fault) for i, fault in enumerate(self.faults) if i != index]
        return replace(self, faults=faults)

    def with_fault(self, index: int, **changes) -> "Schedule":
        """A copy with fields of fault *index* replaced."""
        faults = [
            replace(fault, **(changes if i == index else {}))
            for i, fault in enumerate(self.faults)
        ]
        return replace(self, faults=faults)

    # -- JSON round trip ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": _SCHEDULE_VERSION,
            "seed": self.seed,
            "family": self.family,
            "protocol": self.protocol,
            "duration": self.duration,
            "keys": self.keys,
            "fd_redetect": self.fd_redetect,
            "faults": [asdict(fault) for fault in self.faults],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        """Rebuild a schedule from its JSON form. Artifacts are edited
        by hand and passed around, so whatever is wrong with one is
        named in a single ValueError."""
        data = dict(_json_object("schedule", data))
        version = data.pop("version", _SCHEDULE_VERSION)
        if version != _SCHEDULE_VERSION:
            raise ValueError(
                f"unsupported schedule version {version!r} "
                f"(this build reads version {_SCHEDULE_VERSION})"
            )
        _keywords("schedule", cls, data, required=("seed", "family"))
        faults = []
        for index, fault in enumerate(data.pop("faults", [])):
            fault = _keywords(f"fault {index}", Fault, fault, required=("kind",))
            if fault["kind"] not in FAULT_KINDS:
                raise ValueError(
                    f"fault {index}: unknown kind {fault['kind']!r}; "
                    f"expected one of {', '.join(FAULT_KINDS)}"
                )
            faults.append(Fault(**fault))
        # Artifacts predating ``fd_redetect`` replay with its default,
        # re-detection on (the campaign default they were minimized
        # under... almost: pre-redetect artifacts reproduce bugs whose
        # fixes hold with or without it, see
        # tests/chaos/test_regressions.py).
        schedule = cls(faults=faults, **data)
        if schedule.protocol not in ZOO:
            raise ValueError(
                f"unknown protocol {schedule.protocol!r}; "
                f"expected one of {', '.join(ZOO)}"
            )
        return schedule

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return cls.from_dict(json.loads(text))


def _json_object(what: str, data) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(data).__name__}")
    return data


def _keywords(what: str, cls, data, required) -> dict:
    """*data* as keyword arguments for dataclass *cls*, or a ValueError
    naming the offending key."""
    known = [f.name for f in fields(cls)]
    for key in _json_object(what, data):
        if key not in known:
            raise ValueError(
                f"{what}: unknown key {key!r}; expected some of {', '.join(known)}"
            )
    for key in required:
        if key not in data:
            raise ValueError(f"{what}: missing key {key!r}")
    return data


# -- generation ---------------------------------------------------------------


def _family_faults(family: str, rng: random.Random) -> List[Fault]:
    if family == "cascade":
        # Two compute nodes die close together: the second crash lands
        # while the first recovery may still be in flight, and the
        # survivors absorb two stray-lock notifications back to back.
        first, second = rng.sample(range(COMPUTE_NODES), 2)
        t1 = rng.uniform(2e-3, 4e-3)
        faults = [
            Fault(kind="crash_compute", node=first, at=t1),
            Fault(
                kind="crash_compute",
                node=second,
                at=t1 + rng.uniform(0.05e-3, 1.5e-3),
            ),
        ]
        if rng.random() < 0.5:
            third = next(
                n for n in range(COMPUTE_NODES) if n not in (first, second)
            )
            faults.append(
                Fault(
                    kind="crash_point",
                    node=third,
                    point=rng.choice(CRASH_POINTS),
                    nth=rng.randint(1, 12),
                )
            )
        return faults

    if family == "recovery_crash":
        # The recovery coordinator dies while recovering a crashed
        # node, restarts, and runs recovery over from scratch — every
        # step must be idempotent (§3.2.3).
        victim = rng.randrange(COMPUTE_NODES)
        return [
            Fault(kind="crash_compute", node=victim, at=rng.uniform(2e-3, 4e-3)),
            Fault(
                kind="crash_recovery",
                node=victim,
                # A compute recovery lasts ~30us of virtual time
                # (fence RPCs + f+1 log reads + truncation); the kill
                # delay must land inside that window.
                after=rng.uniform(2e-6, 28e-6),
                restart_after=rng.uniform(0.3e-3, 1e-3),
            ),
        ]

    if family == "overlap":
        # A compute node and a memory node fail in overlapping windows;
        # half the time the memory crash is *triggered* to land inside
        # the compute recovery (the fence/log-read window).
        victim = rng.randrange(COMPUTE_NODES)
        memory = rng.randrange(MEMORY_NODES)
        t1 = rng.uniform(2e-3, 4e-3)
        if rng.random() < 0.5:
            faults = [
                Fault(kind="crash_compute", node=victim, at=t1),
                Fault(
                    kind="crash_memory_during_recovery",
                    node=victim,
                    memory_node=memory,
                    after=rng.uniform(0.0, 25e-6),
                ),
            ]
        else:
            faults = [
                Fault(kind="crash_compute", node=victim, at=t1),
                Fault(
                    kind="crash_memory",
                    node=memory,
                    at=t1 + rng.uniform(-0.5e-3, 0.5e-3),
                ),
            ]
        faults.append(
            Fault(kind="restore_memory", node=memory, at=t1 + rng.uniform(4e-3, 6e-3))
        )
        return faults

    if family == "logserver":
        # A coordinator dies with valid log records outstanding, and a
        # log server holding one of the copies goes down around the
        # same time — recovery must be judged by the survivors and
        # restore must not resurrect the stale copies.
        victim = rng.randrange(COMPUTE_NODES)
        memory = rng.randrange(MEMORY_NODES)
        t1 = rng.uniform(2e-3, 4e-3)
        return [
            Fault(
                kind="crash_point",
                node=victim,
                point=rng.choice(("log_posted", "decision", "commit_posted")),
                nth=rng.randint(1, 8),
            ),
            Fault(kind="crash_memory", node=memory, at=t1),
            Fault(kind="restore_memory", node=memory, at=t1 + rng.uniform(4e-3, 6e-3)),
        ]

    if family == "fd_false_positive":
        # A healthy node's heartbeats are partitioned away until the
        # detector declares it failed (Cor1 must make this safe), with
        # a loss/jitter spike stressing everything else in parallel.
        victim = rng.randrange(COMPUTE_NODES)
        t1 = rng.uniform(1.5e-3, 3e-3)
        faults = [
            Fault(
                kind="fd_blackhole",
                node=victim,
                at=t1,
                after=rng.uniform(2e-3, 3e-3),
            )
        ]
        if rng.random() < 0.6:
            faults.append(
                Fault(
                    kind="net_degrade",
                    at=t1 + rng.uniform(-1e-3, 1e-3),
                    after=rng.uniform(1e-3, 3e-3),
                    loss=rng.uniform(0.2, 0.6),
                    jitter=rng.uniform(0.5e-6, 3e-6),
                )
            )
        return faults

    raise ValueError(f"unknown fault family {family!r}")


def generate_schedule(seed: int, protocol: str = "pandora") -> Schedule:
    """Deterministically generate one schedule for *seed*.

    ``seed % 5`` selects the family, so a contiguous seed bank covers
    all five. Every schedule additionally carries one crash-point
    fault cycling through :data:`ALL_CRASH_POINTS` (including the
    interrupt-resolution points), so a bank of
    ``len(ALL_CRASH_POINTS)`` seeds exercises every protocol boundary.
    """
    family = FAMILIES[seed % len(FAMILIES)]
    rng = random.Random(0x9E3779B1 * (seed + 1))
    faults = _family_faults(family, rng)
    extra_point = ALL_CRASH_POINTS[seed % len(ALL_CRASH_POINTS)]
    faults.append(
        Fault(
            kind="crash_point",
            node=rng.randrange(COMPUTE_NODES),
            point=extra_point,
            nth=rng.randint(1, 10),
        )
    )
    return Schedule(seed=seed, family=family, protocol=protocol, faults=faults)
