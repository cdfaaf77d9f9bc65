"""End-of-run consistency oracle for chaos campaigns.

After a schedule runs and the cluster quiesces (no traffic, no
recovery in flight), these invariants must hold regardless of how many
faults overlapped:

* **CHAOS-REPLICA** — every live replica of every object agrees on
  (version, value, present): log recovery / interrupt resolution left
  no half-applied write-set behind (Cor2/Cor3).
* **CHAOS-DURABLE** — no committed transaction's write was lost: the
  final version of each object on every live replica is at least the
  highest version installed by a client-acknowledged commit.
* **CHAOS-LOCK** — no leaked locks: a locked slot after quiescence is
  legal only under PILL and only when its owner is a failed
  coordinator id (a NotLogged-Stray lock awaiting lazy stealing,
  §3.1.2); anything else is a lock that survived recovery.
* **CHAOS-LOG** — log-truncation held: no valid log record remains
  for a failed coordinator id (recovery truncates before notifying,
  §3.2.3), and none for a live coordinator either (commit/abort
  invalidate their records).
* **CHAOS-BITSET** — failed-id propagation: every live, unfenced
  compute node's failed-ids bitset contains every failed id, and no
  live coordinator runs under an id marked failed.
* **CHAOS-RECYCLE** — recycler hygiene: no id is simultaneously
  failed and recycled, and no lock is owned by a recycled id.
* **CHAOS-SERIAL** — the committed history (client-acknowledged
  transactions) is strictly serializable.
* **CHAOS-SANITIZE** — the PILL sanitizer recorded no protocol
  violations (only checked when the run wired a sanitizer in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.litmus.checker import SerializabilityChecker
from repro.protocol.locks import is_locked, owner_of

__all__ = ["OracleViolation", "check_cluster"]


@dataclass
class OracleViolation:
    """One invariant violation found after quiescence."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.detail}"


def _live_replicas(cluster, table_id: int, slot: int) -> List[int]:
    placement = cluster.placement
    down = placement.down_nodes
    return [
        node_id
        for node_id in placement.replicas(table_id, slot)
        if node_id not in down and cluster.memory_nodes[node_id].alive
    ]


def _eligible_compute_nodes(cluster) -> List:
    """Live compute nodes that are full cluster members.

    A falsely-suspected node that is alive but fenced (links revoked,
    ids marked failed) is *not* a member — it can never touch memory
    again and is waiting to be crash-restarted.
    """
    nodes = []
    for node in cluster.compute_nodes.values():
        if not node.alive or node.fenced:
            continue
        revoked = any(
            memory.alive and memory.is_revoked(node.node_id)
            for memory in cluster.memory_nodes.values()
        )
        if revoked:
            continue
        nodes.append(node)
    return nodes


def check_cluster(cluster, history: Optional[list] = None) -> List[OracleViolation]:
    """Run every invariant against a quiesced cluster."""
    violations: List[OracleViolation] = []
    # Owner-attributable lock words (PILL proper, and vote1pc's PILL
    # words): a dead owner's lock is a stealable stray, not a leak.
    pill = cluster.protocol.lock.pill
    failed = cluster.id_allocator.failed
    recycled = set(cluster.id_allocator.recycled_ids)

    # -- replica agreement + leaked locks + recycled-lock scan -------------
    for spec in cluster.catalog.tables.values():
        table_id = spec.table_id
        slot_count = cluster.catalog.key_count(table_id)
        for slot in range(slot_count):
            replicas = _live_replicas(cluster, table_id, slot)
            states = []
            for node_id in replicas:
                obj = cluster.memory_nodes[node_id].slot(table_id, slot)
                states.append((node_id, obj.version, obj.value, obj.present))
                if is_locked(obj.lock):
                    owner = owner_of(obj.lock)
                    if owner in recycled:
                        violations.append(
                            OracleViolation(
                                "CHAOS-RECYCLE",
                                f"lock on m{node_id} {table_id}:{slot} owned by "
                                f"recycled id {owner}",
                            )
                        )
                    elif not (pill and owner in failed):
                        violations.append(
                            OracleViolation(
                                "CHAOS-LOCK",
                                f"leaked lock on m{node_id} {table_id}:{slot} "
                                f"owner={owner} (not a stealable stray)",
                            )
                        )
            if len(states) > 1:
                _, version0, value0, present0 = states[0]
                for node_id, version, value, present in states[1:]:
                    if (version, value, present) != (version0, value0, present0):
                        violations.append(
                            OracleViolation(
                                "CHAOS-REPLICA",
                                f"replica divergence {table_id}:{slot}: "
                                f"m{states[0][0]}=(v{version0},{value0!r},{present0}) "
                                f"vs m{node_id}=(v{version},{value!r},{present})",
                            )
                        )
                        break

    # -- durability of acknowledged commits --------------------------------
    if history:
        committed_max: Dict[Tuple[int, int], int] = {}
        for _txn_id, _time, _reads, _rmw, writes in history:
            for address, version in writes.items():
                if version > committed_max.get(address, -1):
                    committed_max[address] = version
        for (table_id, slot), version in committed_max.items():
            for node_id in _live_replicas(cluster, table_id, slot):
                obj = cluster.memory_nodes[node_id].slot(table_id, slot)
                if obj.version < version:
                    violations.append(
                        OracleViolation(
                            "CHAOS-DURABLE",
                            f"committed v{version} of {table_id}:{slot} lost on "
                            f"m{node_id} (final v{obj.version})",
                        )
                    )

    # -- log-truncation idempotence ----------------------------------------
    live_coord_ids = {
        coordinator.coord_id
        for node in cluster.compute_nodes.values()
        if node.alive
        for coordinator in node.coordinators
    }
    for memory in cluster.memory_nodes.values():
        if not memory.alive:
            continue
        for coord_id, region in memory.log_regions.items():
            valid = region.valid_records()
            if not valid:
                continue
            if coord_id in failed:
                violations.append(
                    OracleViolation(
                        "CHAOS-LOG",
                        f"{len(valid)} valid record(s) for failed coord "
                        f"{coord_id} on m{memory.node_id} (truncation miss)",
                    )
                )
            elif coord_id in live_coord_ids:
                violations.append(
                    OracleViolation(
                        "CHAOS-LOG",
                        f"{len(valid)} orphan record(s) for live coord "
                        f"{coord_id} on m{memory.node_id}",
                    )
                )

    # -- failed-id bitset propagation --------------------------------------
    failed_ids = set(cluster.id_allocator.failed_ids())
    for node in _eligible_compute_nodes(cluster):
        missing = [fid for fid in failed_ids if fid not in node.failed_ids]
        if missing:
            violations.append(
                OracleViolation(
                    "CHAOS-BITSET",
                    f"c{node.node_id} missing failed ids {missing[:8]}",
                )
            )
        stale = [
            coordinator.coord_id
            for coordinator in node.coordinators
            if coordinator.coord_id in failed
        ]
        if stale:
            violations.append(
                OracleViolation(
                    "CHAOS-BITSET",
                    f"c{node.node_id} runs live coordinators under failed "
                    f"ids {stale[:8]}",
                )
            )

    # -- recycler hygiene ---------------------------------------------------
    both = [fid for fid in recycled if fid in failed]
    if both:
        violations.append(
            OracleViolation(
                "CHAOS-RECYCLE",
                f"ids simultaneously failed and recycled: {both[:8]}",
            )
        )

    # -- history serializability --------------------------------------------
    if history:
        checker = SerializabilityChecker(history)
        if not checker.is_serializable():
            violations.append(
                OracleViolation(
                    "CHAOS-SERIAL",
                    f"committed history has a cycle: {checker.find_cycle()[:6]}",
                )
            )

    # -- sanitizer ----------------------------------------------------------
    sanitizer = cluster.sanitizer
    if sanitizer is not None:
        for violation in sanitizer.violations:
            violations.append(
                OracleViolation(
                    "CHAOS-SANITIZE", f"[{violation.code}] {violation.message}"
                )
            )

    return violations
