"""Per-transaction flight recorder: verb-level attempt accounting.

The tracer (:mod:`repro.obs.trace`) records *what happened when*; the
flight recorder records *who paid for it*. Every attempt a protocol
engine runs becomes one :class:`FlightAttempt` carrying the identity
``(coordinator, txn_id, attempt)``, its per-phase time segments, every
RDMA verb it posted (tagged with the phase that posted it and, for
signaled verbs, the completion latency), and its lock events
(conflicts, PILL steals). The report layer (:mod:`repro.obs.report`)
derives the paper's quantitative claims from these records — §4's
"f+1 log writes per *transaction*, not per *object*" becomes a direct
count over ``write_log`` verbs per committed attempt.

**Attribution model.** The simulator is single-threaded and verbs are
posted synchronously between yields, so a per-recorder *ambient focus*
— "verbs posted right now belong to attempt X in phase P" — is exact
as long as every verb-posting segment re-asserts its focus after a
scheduling point. The engine does exactly that (one no-op-able
``trace.focus(phase)`` call per posting site); posts that arrive with
no matching focus (recovery-manager traffic, coordinator registration,
a stale focus from another compute node) are counted per-verb-kind in
``unattributed`` rather than misfiled: a post is accepted only when
the focused attempt is open *and* lives on the posting compute node.

**Never perturbs.** Recording is append-only against explicit virtual
timestamps; nothing is scheduled on the kernel. The disabled path is
the :data:`NULL_FLIGHT` singleton (same no-op-object discipline as
``NullObs``), so a seeded run is bit-identical with the recorder on,
off, or absent.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Optional, Tuple

__all__ = [
    "FlightAttempt",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
]

# A verb entry is a mutable list so the completion latency can be
# filled in later without a second lookup:
# [kind, memory node, phase, post ts, latency (-1 = unsignaled/lost), ok]
VerbEntry = List[Any]

# Latency placeholder for verbs whose completion never reported back
# (unsignaled posts, or the attempt's node died first).
UNSIGNALED = -1.0


class FlightAttempt:
    """One protocol-engine attempt: identity, phases, verbs, locks."""

    __slots__ = (
        "protocol",
        "node_id",
        "coord_id",
        "txn_id",
        "attempt",
        "start",
        "end",
        "outcome",
        "writes",
        "phase",
        "phases",
        "verbs",
        "locks",
        "open",
    )

    def __init__(
        self,
        protocol: str,
        node_id: int,
        coord_id: int,
        txn_id: int,
        attempt: int,
        start: float,
    ) -> None:
        self.protocol = protocol
        self.node_id = node_id
        self.coord_id = coord_id
        self.txn_id = txn_id
        self.attempt = attempt
        self.start = start
        self.end = start
        # None while in flight; "commit", "abort:<reason>", ... when
        # closed. Attempts still open at report time were killed
        # mid-protocol (a crash) and are reported as "crashed".
        self.outcome: Optional[str] = None
        self.writes = 0
        self.phase = "execute"
        self.phases: List[Tuple[str, float, float]] = []
        self.verbs: List[VerbEntry] = []
        self.locks: List[Tuple[str, int, int, float]] = []
        self.open = True

    # -- derived views (used by the report layer and tests) ------------------

    def verb_counts(self) -> Dict[str, int]:
        """Posted-verb count by kind."""
        counts: Dict[str, int] = {}
        for entry in self.verbs:
            counts[entry[0]] = counts.get(entry[0], 0) + 1
        return counts

    def log_writes(self) -> int:
        """``write_log`` posts — the §4 accounting unit."""
        return sum(1 for entry in self.verbs if entry[0] == "write_log")

    def to_json(self) -> Dict[str, Any]:
        """JSONL-exportable dict (``ph: "flight"`` discriminates)."""
        return {
            "ph": "flight",
            "protocol": self.protocol,
            "node": self.node_id,
            "coord": self.coord_id,
            "txn": self.txn_id,
            "attempt": self.attempt,
            "start": self.start,
            "end": self.end,
            "outcome": self.outcome,
            "writes": self.writes,
            "phases": [list(segment) for segment in self.phases],
            "verbs": [list(entry) for entry in self.verbs],
            "locks": [list(event) for event in self.locks],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "FlightAttempt":
        """Rebuild an attempt from its :meth:`to_json` dict."""
        attempt = cls(
            payload["protocol"],
            payload["node"],
            payload["coord"],
            payload["txn"],
            payload["attempt"],
            payload["start"],
        )
        attempt.end = payload["end"]
        attempt.outcome = payload["outcome"]
        attempt.writes = payload["writes"]
        attempt.phases = [tuple(segment) for segment in payload["phases"]]
        attempt.verbs = [list(entry) for entry in payload["verbs"]]
        attempt.locks = [tuple(event) for event in payload["locks"]]
        attempt.open = payload["outcome"] is None
        return attempt


class FlightRecorder:
    """Collects :class:`FlightAttempt` records via ambient focus.

    ``max_flights`` bounds resident memory for long runs (the open-loop
    load engine records millions of attempts otherwise): when set, the
    oldest *closed* attempts are evicted as new ones begin, keeping at
    most ``max_flights`` resident. Open (in-flight) attempts are never
    evicted — a crash report must still see what was killed mid-air —
    and ``evicted`` counts what was dropped so report totals can say
    "of N attempts, M retained".
    """

    enabled = True

    __slots__ = ("attempts", "unattributed", "max_flights", "evicted", "_current")

    def __init__(self, max_flights: Optional[int] = None) -> None:
        if max_flights is not None and max_flights < 1:
            raise ValueError(f"max_flights must be >= 1, got {max_flights}")
        self.attempts: List[FlightAttempt] = []
        # Posts with no valid focus, counted per verb kind — nonzero
        # entries here are system traffic (recovery, registration),
        # not lost transaction verbs.
        self.unattributed: Dict[str, int] = {}
        self.max_flights = max_flights
        self.evicted = 0
        self._current: Optional[FlightAttempt] = None

    # -- attempt lifecycle (driven through TxnTrace) -------------------------

    def begin(
        self,
        protocol: str,
        node_id: int,
        coord_id: int,
        txn_id: int,
        attempt: int,
        now: float,
    ) -> FlightAttempt:
        """Open a record for one attempt and focus it (phase "execute")."""
        record = FlightAttempt(protocol, node_id, coord_id, txn_id, attempt, now)
        self.attempts.append(record)
        self._current = record
        if self.max_flights is not None and len(self.attempts) > self.max_flights:
            self._evict_closed()
        return record

    def _evict_closed(self) -> None:
        """Drop oldest closed attempts until back within ``max_flights``."""
        attempts = self.attempts
        index = 0
        while len(attempts) > self.max_flights and index < len(attempts):
            if attempts[index].open:
                index += 1
                continue
            del attempts[index]
            self.evicted += 1

    def focus(self, record: Optional[FlightAttempt], phase: Optional[str] = None) -> None:
        """Re-assert ambient attribution after a scheduling point."""
        if record is None or not record.open:
            return
        self._current = record
        if phase is not None:
            record.phase = phase

    def mark(
        self, record: Optional[FlightAttempt], name: str, start: float, end: float
    ) -> None:
        """Close one phase time segment on *record*."""
        if record is not None:
            record.phases.append((name, start, end))

    def close(
        self,
        record: Optional[FlightAttempt],
        outcome: str,
        now: float,
        writes: int = 0,
    ) -> None:
        """Seal the record (first close wins; later calls are ignored)."""
        if record is None or not record.open:
            return
        record.open = False
        record.outcome = outcome
        record.end = now
        record.writes = writes
        if self._current is record:
            self._current = None

    def on_lock(
        self,
        record: Optional[FlightAttempt],
        event: str,
        table_id: int,
        slot: int,
        now: float,
    ) -> None:
        """Record a lock event (conflict / steal / steal_lost / read_locked)."""
        if record is not None and record.open:
            record.locks.append((event, table_id, slot, now))

    # -- QP hooks (hot path: once per posted / completed verb) ---------------

    def on_post(
        self, kind: str, compute_id: int, node_id: int, now: float
    ) -> Optional[VerbEntry]:
        """Attribute one posted verb to the focused attempt.

        Returns the verb entry as a completion token, or None when no
        open attempt on *compute_id* holds the focus.
        """
        record = self._current
        if record is None or not record.open or record.node_id != compute_id:
            self.unattributed[kind] = self.unattributed.get(kind, 0) + 1
            return None
        entry: VerbEntry = [kind, node_id, record.phase, now, UNSIGNALED, True]
        record.verbs.append(entry)
        return entry

    def on_complete(
        self, token: Optional[VerbEntry], latency: float, ok: bool
    ) -> None:
        """Fill a posted verb's completion latency/status in place."""
        if token is not None:
            token[4] = latency
            token[5] = ok

    # -- queries / export ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.attempts)

    def closed(self) -> List[FlightAttempt]:
        """Attempts that ran to a decision (commit or abort)."""
        return [record for record in self.attempts if not record.open]

    def committed(self) -> List[FlightAttempt]:
        """Attempts that committed."""
        return [
            record
            for record in self.attempts
            if record.outcome is not None and record.outcome.startswith("commit")
        ]

    def export_jsonl(self, handle: IO[str]) -> None:
        """Append one JSON object per attempt to an open text handle."""
        for record in self.attempts:
            handle.write(json.dumps(record.to_json()))
            handle.write("\n")


class NullFlightRecorder:
    """Disabled flight recorder: every hook is a slotted no-op."""

    enabled = False

    __slots__ = ()
    attempts: List[FlightAttempt] = []
    unattributed: Dict[str, int] = {}
    max_flights: Optional[int] = None
    evicted = 0

    def begin(self, protocol, node_id, coord_id, txn_id, attempt, now):
        return None

    def focus(self, record, phase=None) -> None:
        pass

    def mark(self, record, name, start, end) -> None:
        pass

    def close(self, record, outcome, now, writes=0) -> None:
        pass

    def on_lock(self, record, event, table_id, slot, now) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def closed(self) -> List[FlightAttempt]:
        return []

    def committed(self) -> List[FlightAttempt]:
        return []

    def export_jsonl(self, handle) -> None:
        pass


NULL_FLIGHT = NullFlightRecorder()
