"""repro.analysis.protolint — protocol-discipline analyzer for engine code.

Every protocol bug shipped so far belongs to one family: a resource
acquired on one path is not released/drained/awaited on another — the
abort-path lock leak, the un-drained log acks in ``recover_interrupted``,
the ``_in_progress`` claim leaked on a mid-recovery kill. The chaos
campaign and PILL sanitizer find these *dynamically*, one schedule at a
time; protolint proves the disciplines on **all** paths of an engine in
milliseconds, the way the paper argues invariants per-phase rather than
per-execution.

It lowers each engine method to a generator-aware CFG
(:mod:`repro.analysis.cfg` — yields as suspension points with typed
exception resumption edges, ``GeneratorExit`` kill edges, ``finally``
duplication) and runs a may-dataflow over four facts:

* ``LOCKED`` — the attempt's write-set locks may be held,
* ``LOGU`` — posted log-write (undo record) acks may be un-drained,
* ``OBJU`` — posted object-write (apply/undo image) acks may be
  un-acked,
* ``CASP`` — a CAS lock-acquire is in flight with no log posted yet.

Rules
-----
PROTO001  every lock acquire reaches a release / invalidate-before-
          unlock / explicit recovery hand-off on every path, including
          abort and exception edges. Checked at protocol entry points
          (``run_attempt``, ``recover_interrupted``, spawned recovery
          generators). A ``GeneratorExit`` escape is the sanctioned
          hand-off: the coordinator is dead, so its lock words are
          stray and PILL-stealable / released by log recovery.
PROTO002  every posted log-write ack is awaited or drained before any
          lock release executes.
PROTO003  object-write (undo/apply image) acks are drained before
          release — same machinery as PROTO002, different verb class.
PROTO004  every ``self._cp("...")`` crash point declared by an engine
          is referenced by a chaos schedule, the litmus CRASH_POINTS
          list, or a test — and vice versa (cross-file check).
PROTO005  no yield between a CAS lock-acquire and the corresponding
          log post unless an interrupt handler is registered: the
          ``RdmaError`` must be caught in-method or by every caller.
PROTO006  every ``_in_progress.add`` claim pairs with a spawned
          generator all of whose exits (normal, exception, *kill*)
          pass a ``_in_progress.discard``/``.pop`` — the PR 4 claim
          leak, as a type.
PROTO008  suppression hygiene: unknown rule codes and stale
          suppressions are themselves findings (not suppressible).

Scope and contracts
-------------------
The analysis is intra-procedural with bottom-up function summaries for
intra-class ``self._x()`` calls; entry states come from an explicit
contract table (``CONTRACTS``) mirroring the engine's documented
preconditions (e.g. ``_commit`` runs after the decision point drained
the log acks; ``_abort`` owns draining them itself). A lock
strategy's ``acquire`` / ``_take`` transfer lock ownership to the
caller's write-set (``intent.locked``), whose release discipline is
checked at the entry points — so they are not themselves PROTO001
subjects (they are the PROTO005 subjects instead). ``AssertionError``
is excluded from summaries: engine asserts are oracle checks, not
protocol edges.
Cross-method OBJU propagation on exception edges is out of scope (no
interrupt reaches an attempt once ``_commit`` has updated every
replica and cleared ``current_tx``; the apply/interrupt race before
that is covered dynamically by the PILL sanitizer).

Suppressions: ``# protolint: disable=PROTO001 -- reason`` on the
flagged line or the line above (simlint only honours same-line).
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .cfg import (
    CFG,
    CFGNode,
    build_cfg,
    dotted_name,
    stmt_yield_values,
)

__all__ = [
    "Finding",
    "RULES",
    "run_protolint",
    "render_text",
    "render_json",
    "DEFAULT_ENGINE_GLOBS",
]

RULES: Dict[str, str] = {
    "PROTO001": "lock acquire must reach release or recovery hand-off on every path",
    "PROTO002": "posted log-write acks must be drained before locks are released",
    "PROTO003": "object-write (undo/apply image) acks must be drained before release",
    "PROTO004": "declared crash points and chaos/test references must match",
    "PROTO005": "no unprotected yield between CAS-acquire and its log post",
    "PROTO006": "recovery claims must be released on every exit, including kills",
    "PROTO008": "suppression hygiene (unknown codes, stale suppressions)",
}

DEFAULT_ENGINE_GLOBS = ("src/repro/protocol/*.py", "src/repro/recovery/*.py")

# Exceptions whose engine-level escape is sanctioned (GeneratorExit:
# the process was killed, PILL/log recovery owns the locks) or not a
# protocol edge (AssertionError: oracle check on impossible states).
_EXEMPT_ESCAPES = frozenset({"GeneratorExit"})
_ORACLE_EXCS = frozenset({"AssertionError"})

_FALLIBLE = ("RdmaError", "LinkRevokedError", "GeneratorExit")
_KILL_ONLY = ("GeneratorExit",)
_APP_LOGIC_RAISES = (
    "Exception", "TxnAbort", "RdmaError", "LinkRevokedError", "GeneratorExit",
)

_SUPPRESS_RE = re.compile(
    r"#\s*protolint:\s*disable(?:=([A-Z0-9,\s]+))?(?:\s*--\s*(.*))?"
)


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


# ---------------------------------------------------------------------------
# Per-method source model: provenance, effects, contracts
# ---------------------------------------------------------------------------

# Container/value provenance tags.
_TAG_CRASH_POINT = "crash_point"
_TAG_PROC = "proc"
_TAG_LOG_ACK = "log_ack"
_TAG_OBJ_ACK = "obj_ack"
_TAG_APP_LOGIC = "app_logic"


@dataclass
class Contract:
    """Documented entry-state preconditions for one engine method."""

    entry_facts: FrozenSet[str] = frozenset()
    entry_point: bool = False


CONTRACTS: Dict[str, Contract] = {
    "run_attempt": Contract(entry_point=True),
    "recover_interrupted": Contract(
        entry_facts=frozenset({"LOCKED", "LOGU"}), entry_point=True
    ),
    # Called only from run_attempt after the decision point drained
    # the log acks (section 3.1.5 lock-to-log order).
    "_commit": Contract(entry_facts=frozenset({"LOCKED"})),
    # The abort path owns draining the acks itself.
    "_abort": Contract(entry_facts=frozenset({"LOCKED", "LOGU"})),
    "_best_effort_release": Contract(entry_facts=frozenset({"LOCKED"})),
    # The spawned recovery runner: a root with no caller.
    "_run": Contract(entry_point=True),
}


@dataclass
class Effects:
    """Head-scope effects of one CFG node's statement."""

    establishes_lock: bool = False
    releases_all: bool = False
    release_loop: bool = False  # For subtree releases -> clear on "false"
    release_site: bool = False
    release_direct: bool = False  # release verb posted by this method
    # Callees that release LOCKED on the caller's behalf; PROTO002/003
    # exempt them when their own summary shows they drain acks first.
    release_callees: List[str] = field(default_factory=list)
    posts_log: bool = False
    posts_obj: bool = False
    drains_log: bool = False
    drains_obj: bool = False
    loop_over_log: bool = False
    loop_over_obj: bool = False
    test_log: bool = False
    test_obj: bool = False
    cas_acquire: bool = False
    clears_casp: bool = False
    adds_claim: bool = False
    discards_claim: bool = False
    callees: List[str] = field(default_factory=list)  # executed self-calls


@dataclass
class Summary:
    """Bottom-up summary of one method, under its contract entry."""

    raises: Set[str] = field(default_factory=set)
    is_generator: bool = False
    # fact -> possibly active at normal exit
    at_exit: Dict[str, bool] = field(default_factory=dict)
    # fact -> {exc: possibly active when exc escapes}
    on_raise: Dict[str, Dict[str, bool]] = field(default_factory=dict)
    touches: Set[str] = field(default_factory=set)

    def fact_on_raise(self, fact: str, exc: str) -> bool:
        return self.on_raise.get(fact, {}).get(exc, False)


def _head_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """The expressions evaluated by the node itself (not its body)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, ast.For):
        return [stmt.iter]
    if isinstance(stmt, ast.With):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def _calls_in(tree: ast.AST) -> List[ast.Call]:
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)]


def _is_release_call(call: ast.Call) -> bool:
    name = dotted_name(call.func) or ""
    if name.endswith(".write_lock") and len(call.args) >= 4:
        arg = call.args[3]
        return isinstance(arg, ast.Constant) and arg.value == 0
    if name.endswith(".cas_lock") and len(call.args) >= 5:
        arg = call.args[4]
        return isinstance(arg, ast.Constant) and arg.value == 0
    return False


def _is_cas_acquire(call: ast.Call) -> bool:
    name = dotted_name(call.func) or ""
    if not name.endswith(".cas_lock") or len(call.args) < 5:
        return False
    arg = call.args[4]
    return not (isinstance(arg, ast.Constant) and arg.value == 0)


def _self_call_name(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func)
    if name and name.startswith("self.") and name.count(".") == 1:
        return name.split(".", 1)[1]
    return None


class MethodModel:
    """One analyzed function: AST + provenance + a CFG + effects."""

    def __init__(self, func: ast.FunctionDef, class_name: str) -> None:
        self.func = func
        self.class_name = class_name
        self.name = func.name
        self.params = {
            arg.arg for arg in func.args.args + func.args.kwonlyargs
        }
        self.is_generator = any(
            stmt_yield_values(stmt)
            for node in ast.walk(func)
            if isinstance(node, ast.stmt)
            for stmt in [node]
        )
        self.provenance: Dict[str, Set[str]] = {}
        self._collect_provenance()
        self.contract = CONTRACTS.get(self.name, Contract())
        self.cfg: Optional[CFG] = None
        self.effects: Dict[int, Effects] = {}

    # -- provenance -----------------------------------------------------------

    def _tag(self, name: str, tag: str) -> None:
        self.provenance.setdefault(name, set()).add(tag)

    def _value_tags(self, value: ast.AST) -> Set[str]:
        tags: Set[str] = set()
        if isinstance(value, ast.Call):
            name = dotted_name(value.func) or ""
            if name.endswith("._cp"):
                tags.add(_TAG_CRASH_POINT)
            elif name.endswith(".process"):
                tags.add(_TAG_PROC)
            elif name.endswith(".write_log"):
                tags.add(_TAG_LOG_ACK)
            elif name.endswith(".write_object"):
                tags.add(_TAG_OBJ_ACK)
            elif name in self.params:
                tags.add(_TAG_APP_LOGIC)
        elif isinstance(value, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            for gen in value.generators:
                iter_name = dotted_name(gen.iter) or ""
                if iter_name.endswith("lock_procs"):
                    tags.add(_TAG_PROC)
            if isinstance(value.elt, ast.Call):
                tags |= self._value_tags(value.elt)
        return tags

    def _collect_provenance(self) -> None:
        for node in ast.walk(self.func):
            if isinstance(node, ast.Assign):
                tags = self._value_tags(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name) and tags:
                        for tag in tags:
                            self._tag(target.id, tag)
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                if name.endswith(".append") and node.args:
                    owner = name.rsplit(".", 1)[0]
                    if "." not in owner:
                        tags = self._value_tags(node.args[0])
                        for tag in tags & {_TAG_LOG_ACK, _TAG_OBJ_ACK}:
                            self._tag(owner, tag)

    def _container_tags(self, expr: ast.AST) -> Set[str]:
        """Ack-container classification of a reference expression."""
        tags: Set[str] = set()
        name = dotted_name(expr)
        if name is not None:
            if name.endswith("log_acks"):
                tags.add(_TAG_LOG_ACK)
            base = name.split(".")[0]
            if "." not in name:
                tags |= self.provenance.get(base, set())
        return tags

    def _expr_refs_container(self, expr: ast.AST, tag: str) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, (ast.Name, ast.Attribute)):
                if tag in self._container_tags(node):
                    return True
        return False

    # -- yield classification -------------------------------------------------

    def yield_raises(
        self, stmt: ast.stmt, summaries: Dict[str, Summary]
    ) -> Set[str]:
        raises: Set[str] = set()
        for expr in stmt_yield_values(stmt):
            raises |= self._one_yield_raises(expr, summaries)
        return raises

    def _one_yield_raises(
        self, expr: ast.expr, summaries: Dict[str, Summary]
    ) -> Set[str]:
        value = expr.value
        if isinstance(expr, ast.YieldFrom):
            if isinstance(value, ast.Call):
                callee = _self_call_name(value)
                if callee is not None and callee in summaries:
                    return set(summaries[callee].raises) | {"GeneratorExit"}
                return set(_FALLIBLE)
            if isinstance(value, ast.Name):
                tags = self.provenance.get(value.id, set())
                if _TAG_APP_LOGIC in tags:
                    return set(_APP_LOGIC_RAISES)
            return set(_FALLIBLE)
        # Plain `yield <expr>`.
        if value is None:
            return set(_KILL_ONLY)
        if isinstance(value, ast.Name):
            tags = self.provenance.get(value.id, set())
            if tags and tags <= {_TAG_CRASH_POINT}:
                return set(_KILL_ONLY)
            if tags and tags <= {_TAG_PROC}:
                return set(_KILL_ONLY)
        if isinstance(value, ast.Call):
            name = dotted_name(value.func) or ""
            if name.endswith(".timeout"):
                return set(_KILL_ONLY)
            if name.endswith(".all_of") and value.args:
                arg = value.args[0]
                if isinstance(arg, ast.Name):
                    tags = self.provenance.get(arg.id, set())
                    if tags and tags <= {_TAG_PROC}:
                        return set(_KILL_ONLY)
                if isinstance(arg, (ast.ListComp, ast.GeneratorExp)):
                    tags = self._value_tags(arg)
                    if tags and tags <= {_TAG_PROC}:
                        return set(_KILL_ONLY)
        return set(_FALLIBLE)

    def raises_for(self, summaries: Dict[str, Summary]):
        """The ``raises_for`` callback handed to the CFG builder."""

        def _raises(stmt: ast.stmt) -> Iterable[str]:
            raises = self.yield_raises(stmt, summaries)
            # Synchronous raises from executed self-calls and from
            # calling application logic directly (non-generator logic
            # runs at call time).
            for expr in _head_exprs(stmt):
                for call in _calls_in(expr):
                    if any(
                        call is y.value
                        or (y.value is not None and call in ast.walk(y.value))
                        for y in stmt_yield_values(stmt)
                        if isinstance(y, ast.YieldFrom)
                    ):
                        continue  # handled via the yield-from summary
                    callee = _self_call_name(call)
                    if callee is not None and callee in summaries:
                        if not summaries[callee].is_generator:
                            raises |= summaries[callee].raises
                    elif (
                        isinstance(call.func, ast.Name)
                        and call.func.id in self.params
                    ):
                        raises |= set(_APP_LOGIC_RAISES) - {"GeneratorExit"}
            return sorted(raises)

        return _raises

    # -- effects --------------------------------------------------------------

    def _executed_callees(
        self, stmt: ast.stmt, summaries: Dict[str, Summary]
    ) -> List[str]:
        """Self-calls whose body runs at this node: plain calls to
        non-generators, and yield-from'd generator calls."""
        callees = []
        yielded_from = set()
        for y in stmt_yield_values(stmt):
            if isinstance(y, ast.YieldFrom) and isinstance(y.value, ast.Call):
                name = _self_call_name(y.value)
                if name is not None:
                    yielded_from.add(id(y.value))
                    if name in summaries:
                        callees.append(name)
        for expr in _head_exprs(stmt):
            for call in _calls_in(expr):
                if id(call) in yielded_from:
                    continue
                name = _self_call_name(call)
                if name in summaries and not summaries[name].is_generator:
                    callees.append(name)
        return callees

    def compute_effects(
        self, cfg: CFG, summaries: Dict[str, Summary]
    ) -> Dict[int, Effects]:
        effects: Dict[int, Effects] = {}
        for node in cfg.stmt_nodes():
            stmt = node.stmt
            if stmt is None or isinstance(stmt, ast.ExceptHandler):
                effects[node.node_id] = Effects()
                continue
            eff = Effects()
            head = _head_exprs(stmt)
            head_calls = [c for expr in head for c in _calls_in(expr)]
            for call in head_calls:
                name = dotted_name(call.func) or ""
                if _is_release_call(call):
                    eff.releases_all = True
                    eff.release_site = True
                    eff.release_direct = True
                if _is_cas_acquire(call):
                    eff.cas_acquire = True
                if name.endswith(".write_log"):
                    eff.posts_log = True
                    eff.clears_casp = True
                if name.endswith(".write_object"):
                    eff.posts_obj = True
                if "._in_progress.add" in name:
                    eff.adds_claim = True
                if (
                    "._in_progress.discard" in name
                    or "._in_progress.pop" in name
                ):
                    eff.discards_claim = True
                if isinstance(call.func, ast.Name) and call.func.id in self.params:
                    eff.establishes_lock = True  # app logic may spawn locks
            # Assignments to intent.lock_result resolve the acquire.
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    tname = dotted_name(target) or ""
                    if tname.endswith(".lock_result"):
                        eff.clears_casp = True
            # Executed intra-class callees.
            eff.callees = self._executed_callees(stmt, summaries)
            for callee in eff.callees:
                summary = summaries[callee]
                if callee == "_lock_barrier":
                    eff.establishes_lock = True
                if self._summary_releases(summary):
                    eff.release_site = True
                    eff.release_callees.append(callee)
            # yield-from of application logic.
            for y in stmt_yield_values(stmt):
                if isinstance(y, ast.YieldFrom) and isinstance(y.value, ast.Name):
                    if _TAG_APP_LOGIC in self.provenance.get(y.value.id, set()):
                        eff.establishes_lock = True
            # For-loop whose subtree releases: cleared once exhausted.
            if isinstance(stmt, ast.For):
                subtree_release = any(
                    _is_release_call(c) for c in _calls_in(stmt)
                ) or any(
                    summaries.get(name) is not None
                    and self._summary_releases(summaries[name])
                    for c in _calls_in(stmt)
                    for name in [_self_call_name(c)]
                    if name is not None and name in summaries
                    and not summaries[name].is_generator
                )
                if subtree_release:
                    eff.release_loop = True
                tags = self._container_tags(stmt.iter)
                eff.loop_over_log = _TAG_LOG_ACK in tags
                eff.loop_over_obj = _TAG_OBJ_ACK in tags
            if isinstance(stmt, (ast.If, ast.While)):
                test = stmt.test
                eff.test_log = self._expr_refs_container(test, _TAG_LOG_ACK)
                eff.test_obj = self._expr_refs_container(test, _TAG_OBJ_ACK)
            # Drains: a yield whose expression references an ack
            # container awaits (all of) it.
            for y in stmt_yield_values(stmt):
                if isinstance(y, ast.YieldFrom) or y.value is None:
                    continue
                if self._expr_refs_container(y.value, _TAG_LOG_ACK):
                    eff.drains_log = True
                if self._expr_refs_container(y.value, _TAG_OBJ_ACK):
                    eff.drains_obj = True
            effects[node.node_id] = eff
        return effects

    @staticmethod
    def _summary_releases(summary: Summary) -> bool:
        return "LOCKED" in summary.touches and not summary.at_exit.get(
            "LOCKED", True
        )


# ---------------------------------------------------------------------------
# May-dataflow over the CFG
# ---------------------------------------------------------------------------

# A state maps fact -> frozenset of origin lines (0 = held at entry by
# contract). An absent fact is inactive. Join = per-fact union.
State = Dict[str, FrozenSet[int]]

_NORMAL_LABELS = ("", "true", "false", "return")


def _join(into: State, other: State) -> bool:
    changed = False
    for fact, origins in other.items():
        have = into.get(fact)
        if have is None:
            into[fact] = origins
            changed = True
        elif not origins <= have:
            into[fact] = have | origins
            changed = True
    return changed


def _transfer(
    node: CFGNode,
    label: str,
    state: State,
    effects: Dict[int, Effects],
    summaries: Dict[str, Summary],
) -> State:
    eff = effects.get(node.node_id)
    if eff is None:
        return dict(state)
    out = dict(state)
    exc = label if label not in _NORMAL_LABELS else None

    def _clear(fact: str) -> None:
        out.pop(fact, None)

    def _set(fact: str) -> None:
        out[fact] = out.get(fact, frozenset()) | {node.lineno}

    # 1. clears
    if eff.releases_all:
        _clear("LOCKED")
    if label == "false" and eff.release_loop:
        _clear("LOCKED")
    if exc is None and eff.drains_log:
        _clear("LOGU")
    if exc is None and eff.drains_obj:
        _clear("OBJU")
    if label == "false" and (eff.loop_over_log or eff.test_log):
        _clear("LOGU")
    if label == "false" and (eff.loop_over_obj or eff.test_obj):
        _clear("OBJU")
    if eff.clears_casp:
        _clear("CASP")

    # 2. executed-callee transforms (facts the callee touches)
    for callee in eff.callees:
        summary = summaries[callee]
        for fact in ("LOCKED", "LOGU", "OBJU"):
            if fact not in summary.touches:
                continue
            if exc is None:
                active = summary.at_exit.get(fact, False)
            else:
                active = summary.fact_on_raise(fact, exc)
            if active:
                if fact not in out:
                    out[fact] = frozenset({node.lineno})
            else:
                _clear(fact)

    # 3. establishes / posts
    if eff.establishes_lock:
        _set("LOCKED")
    if eff.posts_log:
        _set("LOGU")
    if eff.posts_obj:
        _set("OBJU")
    if eff.cas_acquire:
        _set("CASP")
    return out


def _run_dataflow(
    cfg: CFG,
    effects: Dict[int, Effects],
    summaries: Dict[str, Summary],
    entry_facts: FrozenSet[str],
) -> Dict[int, State]:
    states: Dict[int, State] = {
        cfg.entry.node_id: {fact: frozenset({0}) for fact in entry_facts}
    }
    worklist = [cfg.entry]
    iterations = 0
    while worklist and iterations < 100_000:
        iterations += 1
        node = worklist.pop()
        in_state = states.get(node.node_id, {})
        for target, label in node.succs:
            out = _transfer(node, label, in_state, effects, summaries)
            have = states.get(target.node_id)
            if have is None:
                # First visit: record even an empty state so propagation
                # continues through fact-free regions of the graph.
                states[target.node_id] = out
                worklist.append(target)
            elif _join(have, out):
                worklist.append(target)
    return states


def _terminal_states(
    cfg: CFG,
    states: Dict[int, State],
    effects: Dict[int, Effects],
    summaries: Dict[str, Summary],
) -> List[Tuple[CFGNode, str, CFGNode, State]]:
    """(source node, edge label, terminal, state-on-edge) for every
    edge into exit / raise_exit / kill_exit."""
    rows = []
    terminals = {cfg.exit.node_id, cfg.raise_exit.node_id, cfg.kill_exit.node_id}
    for node in cfg.nodes:
        if node.node_id not in states:
            continue
        for target, label in node.succs:
            if target.node_id in terminals:
                out = _transfer(
                    node, label, states[node.node_id], effects, summaries
                )
                rows.append((node, label, target, out))
    return rows


def _summarize(
    model: MethodModel,
    cfg: CFG,
    states: Dict[int, State],
    effects: Dict[int, Effects],
    summaries: Dict[str, Summary],
) -> Summary:
    summary = Summary(is_generator=model.is_generator)
    touched: Set[str] = set()
    for eff in effects.values():
        if eff.establishes_lock or eff.releases_all or eff.release_loop:
            touched.add("LOCKED")
        if eff.posts_log or eff.drains_log or eff.loop_over_log or eff.test_log:
            touched.add("LOGU")
        if eff.posts_obj or eff.drains_obj or eff.loop_over_obj or eff.test_obj:
            touched.add("OBJU")
        for callee in eff.callees:
            touched |= summaries[callee].touches
    summary.touches = touched
    for fact in ("LOCKED", "LOGU", "OBJU"):
        summary.at_exit[fact] = False
        summary.on_raise[fact] = {}
    for node, label, terminal, state in _terminal_states(
        cfg, states, effects, summaries
    ):
        if terminal is cfg.exit:
            for fact in ("LOCKED", "LOGU", "OBJU"):
                if fact in state:
                    summary.at_exit[fact] = True
        else:
            exc = label if label not in _NORMAL_LABELS else "Exception"
            if exc in _ORACLE_EXCS:
                continue
            summary.raises.add(exc)
            for fact in ("LOCKED", "LOGU", "OBJU"):
                if fact in state:
                    summary.on_raise[fact][exc] = True
    return summary


# ---------------------------------------------------------------------------
# Violation path reconstruction (for PROTO001 anchors)
# ---------------------------------------------------------------------------

def _leak_paths(
    cfg: CFG,
    effects: Dict[int, Effects],
    summaries: Dict[str, Summary],
    entry_facts: FrozenSet[str],
) -> List[Tuple[CFGNode, str, List[Tuple[CFGNode, str]]]]:
    """Search (node, locked?) states for paths reaching exit/raise_exit
    with LOCKED held. Returns (terminal, escaping label, path) rows,
    one per distinct anchor."""
    start = (cfg.entry.node_id, "LOCKED" in entry_facts)
    parents: Dict[Tuple[int, bool], Tuple[Tuple[int, bool], CFGNode, str]] = {}
    seen = {start}
    queue = [start]
    by_id = {node.node_id: node for node in cfg.nodes}
    terminal_ids = {cfg.exit.node_id, cfg.raise_exit.node_id}
    hits: List[Tuple[CFGNode, str, Tuple[int, bool], CFGNode]] = []
    hit_keys: Set[Tuple[int, str]] = set()
    while queue:
        state = queue.pop(0)
        node_id, locked = state
        node = by_id[node_id]
        in_state: State = {"LOCKED": frozenset({0})} if locked else {}
        for target, label in node.succs:
            out = _transfer(node, label, in_state, effects, summaries)
            if target.node_id in terminal_ids:
                # Record EVERY escaping edge that still carries LOCKED —
                # distinct raise sites share the terminal node, so this
                # must not be gated on first-visit.
                key = (node.node_id, label)
                if (
                    "LOCKED" in out
                    and label != "GeneratorExit"
                    and key not in hit_keys
                ):
                    hit_keys.add(key)
                    hits.append((target, label, state, node))
                continue
            nxt = (target.node_id, "LOCKED" in out)
            if nxt not in seen:
                seen.add(nxt)
                parents[nxt] = (state, node, label)
                queue.append(nxt)
    rows = []
    for terminal, label, state, last in hits:
        path: List[Tuple[CFGNode, str]] = []
        cursor = state
        while cursor in parents:
            cursor, node, lab = parents[cursor]
            path.append((node, lab))
        path.reverse()
        path.append((last, label))
        rows.append((terminal, label, path))
    return rows


def _anchor(path: List[Tuple[CFGNode, str]]) -> Tuple[CFGNode, str]:
    """The node that last (re-)originated the escaping exception: the
    last node on the path whose outgoing label is an exception and
    differs from its incoming label."""
    best = path[-1] if path else (None, "")
    prev_label = ""
    for node, label in path:
        if label not in _NORMAL_LABELS and label != prev_label:
            best = (node, label)
        prev_label = label
    return best


# ---------------------------------------------------------------------------
# Per-file analysis driver
# ---------------------------------------------------------------------------

class ModuleAnalysis:
    """Analyze one source file: one scope per class — its own methods
    plus the ones it inherits from classes of the same file, so a
    ``self._x()`` call resolves to the override that class would run —
    and one for the module-level functions."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.tree = ast.parse(source, filename=path)
        classes = {
            node.name: node
            for node in self.tree.body
            if isinstance(node, ast.ClassDef)
        }

        def methods(cls: ast.ClassDef) -> Dict[str, MethodModel]:
            table: Dict[str, MethodModel] = {}
            for base in reversed(cls.bases):
                if isinstance(base, ast.Name) and base.id in classes:
                    table.update(methods(classes[base.id]))
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    table[item.name] = MethodModel(item, cls.name)
            return table

        functions = {
            node.name: MethodModel(node, "<module>")
            for node in self.tree.body
            if isinstance(node, ast.FunctionDef)
        }
        self.scopes = [
            ScopeAnalysis(path, models)
            for models in [*map(methods, classes.values()), functions]
        ]

    def analyze(self) -> None:
        for scope in self.scopes:
            scope.analyze()

    def findings(self) -> List[Finding]:
        # An inherited method is analyzed once per class that runs it.
        return list(dict.fromkeys(f for s in self.scopes for f in s.findings()))


class ScopeAnalysis:
    """The methods one class runs (or a file's plain functions)."""

    def __init__(self, path: str, models: Dict[str, MethodModel]) -> None:
        self.path = path
        self.models = models
        self.summaries: Dict[str, Summary] = {}
        self.states: Dict[str, Dict[int, State]] = {}
        self.cfgs: Dict[str, CFG] = {}

    def _topo_order(self) -> List[str]:
        """Callees before callers over the intra-module call graph."""
        calls: Dict[str, Set[str]] = {}
        for name, model in self.models.items():
            callees = set()
            for call in _calls_in(model.func):
                callee = _self_call_name(call)
                if callee is not None and callee in self.models:
                    callees.add(callee)
            calls[name] = callees - {name}
        order: List[str] = []
        visiting: Set[str] = set()
        done: Set[str] = set()

        def visit(name: str) -> None:
            if name in done or name in visiting:
                return  # cycles fall back to whatever summary exists
            visiting.add(name)
            for callee in sorted(calls.get(name, ())):
                visit(callee)
            visiting.discard(name)
            done.add(name)
            order.append(name)

        for name in sorted(self.models):
            visit(name)
        return order

    def analyze(self) -> None:
        for name in self._topo_order():
            model = self.models[name]
            cfg = build_cfg(model.func, model.raises_for(self.summaries))
            effects = model.compute_effects(cfg, self.summaries)
            states = _run_dataflow(
                cfg, effects, self.summaries, model.contract.entry_facts
            )
            self.cfgs[name] = cfg
            self.states[name] = states
            model.effects = effects
            model.cfg = cfg
            self.summaries[name] = _summarize(
                model, cfg, states, effects, self.summaries
            )

    # -- rules ---------------------------------------------------------------

    def findings(self) -> List[Finding]:
        out: List[Finding] = []
        for name, model in self.models.items():
            out.extend(self._check_proto001(name, model))
            out.extend(self._check_proto002_003(name, model))
            out.extend(self._check_proto005(name, model))
            out.extend(self._check_proto006(name, model))
        return out

    def _fmt_origins(self, origins: FrozenSet[int]) -> str:
        if origins == frozenset({0}):
            return "held at entry (contract)"
        lines = sorted(line for line in origins if line)
        entry = " and at entry (contract)" if 0 in origins else ""
        return "acquired/posted at line " + ", ".join(map(str, lines)) + entry

    def _check_proto001(self, name: str, model: MethodModel) -> List[Finding]:
        if not model.contract.entry_point:
            return []
        cfg = self.cfgs[name]
        rows = _leak_paths(
            cfg, model.effects, self.summaries, model.contract.entry_facts
        )
        found: List[Finding] = []
        seen: Set[Tuple[int, str]] = set()
        # Origin detail from the full dataflow (with origin lines).
        states = self.states[name]
        for terminal, label, path in rows:
            node, exc = _anchor(path)
            if node is None:
                continue
            key = (node.lineno, exc or label)
            if key in seen:
                continue
            seen.add(key)
            origins: FrozenSet[int] = frozenset()
            for path_node, _lab in path:
                state = states.get(path_node.node_id, {})
                origins = origins | state.get("LOCKED", frozenset())
            how = (
                f"`{exc}` raised here escapes `{name}`"
                if terminal is cfg.raise_exit
                else f"`{name}` returns"
            )
            found.append(
                Finding(
                    self.path,
                    node.lineno,
                    0,
                    "PROTO001",
                    f"{how} while the write-set locks may still be held "
                    f"({self._fmt_origins(origins)}): no release, "
                    "invalidate-before-unlock, or recovery hand-off on "
                    "this path",
                )
            )
        return found

    def _check_proto002_003(self, name: str, model: MethodModel) -> List[Finding]:
        cfg = self.cfgs[name]
        states = self.states[name]
        found = []
        for node in cfg.stmt_nodes():
            eff = model.effects.get(node.node_id)
            if eff is None or not eff.release_site:
                continue
            state = states.get(node.node_id)
            if not state:
                continue
            for fact, rule, what in (
                ("LOGU", "PROTO002", "log-write"),
                ("OBJU", "PROTO003", "object-write"),
            ):
                origins = state.get(fact)
                if origins and not eff.release_direct:
                    # Release performed by a callee: exempt when every
                    # releasing callee drains this ack class itself
                    # before unlocking (e.g. _abort drains log acks,
                    # recover_interrupted drains both).
                    def _callee_drains(callee: str) -> bool:
                        summary = self.summaries[callee]
                        return fact in summary.touches and not (
                            summary.at_exit.get(fact, True)
                        )

                    if eff.release_callees and all(
                        _callee_drains(c) for c in eff.release_callees
                    ):
                        origins = None
                if origins:
                    found.append(
                        Finding(
                            self.path,
                            node.lineno,
                            0,
                            rule,
                            f"lock release in `{name}` executes while "
                            f"{what} acks may be un-drained "
                            f"({self._fmt_origins(origins)})",
                        )
                    )
        return found

    def _rdma_escapes(self, cfg: CFG, node: CFGNode) -> bool:
        """Does an RdmaError raised at *node* escape the method?"""
        queue = [t for t, label in node.succs if label == "RdmaError"]
        seen = set()
        while queue:
            cursor = queue.pop()
            if cursor.node_id in seen:
                continue
            seen.add(cursor.node_id)
            if cursor is cfg.raise_exit:
                return True
            for target, label in cursor.succs:
                if label == "RdmaError":
                    queue.append(target)
        return False

    def _callers_guard(self, name: str) -> bool:
        """Every intra-module caller wraps the call in try/except
        RdmaError (the ``acquire`` pattern). False when no caller exists."""
        callers = []
        for other, model in self.models.items():
            if other == name:
                continue
            for call in _calls_in(model.func):
                if _self_call_name(call) == name:
                    callers.append((model, call))
        if not callers:
            return False
        for model, call in callers:
            guarded = False
            for node in ast.walk(model.func):
                if not isinstance(node, ast.Try):
                    continue
                in_body = any(
                    call in ast.walk(stmt) for stmt in node.body
                )
                if not in_body:
                    continue
                for handler in node.handlers:
                    caught = (
                        None
                        if handler.type is None
                        else dotted_name(handler.type)
                    )
                    if caught is None or caught.rsplit(".", 1)[-1] in (
                        "RdmaError",
                        "Exception",
                        "BaseException",
                    ):
                        guarded = True
            if not guarded:
                return False
        return True

    def _check_proto005(self, name: str, model: MethodModel) -> List[Finding]:
        cfg = self.cfgs[name]
        states = self.states[name]
        found = []
        raises_for = model.raises_for(self.summaries)
        for node in cfg.stmt_nodes():
            if not node.is_yield or node.stmt is None:
                continue
            state = states.get(node.node_id, {})
            if "CASP" not in state:
                continue
            if "RdmaError" not in raises_for(node.stmt):
                continue
            if not self._rdma_escapes(cfg, node):
                continue
            if self._callers_guard(name):
                continue
            origins = state["CASP"]
            found.append(
                Finding(
                    self.path,
                    node.lineno,
                    0,
                    "PROTO005",
                    f"yield in `{name}` suspends between the CAS "
                    f"lock-acquire ({self._fmt_origins(origins)}) and its "
                    "log post, and the RdmaError escapes with no "
                    "registered interrupt handler (not caught in-method "
                    "or by every caller)",
                )
            )
        return found

    def _check_proto006(self, name: str, model: MethodModel) -> List[Finding]:
        adds = [
            node
            for node in ast.walk(model.func)
            if isinstance(node, ast.Call)
            and "._in_progress.add" in (dotted_name(node.func) or "")
        ]
        if not adds:
            return []
        spawned: List[str] = []
        for call in _calls_in(model.func):
            fn = dotted_name(call.func) or ""
            if fn.endswith(".process") and call.args:
                inner = call.args[0]
                if isinstance(inner, ast.Call):
                    callee = _self_call_name(inner)
                    if callee is not None:
                        spawned.append(callee)
        found = []
        for add in adds:
            if not spawned:
                found.append(
                    Finding(
                        self.path,
                        add.lineno,
                        0,
                        "PROTO006",
                        f"`{name}` claims _in_progress but spawns no "
                        "generator that could release it on kill",
                    )
                )
                continue
            for gen_name in spawned:
                gen_model = self.models.get(gen_name)
                gen_cfg = self.cfgs.get(gen_name)
                if gen_model is None or gen_cfg is None:
                    continue
                leak = self._claim_leak_terminal(gen_cfg, gen_model)
                if leak is not None:
                    found.append(
                        Finding(
                            self.path,
                            add.lineno,
                            0,
                            "PROTO006",
                            f"claim added here is not released on the "
                            f"{leak} path of `{gen_name}`: no "
                            "_in_progress.discard/.pop runs before that "
                            "exit (a mid-recovery kill leaks the claim "
                            "and the node becomes unrecoverable)",
                        )
                    )
        return found

    def _claim_leak_terminal(
        self, cfg: CFG, model: MethodModel
    ) -> Optional[str]:
        """First terminal reachable without passing a discard node."""
        labels = {
            cfg.kill_exit.node_id: "kill (GeneratorExit)",
            cfg.raise_exit.node_id: "exception",
            cfg.exit.node_id: "normal-return",
        }
        queue = [cfg.entry]
        seen = set()
        while queue:
            node = queue.pop()
            if node.node_id in seen:
                continue
            seen.add(node.node_id)
            if node.node_id in labels:
                return labels[node.node_id]
            eff = model.effects.get(node.node_id)
            if eff is not None and eff.discards_claim:
                continue  # claim released; stop this path
            for target, _label in node.succs:
                queue.append(target)
        return None


# ---------------------------------------------------------------------------
# PROTO004: cross-file crash-point coverage
# ---------------------------------------------------------------------------

def _declared_crash_points(
    analyses: List[ModuleAnalysis],
) -> Dict[str, Tuple[str, int]]:
    declared: Dict[str, Tuple[str, int]] = {}
    for analysis in analyses:
        for node in ast.walk(analysis.tree):
            if (
                isinstance(node, ast.Call)
                and (dotted_name(node.func) or "").endswith("._cp")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                name = node.args[0].value
                declared.setdefault(name, (analysis.path, node.lineno))
    return declared


def _crash_point_lists(path: str, source: str) -> List[Tuple[str, int]]:
    """String literals inside *CRASH_POINTS* list/tuple assignments."""
    refs: List[Tuple[str, int]] = []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return refs
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        names = [
            t.id
            for t in node.targets
            if isinstance(t, ast.Name) and "CRASH_POINTS" in t.id
        ]
        if not names or not isinstance(node.value, (ast.List, ast.Tuple)):
            continue
        for element in node.value.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                refs.append((element.value, element.lineno))
    return refs


def _json_points(blob: Any) -> List[str]:
    points = []
    if isinstance(blob, dict):
        for key, value in blob.items():
            if key in ("point", "crash_point") and isinstance(value, str):
                points.append(value)
            else:
                points.extend(_json_points(value))
    elif isinstance(blob, list):
        for item in blob:
            points.extend(_json_points(item))
    return points


def _read(path: str, overlay: Optional[Dict[str, str]]) -> Optional[str]:
    if overlay:
        resolved = os.path.abspath(path)
        for key, text in overlay.items():
            if os.path.abspath(key) == resolved:
                return text
    try:
        with open(path, "r") as handle:
            return handle.read()
    except OSError:
        return None


def _check_proto004(
    analyses: List[ModuleAnalysis],
    root: str,
    overlay: Optional[Dict[str, str]],
    relpath,
) -> List[Finding]:
    declared = _declared_crash_points(analyses)
    referenced: Set[str] = set()
    findings: List[Finding] = []

    list_files = [
        os.path.join(root, "src", "repro", "litmus", "runner.py"),
        os.path.join(root, "src", "repro", "chaos", "schedule.py"),
    ]
    for path in list_files:
        source = _read(path, overlay)
        if source is None:
            continue
        for name, line in _crash_point_lists(path, source):
            referenced.add(name)
            if name not in declared:
                findings.append(
                    Finding(
                        relpath(path),
                        line,
                        0,
                        "PROTO004",
                        f"crash point '{name}' is listed here but no "
                        "engine declares it via self._cp(...)",
                    )
                )

    schedules_dir = os.path.join(root, "tests", "chaos", "schedules")
    if os.path.isdir(schedules_dir):
        for entry in sorted(os.listdir(schedules_dir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(schedules_dir, entry)
            source = _read(path, overlay)
            if source is None:
                continue
            try:
                blob = json.loads(source)
            except ValueError:
                continue
            for name in _json_points(blob):
                referenced.add(name)
                if name not in declared:
                    findings.append(
                        Finding(
                            relpath(path),
                            1,
                            0,
                            "PROTO004",
                            f"chaos schedule references crash point "
                            f"'{name}' that no engine declares",
                        )
                    )

    # Tests referencing a declared point by literal name count as
    # coverage (regex scan; declared-direction only).
    tests_dir = os.path.join(root, "tests")
    pending = {name for name in declared if name not in referenced}
    if pending and os.path.isdir(tests_dir):
        for dirpath, _dirnames, filenames in os.walk(tests_dir):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                source = _read(os.path.join(dirpath, filename), overlay)
                if source is None:
                    continue
                for name in list(pending):
                    if f'"{name}"' in source or f"'{name}'" in source:
                        referenced.add(name)
                        pending.discard(name)
                if not pending:
                    break
            if not pending:
                break

    for name, (path, line) in sorted(declared.items()):
        if name not in referenced:
            findings.append(
                Finding(
                    relpath(path),
                    line,
                    0,
                    "PROTO004",
                    f"crash point '{name}' declared here is referenced by "
                    "no chaos schedule, litmus CRASH_POINTS list, or test "
                    "— it can never be exercised",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Suppressions + PROTO008
# ---------------------------------------------------------------------------

@dataclass
class Suppression:
    path: str
    line: int
    rules: Optional[Set[str]]  # None = all rules
    reason: str
    used: bool = False


def parse_suppressions(path: str, source: str) -> List[Suppression]:
    out = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = match.group(1)
        rules = (
            None
            if codes is None
            else {code.strip() for code in codes.split(",") if code.strip()}
        )
        out.append(
            Suppression(path, lineno, rules, (match.group(2) or "").strip())
        )
    return out


def apply_suppressions(
    findings: List[Finding], suppressions: List[Suppression]
) -> Tuple[List[Finding], List[Finding]]:
    """Returns (kept findings, PROTO008 hygiene findings)."""
    by_anchor: Dict[Tuple[str, int], List[Suppression]] = {}
    hygiene: List[Finding] = []
    for sup in suppressions:
        if sup.rules is not None:
            unknown = sorted(code for code in sup.rules if code not in RULES)
            for code in unknown:
                hygiene.append(
                    Finding(
                        sup.path,
                        sup.line,
                        0,
                        "PROTO008",
                        f"suppression names unknown rule code '{code}'",
                    )
                )
        # A suppression on line L covers findings anchored at L and L+1
        # (same-line and next-line placement).
        by_anchor.setdefault((sup.path, sup.line), []).append(sup)
        by_anchor.setdefault((sup.path, sup.line + 1), []).append(sup)
    kept = []
    for finding in findings:
        if finding.rule == "PROTO008":
            kept.append(finding)  # hygiene findings are not suppressible
            continue
        matched = False
        for sup in by_anchor.get((finding.path, finding.line), ()):
            if sup.rules is None or finding.rule in sup.rules:
                sup.used = True
                matched = True
        if not matched:
            kept.append(finding)
    for sup in suppressions:
        if not sup.used:
            hygiene.append(
                Finding(
                    sup.path,
                    sup.line,
                    0,
                    "PROTO008",
                    "stale suppression: no protolint finding is anchored "
                    "on this or the next line"
                    + (f" (reason given: {sup.reason})" if sup.reason else ""),
                )
            )
    return kept, hygiene


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


def run_protolint(
    paths: Optional[List[str]] = None,
    overlay: Optional[Dict[str, str]] = None,
    root: Optional[str] = None,
) -> List[Finding]:
    """Analyze the engine files; returns findings after suppressions.

    ``overlay`` maps file paths to replacement source text — the
    mutation harness uses it to lint seeded mutants without touching
    disk. Paths in findings are repo-root-relative when possible.
    """
    root = root if root is not None else _repo_root()

    def relpath(path: str) -> str:
        try:
            rel = os.path.relpath(path, root)
        except ValueError:  # different drive (windows)
            return path
        return path if rel.startswith("..") else rel.replace(os.sep, "/")

    if paths is None:
        import glob as _glob

        paths = []
        for pattern in DEFAULT_ENGINE_GLOBS:
            paths.extend(sorted(_glob.glob(os.path.join(root, pattern))))
        paths = [p for p in paths if not p.endswith("__init__.py")]

    analyses: List[ModuleAnalysis] = []
    findings: List[Finding] = []
    suppressions: List[Suppression] = []
    for path in paths:
        source = _read(path, overlay)
        if source is None:
            continue
        rel = relpath(path)
        try:
            analysis = ModuleAnalysis(rel, source)
        except SyntaxError as error:
            findings.append(
                Finding(
                    rel,
                    error.lineno or 1,
                    0,
                    "PROTO001",
                    f"file does not parse: {error.msg}",
                )
            )
            continue
        analysis.analyze()
        analyses.append(analysis)
        findings.extend(analysis.findings())
        suppressions.extend(parse_suppressions(rel, source))

    findings.extend(_check_proto004(analyses, root, overlay, relpath))
    kept, hygiene = apply_suppressions(findings, suppressions)
    kept.extend(hygiene)
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_text(findings: List[Finding]) -> str:
    if not findings:
        return "protolint: no violations"
    lines = [finding.render() for finding in findings]
    lines.append(f"protolint: {len(findings)} violation(s)")
    return "\n".join(lines)


def render_json(findings: List[Finding]) -> str:
    return json.dumps(
        {
            "tool": "protolint",
            "rules": RULES,
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "rule": f.rule,
                    "message": f.message,
                }
                for f in findings
            ],
            "count": len(findings),
        },
        indent=2,
    )
