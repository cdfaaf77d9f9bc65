"""simlint — an AST-based determinism linter for simulation code.

A discrete-event simulator is only as reproducible as its purity: one
wall-clock read or one iteration over an unordered ``set`` feeding the
event queue silently breaks seed-stable replays. ``simlint`` encodes
the project's purity rules as six AST checks over stdlib ``ast`` (no
third-party dependencies) and is wired into CI next to ruff, which
owns the style rules (bare ``except`` is ruff's E722).

Rules (full rationale in ``docs/ANALYSIS.md``):

==========  ============================================================
SIM001      wall-clock access (``time.time``, ``datetime.now``, ...)
SIM002      module-level ``random.*`` call (thread a seeded
            ``random.Random`` explicitly instead)
SIM003      iteration over an unordered ``set`` expression
SIM004      mutable default argument
SIM007      ``print()`` outside the CLI/report allowlist (use ``Obs``)
SIM008      nondeterministic entropy (``os.urandom``, ``uuid.uuid4``,
            ``secrets``, builtin ``hash()``)
==========  ============================================================

Calls are matched by what they resolve to through the module's imports:
``from time import perf_counter_ns as now; now()`` is
``time.perf_counter_ns`` and ``import random as r; r.random()`` is
``random.random``. The call is flagged, never the import.

Suppression: append ``# simlint: disable=SIM003`` (comma-separate for
several rules) or a bare ``# simlint: disable`` to the flagged line.

Entry point: ``python -m repro.analysis lint [paths] [--format json]``.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Set

__all__ = [
    "Finding",
    "RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "render_text",
    "render_json",
]

RULES: Dict[str, str] = {
    "SIM001": "wall-clock access in simulation code (use the kernel's virtual time)",
    "SIM002": "module-level random.* call (thread a seeded random.Random explicitly)",
    "SIM003": "iteration over an unordered set expression (order is not deterministic)",
    "SIM004": "mutable default argument",
    "SIM007": "print() outside the CLI/report allowlist (instrument via the Obs facade)",
    "SIM008": "nondeterministic entropy source",
}

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
    }
)

_ENTROPY_CALLS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
        "random.SystemRandom",
    }
)

# random.<attr> calls on the *module-level* singleton that are allowed:
# constructing an explicit generator is exactly what SIM002 asks for.
_RANDOM_ALLOWED_ATTRS = frozenset({"Random"})

# Files whose whole job is writing to stdout for a human: the CLIs and
# the report renderers (bench tables/series, obs flight reports).
# Matched as normalized path suffixes on component boundaries, so a
# stray ``report.py`` elsewhere in the tree is NOT exempt.
_PRINT_ALLOWED_SUFFIXES = (
    "cli.py",
    "__main__.py",
    "repro/bench/report.py",
    "repro/obs/report.py",
)


def _print_allowed(path: str) -> bool:
    normalized = path.replace(os.sep, "/")
    return any(
        normalized == suffix or normalized.endswith("/" + suffix)
        for suffix in _PRINT_ALLOWED_SUFFIXES
    )

_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray"})

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable(?:=([A-Z0-9,\s]+))?")


@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed rule set (None = all rules)."""
    table: Dict[int, Optional[Set[str]]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        listed = match.group(1)
        if listed is None:
            table[number] = None
        else:
            table[number] = {rule.strip() for rule in listed.split(",") if rule.strip()}
    return table


def _dotted_name(node: ast.AST) -> Optional[str]:
    """'a.b.c' for an attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_bindings(tree: ast.AST) -> Dict[str, str]:
    """Local name -> the dotted name it stands for, from every
    ``import … as …`` and ``from … import … [as …]`` in the module."""
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    bindings[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bindings


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, bindings: Dict[str, str]) -> None:
        self.path = path
        self.bindings = bindings
        self.findings: List[Finding] = []

    def _resolve(self, dotted: str) -> str:
        """*dotted* with its first name replaced by what it was imported as."""
        head, dot, rest = dotted.partition(".")
        bound = self.bindings.get(head)
        return dotted if bound is None else bound + dot + rest

    def _flag(self, node: ast.AST, rule: str, detail: str = "") -> None:
        message = RULES[rule] if not detail else f"{RULES[rule]}: {detail}"
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    # -- call-based rules (SIM001/002/007/008) ------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            name = self._resolve(dotted)
            module, _, attr = name.rpartition(".")
            if name in _WALL_CLOCK_CALLS:
                self._flag(node, "SIM001", name)
            elif name in _ENTROPY_CALLS:
                self._flag(node, "SIM008", name)
            elif module == "random" and attr not in _RANDOM_ALLOWED_ATTRS:
                self._flag(node, "SIM002", name)
        if isinstance(node.func, ast.Name):
            if node.func.id == "print" and not _print_allowed(self.path):
                self._flag(node, "SIM007")
            elif node.func.id == "hash":
                self._flag(
                    node, "SIM008", "builtin hash() is PYTHONHASHSEED-dependent for str"
                )
        self.generic_visit(node)

    # -- iteration over unordered sets (SIM003) -----------------------------

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expression(node.iter):
            self._flag(node.iter, "SIM003")
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        if _is_set_expression(node.iter):
            self._flag(node.iter, "SIM003")
        self.generic_visit(node)

    def _check_comprehensions(self, node) -> None:
        for generator in node.generators:
            if _is_set_expression(generator.iter):
                self._flag(generator.iter, "SIM003")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehensions(node)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehensions(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehensions(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehensions(node)
        self.generic_visit(node)

    # -- mutable defaults (SIM004) -------------------------------------------

    def _check_signature(self, node) -> None:
        arguments = node.args
        positional = list(arguments.posonlyargs) + list(arguments.args)
        # defaults align with the tail of the positional parameter list.
        offset = len(positional) - len(arguments.defaults)
        pairs = [
            (positional[offset + index], default)
            for index, default in enumerate(arguments.defaults)
        ]
        pairs += [
            (argument, default)
            for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
            if default is not None
        ]
        for argument, default in pairs:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self._flag(default, "SIM004", f"parameter {argument.arg!r}")
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_FACTORIES
            ):
                self._flag(default, "SIM004", f"parameter {argument.arg!r}")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_signature(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_signature(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_signature(node)
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one source string; returns surviving findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 1,
                col=error.offset or 0,
                rule="SIM000",
                message=f"syntax error: {error.msg}",
            )
        ]
    visitor = _Visitor(path, _import_bindings(tree))
    visitor.visit(tree)
    suppressed = _suppressions(source)
    findings = []
    for finding in visitor.findings:
        rules_off = suppressed.get(finding.line, "unset")
        if rules_off is None:  # bare "# simlint: disable"
            continue
        if rules_off != "unset" and finding.rule in rules_off:
            continue
        findings.append(finding)
    return findings


def lint_file(path: str) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path)


def _python_files(path: str) -> List[str]:
    if os.path.isfile(path):
        return [path]
    collected = []
    for root, directories, files in os.walk(path):
        directories.sort()  # deterministic traversal order
        for name in sorted(files):
            if name.endswith(".py"):
                collected.append(os.path.join(root, name))
    return collected


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint files/directories; findings sorted by (path, line, col)."""
    findings: List[Finding] = []
    for path in paths:
        for filename in _python_files(path):
            findings.extend(lint_file(filename))
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.col))
    return findings


def render_text(findings: Sequence[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    lines.append(f"simlint: {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (one object per finding)."""
    payload = {
        "tool": "simlint",
        "rules": RULES,
        "findings": [asdict(finding) for finding in findings],
        "count": len(findings),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
