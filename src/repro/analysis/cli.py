"""Entry point: ``python -m repro.analysis`` (also ``repro-analysis``).

Subcommands::

    python -m repro.analysis lint [paths...] [--format json]
    python -m repro.analysis mutants [--only name ...] [--skip-static]

``lint`` exits nonzero if any finding survives its ``# simlint:
disable`` comment; ``mutants`` exits nonzero unless every seeded
protocol mutation is detected and every control run is clean (2 if the
static mutants' judges cannot run here). Both are wired into CI (see
docs/ANALYSIS.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _default_lint_paths() -> List[str]:
    """The installed ``repro`` package directory (i.e. ``src/repro``)."""
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [package_dir]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description="determinism lint + PILL protocol sanitizer tooling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="run the simulation-purity linter")
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", dest="format_",
        help="report format (json is machine-readable)",
    )

    mutants = sub.add_parser(
        "mutants", help="run the sanitizer mutation-testing harness"
    )
    mutants.add_argument(
        "--only", nargs="*", default=None, metavar="NAME",
        help="run only the named mutants (dynamic and static)",
    )
    mutants.add_argument(
        "--skip-static", action="store_true",
        help="skip the static mutants and their test judges (dynamic rigs only)",
    )
    return parser


def _cmd_lint(args) -> int:
    from repro.analysis.simlint import lint_paths, render_json, render_text

    findings = lint_paths(args.paths or _default_lint_paths())
    if args.format_ == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def _cmd_mutants(args) -> int:
    from repro.analysis.mutants import (
        JudgeError,
        render_results,
        run_mutation_harness,
        run_static_mutants,
    )

    results = run_mutation_harness(only=args.only)
    try:
        static_results = (
            None if args.skip_static else run_static_mutants(only=args.only)
        )
    except JudgeError as error:
        print(f"repro-analysis mutants: {error}", file=sys.stderr)
        return 2
    print(render_results(results, static_results))
    if not results and not static_results:
        print("no mutants matched", file=sys.stderr)
        return 1
    ok = all(result.passed for result in results)
    if static_results is not None:
        ok = ok and all(result.passed for result in static_results)
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "lint": _cmd_lint,
        "mutants": _cmd_mutants,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
