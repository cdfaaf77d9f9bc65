"""repro.analysis — static and dynamic correctness tooling.

Two independent guardrails for the simulator (see ``docs/ANALYSIS.md``):

* :mod:`repro.analysis.simlint` — an AST-based determinism linter
  (rules SIM001-SIM008) keeping ``src/repro`` simulation-pure: no
  wall-clock, no module-level ``random`` calls, no unordered set
  iteration, explicit ``Optional`` hints, instrumentation only through
  the ``Obs`` facade. Run with ``python -m repro.analysis lint``.
* :mod:`repro.analysis.sanitizer` — an opt-in online sanitizer that
  shadows the lock table at the verb layer and asserts PILL's lock/log
  discipline (§3.1-§3.2 of the paper) on every simulated verb. The
  mutation harness in :mod:`repro.analysis.mutants` proves it catches
  deliberately broken engines: ``python -m repro.analysis mutants``.

This ``__init__`` intentionally imports nothing from the rest of
``repro``: core modules (``repro.memory.node``, ``repro.rdma.qp``)
import :data:`NOOP_SANITIZER` from here, while the heavy submodules
import core modules — keeping the no-op default here breaks the cycle.
"""

from __future__ import annotations

__all__ = ["NOOP_SANITIZER", "NoopSanitizer"]


class NoopSanitizer:
    """Disabled-sanitizer twin of ``repro.obs.NullObs``.

    The default of every sanitizer slot. The per-verb hot paths do not
    even call it — ``MemoryNode.apply`` tests for this singleton and
    ``QueuePair`` treats a disabled sanitizer as absent — so a disabled
    run is bit-identical to an uninstrumented one (the sanitizer never
    schedules simulation events).
    """

    __slots__ = ()

    enabled = False

    def before_verb(self, node, src, kind, args) -> None:
        """Memory-side hook: a verb is about to execute at *node*."""

    def after_verb(self, node, src, kind, args, result) -> None:
        """Memory-side hook: a verb executed at *node* with *result*."""


NOOP_SANITIZER = NoopSanitizer()
