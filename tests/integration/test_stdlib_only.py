"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``. A dev environment
has networkx, numpy and the rest installed, so an import that creeps
back would pass every other test; here a child interpreter started
with ``-S`` (no ``site``, hence no site-packages) imports every entry
point and takes one chaos schedule from history to verdict.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import repro.cli, repro.chaos, repro.load, repro.litmus, repro.bench
import repro.obs.report
import repro.analysis.cli, repro.analysis.mutants
import repro.analysis.simlint
from repro.chaos import ChaosRunner, Schedule

runner = ChaosRunner(Schedule(seed=1, family="none", duration=1e-3))
result = runner.run()
assert result.ok, result.violations
assert runner.history, "the serializability check ran on nothing"
stdlib = getattr(sys, "stdlib_module_names", None)  # 3.10+
if stdlib is not None:
    foreign = sorted({{name.partition(".")[0] for name in sys.modules}}
                     - set(stdlib) - {{"repro", "__main__"}})
    assert not foreign, foreign
print("OK")
"""


def test_imports_and_chaos_verdict_without_site_packages():
    child = subprocess.run(
        [sys.executable, "-S", "-c", CHILD],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "OK"
