"""Mutation testing: every seeded protocol bug must trip the sanitizer
(dynamic mutants) or fail its judge tests (static mutants)."""

import os
import subprocess
import sys

import pytest

from repro.analysis.mutants import (
    MUTANTS,
    STATIC_MUTANTS,
    render_results,
    run_mutation_harness,
    run_static_mutants,
)


@pytest.fixture(scope="module")
def results():
    return run_mutation_harness()


@pytest.fixture(scope="module")
def static_results():
    return run_static_mutants()


def test_every_mutant_has_a_result(results):
    assert len(results) == len(MUTANTS) >= 3


@pytest.mark.parametrize("name", [spec.name for spec in MUTANTS])
def test_mutant_detected_with_clean_control(results, name):
    result = next(r for r in results if r.name == name)
    assert result.caught, (name, result.codes)
    assert result.control_clean, (name, result.control_codes)
    assert result.passed


def test_dynamic_mutants_are_declarations():
    """A mutant is the pandora row with one strategy swapped or only
    its bug flags changed — never a second engine."""
    from repro.analysis.mutants import PANDORA
    from repro.protocol.types import BugFlags
    from repro.protocol.zoo import Protocol

    for spec in MUTANTS:
        protocol = spec.protocol
        assert isinstance(protocol, Protocol) and protocol.name == PANDORA.name
        swapped = [
            axis
            for axis in ("lock", "log", "commit")
            if getattr(protocol, axis) is not getattr(PANDORA, axis)
        ]
        assert len(swapped) <= 1, (spec.name, swapped)
        if swapped:
            assert issubclass(getattr(protocol, swapped[0]), getattr(PANDORA, swapped[0]))
            assert protocol.bugs() == BugFlags.fixed(), spec.name
        else:
            assert protocol.bugs() != BugFlags.fixed(), spec.name


def test_expected_codes_are_distinct_enough(results):
    """The harness exercises at least three distinct violation codes."""
    assert len({r.expected_code for r in results}) >= 3


def test_render_results_summarises(results):
    text = render_results(results)
    assert f"{len(results)}/{len(results)} mutants detected" in text


def test_every_judge_id_is_collected():
    """A judge id that names no test would fail the control, not the
    mutant — but say which id rotted."""
    from repro.analysis.mutants import _repo_root

    root = _repo_root()
    judges = [test for spec in STATIC_MUTANTS for test in spec.judge]
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-p", "no:cacheprovider", *judges],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    collected = child.stdout.splitlines()
    for test in judges:
        assert any(line.startswith(test) for line in collected), test


@pytest.mark.parametrize("name", [spec.name for spec in STATIC_MUTANTS])
def test_static_mutant_flagged_with_clean_control(static_results, name):
    result = next(r for r in static_results if r.name == name)
    assert result.applied, f"{name}: mutation no longer matches the source"
    assert result.caught, (name, result.judge)
    assert result.control_clean, (name, result.judge)
    assert result.passed


def test_a_judge_run_on_another_repro_is_refused(tmp_path):
    """An installed ``repro`` that shadows the mutated copy would let
    the judge test the shipped tree: the harness stops instead."""
    from repro.analysis.mutants import JudgeError, _judge_passes, _repo_root

    root = _repo_root()
    copy = tmp_path / "src"
    copy.mkdir()
    # What an editable install's .pth does: the shipped tree first.
    shipped = os.path.join(root, "src")
    (copy / "sitecustomize.py").write_text(f"import sys\nsys.path.insert(0, {shipped!r})\n")
    with pytest.raises(JudgeError) as error:
        _judge_passes(root, str(copy), STATIC_MUTANTS[0].judge)
    assert f"imported repro from {shipped}/repro/" in str(error.value)


def test_without_pytest_the_cli_says_so_in_one_line(monkeypatch, capsys):
    import importlib.util

    from repro.analysis.cli import main

    find_spec = importlib.util.find_spec
    monkeypatch.setattr(
        importlib.util, "find_spec", lambda name, *args: None if name == "pytest" else find_spec(name, *args)
    )
    assert main(["mutants", "--only", "abort-allof-drain"]) == 2
    err = capsys.readouterr().err
    assert "pip install .[dev]" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_render_includes_static_section(results, static_results):
    text = render_results(results, static_results)
    assert "static mutants caught by their judges" in text


def test_verdicts_match_the_committed_golden(results, static_results):
    """``python -m repro.analysis mutants`` prints exactly the golden
    CI diffs against — every ``got=`` list included."""
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "mutants.txt"
    assert render_results(results, static_results) + "\n" == golden.read_text()


def test_cli_mutants_exit_zero():
    from repro.analysis.cli import main

    assert main(["mutants", "--skip-static"]) == 0
