"""Mutation testing: every seeded protocol bug must trip the sanitizer."""

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


def test_static_mutants_cover_the_targeted_rules():
    """Every PROTO rule that judges engine paths has a mutant only it
    catches (PROTO008 judges suppression comments, not engines)."""
    rules = {spec.expected_rule for spec in STATIC_MUTANTS}
    assert rules == {f"PROTO00{i}" for i in range(1, 7)}


@pytest.mark.parametrize("name", [spec.name for spec in STATIC_MUTANTS])
def test_static_mutant_flagged_with_clean_control(static_results, name):
    result = next(r for r in static_results if r.name == name)
    assert result.applied, f"{name}: mutation no longer matches the source"
    assert result.caught, (name, result.rules)
    assert result.control_clean, (name, result.control_rules)
    assert result.passed


def test_pr4_lock_leak_is_flagged_statically(static_results):
    """Acceptance criterion: re-introducing the PR 4 abort-path lock
    leak is caught by protolint as PROTO001 without any simulation."""
    result = next(r for r in static_results if r.name == "abort-allof-drain")
    assert "PROTO001" in result.rules


def test_render_includes_static_section(results, static_results):
    text = render_results(results, static_results)
    assert "static mutants flagged by protolint" in text


def test_verdicts_match_the_committed_golden(results, static_results):
    """``python -m repro.analysis mutants`` prints exactly the golden
    CI diffs against — every ``got=`` list included."""
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "mutants.txt"
    assert render_results(results, static_results) + "\n" == golden.read_text()


def test_cli_mutants_exit_zero():
    from repro.analysis.cli import main

    assert main(["mutants", "--skip-static"]) == 0
