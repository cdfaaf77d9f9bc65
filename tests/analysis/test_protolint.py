"""Tests for the protocol-discipline CFG analyzer (protolint).

The heavyweight rule checks are exercised end-to-end by the static
mutants in ``tests/analysis/test_mutants.py`` (each mutant re-lints
the real engine files through the overlay API). This file covers the
pieces around them: suppression parsing and hygiene (PROTO008), the
committed-baseline round trip, and the shipped tree's cleanliness —
the PR's acceptance criterion.
"""

from repro.analysis.protolint import (
    Finding,
    RULES,
    Suppression,
    apply_suppressions,
    filter_baseline,
    load_baseline,
    parse_suppressions,
    render_json,
    render_text,
    run_protolint,
    write_baseline,
)


def _finding(path="eng.py", line=10, rule="PROTO001", message="leak"):
    return Finding(path, line, 0, rule, message)


class TestSuppressionParsing:
    def test_bare_disable_means_all_rules(self):
        sups = parse_suppressions("eng.py", "x = 1  # protolint: disable\n")
        assert len(sups) == 1
        assert sups[0].rules is None
        assert sups[0].line == 1

    def test_targeted_disable_with_reason(self):
        source = "# protolint: disable=PROTO001 -- fenced hand-off\nraise\n"
        sups = parse_suppressions("eng.py", source)
        assert sups[0].rules == {"PROTO001"}
        assert sups[0].reason == "fenced hand-off"

    def test_comma_separated_codes(self):
        source = "y = 2  # protolint: disable=PROTO001, PROTO007\n"
        sups = parse_suppressions("eng.py", source)
        assert sups[0].rules == {"PROTO001", "PROTO007"}

    def test_no_marker_no_suppressions(self):
        assert parse_suppressions("eng.py", "x = 1  # a plain comment\n") == []


class TestSuppressionApplication:
    def test_same_line_placement_covers_finding(self):
        sups = [Suppression("eng.py", 10, {"PROTO001"}, "")]
        kept, hygiene = apply_suppressions([_finding(line=10)], sups)
        assert kept == []
        assert hygiene == []

    def test_next_line_placement_covers_finding(self):
        """A comment line directly above the flagged statement works."""
        sups = [Suppression("eng.py", 9, {"PROTO001"}, "")]
        kept, hygiene = apply_suppressions([_finding(line=10)], sups)
        assert kept == []
        assert hygiene == []

    def test_two_lines_above_does_not_cover(self):
        sups = [Suppression("eng.py", 8, {"PROTO001"}, "")]
        kept, hygiene = apply_suppressions([_finding(line=10)], sups)
        assert len(kept) == 1
        # ...and the suppression is now stale.
        assert any("stale" in f.message for f in hygiene)

    def test_wrong_rule_does_not_cover(self):
        sups = [Suppression("eng.py", 10, {"PROTO002"}, "")]
        kept, hygiene = apply_suppressions([_finding(line=10)], sups)
        assert len(kept) == 1
        assert any("stale" in f.message for f in hygiene)

    def test_bare_disable_covers_any_rule(self):
        sups = [Suppression("eng.py", 10, None, "")]
        kept, hygiene = apply_suppressions(
            [_finding(line=10, rule="PROTO005")], sups
        )
        assert kept == []
        assert hygiene == []

    def test_unknown_rule_code_is_proto008(self):
        sups = [Suppression("eng.py", 10, {"PROTO099"}, "")]
        kept, hygiene = apply_suppressions([], sups)
        unknown = [f for f in hygiene if "unknown rule code" in f.message]
        assert unknown and unknown[0].rule == "PROTO008"
        assert "PROTO099" in unknown[0].message

    def test_stale_suppression_is_proto008_with_reason(self):
        sups = [Suppression("eng.py", 50, {"PROTO001"}, "old hand-off")]
        kept, hygiene = apply_suppressions([], sups)
        stale = [f for f in hygiene if "stale" in f.message]
        assert stale and stale[0].rule == "PROTO008"
        assert "old hand-off" in stale[0].message

    def test_proto008_findings_are_not_suppressible(self):
        """A disable marker cannot silence the hygiene rule itself."""
        hygiene_finding = _finding(line=10, rule="PROTO008", message="stale")
        sups = [Suppression("eng.py", 10, None, "")]
        kept, hygiene = apply_suppressions([hygiene_finding], sups)
        assert hygiene_finding in kept

    def test_one_suppression_covers_both_anchor_lines(self):
        """Same marker silences a finding on its own line and the next
        without going stale."""
        sups = [Suppression("eng.py", 10, {"PROTO001"}, "")]
        findings = [_finding(line=10), _finding(line=11)]
        kept, hygiene = apply_suppressions(findings, sups)
        assert kept == []
        assert hygiene == []


class TestBaseline:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        findings = [_finding(), _finding(line=20, rule="PROTO004")]
        write_baseline(findings, path)
        baseline = load_baseline(path)
        assert len(baseline) == 2
        assert filter_baseline(findings, baseline) == []

    def test_new_finding_survives_baseline(self, tmp_path):
        path = str(tmp_path / "baseline.json")
        write_baseline([_finding()], path)
        baseline = load_baseline(path)
        fresh = _finding(line=99, message="new leak")
        assert filter_baseline([_finding(), fresh], baseline) == [fresh]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == set()

    def test_corrupt_baseline_is_empty(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert load_baseline(str(path)) == set()


class TestOverridesAcrossClasses:
    """Same-named methods of sibling classes are each analyzed under
    the class that runs them — whichever is defined last."""

    BASE = """
class Lock:
    def acquire(self, tx):
        yield from self._take(tx)  # no RdmaError guard around the step
"""
    CAS = """
class Cas(Lock):
    def _take(self, tx):
        event = self.verbs.cas_lock(0, 0, 0, 0, 7)
        yield event
"""
    TICKET = """
class Ticket(Lock):
    def _take(self, tx):
        yield self.verbs.faa_ticket(0, 0, 0, 1)
"""

    def _lint(self, tmp_path, source):
        path = tmp_path / "locks.py"
        path.write_text(source)
        return run_protolint(paths=[str(path)], root=str(tmp_path))

    def test_the_cas_override_is_checked_in_either_definition_order(self, tmp_path):
        for siblings in (self.CAS + self.TICKET, self.TICKET + self.CAS):
            found = self._lint(tmp_path, self.BASE + siblings)
            assert [(f.rule, f.line) for f in found] == [("PROTO005", found[0].line)]
            assert "`_take`" in found[0].message

    def test_a_guard_in_the_inherited_caller_covers_the_override(self, tmp_path):
        guarded = self.BASE.replace(
            "        yield from self._take(tx)  # no RdmaError guard around the step\n",
            "        try:\n            yield from self._take(tx)\n"
            "        except RdmaError:\n            pass\n",
        )
        assert "try:" in guarded
        assert self._lint(tmp_path, guarded + self.CAS + self.TICKET) == []


class TestShippedTree:
    def test_shipped_engines_lint_clean(self):
        """Acceptance criterion: zero unsuppressed violations on the
        shipped protocol + recovery engines."""
        assert run_protolint() == []

    def test_rules_table_documents_all_eight(self):
        assert {f"PROTO00{i}" for i in range(1, 9)} <= set(RULES)


class TestRendering:
    def test_render_text_clean(self):
        assert "no violations" in render_text([])

    def test_render_text_lists_findings(self):
        text = render_text([_finding()])
        assert "PROTO001" in text and "eng.py" in text

    def test_render_json_is_machine_readable(self):
        import json

        blob = json.loads(render_json([_finding()]))
        assert blob["findings"][0]["rule"] == "PROTO001"


class TestCli:
    def test_protolint_clean_exits_zero(self, capsys):
        from repro.analysis.cli import main

        assert main(["protolint"]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_protolint_json_format(self, capsys):
        import json

        from repro.analysis.cli import main

        assert main(["protolint", "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["findings"] == []
