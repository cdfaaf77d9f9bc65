"""simlint: each rule fires on its fixture and stays quiet otherwise."""

import io
import json
import os
import re
import tokenize

import pytest

import repro
from repro.analysis.simlint import (
    RULES,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)


def rules_of(findings):
    return [finding.rule for finding in findings]


class TestRules:
    def test_sim001_wall_clock(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert "SIM001" in rules_of(lint_source(source))

    def test_sim001_datetime_now(self):
        source = "import datetime\n\ndef f():\n    return datetime.datetime.now()\n"
        assert "SIM001" in rules_of(lint_source(source))

    def test_sim002_module_level_random(self):
        source = "import random\n\ndef f():\n    return random.random()\n"
        assert "SIM002" in rules_of(lint_source(source))

    def test_sim002_seeded_rng_ok(self):
        source = (
            "import random\n\n"
            "def f(rng: random.Random):\n"
            "    return rng.random()\n"
        )
        assert "SIM002" not in rules_of(lint_source(source))

    def test_sim003_set_iteration(self):
        source = "def f(xs):\n    for x in set(xs):\n        pass\n"
        assert "SIM003" in rules_of(lint_source(source))

    def test_sim003_sorted_set_ok(self):
        source = "def f(xs):\n    for x in sorted(set(xs)):\n        pass\n"
        assert "SIM003" not in rules_of(lint_source(source))

    def test_sim004_mutable_default(self):
        source = "def f(xs=[]):\n    return xs\n"
        assert "SIM004" in rules_of(lint_source(source))

    def test_sim007_print_outside_allowlist(self):
        source = "def f():\n    print('hello')\n"
        assert "SIM007" in rules_of(lint_source(source, path="engine.py"))

    def test_sim007_print_allowed_in_cli(self):
        source = "def f():\n    print('hello')\n"
        assert "SIM007" not in rules_of(lint_source(source, path="cli.py"))

    def test_sim007_print_allowed_in_report_renderers(self):
        source = "def f():\n    print('hello')\n"
        for path in (
            "src/repro/bench/report.py",
            "src/repro/obs/report.py",
            "src/repro/analysis/cli.py",
        ):
            assert "SIM007" not in rules_of(lint_source(source, path=path)), path

    def test_sim007_stray_report_module_is_not_exempt(self):
        # The allowlist matches path suffixes, not basenames: a
        # report.py outside the known renderer locations still flags.
        source = "def f():\n    print('hello')\n"
        assert "SIM007" in rules_of(lint_source(source, path="src/repro/engine/report.py"))
        # Nor does a file merely *ending* in "cli.py" sneak through.
        assert "SIM007" in rules_of(lint_source(source, path="src/repro/fastcli.py"))

    def test_sim008_entropy(self):
        source = "import os\n\ndef f():\n    return os.urandom(8)\n"
        assert "SIM008" in rules_of(lint_source(source))

    @pytest.mark.parametrize(
        "source, rule",
        [
            ("from time import perf_counter_ns\nperf_counter_ns()\n", "SIM001"),
            ("from time import time as now\nnow()\n", "SIM001"),
            ("from random import random\nrandom()\n", "SIM002"),
            ("import random as r\nr.random()\n", "SIM002"),
            ("from os import urandom\nurandom(4)\n", "SIM008"),
        ],
        ids=["from-time", "from-time-as", "from-random", "random-as", "from-os"],
    )
    def test_imported_names_resolve_to_the_flagged_call(self, source, rule):
        """An alias or a from-import is judged by what it names; the
        call is flagged (line 2), never the import (line 1)."""
        assert [(f.rule, f.line) for f in lint_source(source)] == [(rule, 2)]

    def test_imported_seeded_rng_constructor_ok(self):
        assert lint_source("from random import Random\nRandom(1)\n") == []

    def test_clean_source_has_no_findings(self):
        source = (
            "from typing import Optional\n\n"
            "def f(x: Optional[int] = None):\n"
            "    return (x or 0) + 1\n"
        )
        assert lint_source(source) == []


class TestSuppression:
    def test_bare_disable_silences_line(self):
        source = "def f():\n    print('x')  # simlint: disable\n"
        assert lint_source(source, path="engine.py") == []

    def test_targeted_disable_silences_only_named_rule(self):
        source = "def f():\n    print('x')  # simlint: disable=SIM007\n"
        assert lint_source(source, path="engine.py") == []

    def test_disable_for_other_rule_keeps_finding(self):
        source = "def f():\n    print('x')  # simlint: disable=SIM001\n"
        assert "SIM007" in rules_of(lint_source(source, path="engine.py"))

    def test_comma_separated_codes_all_apply(self):
        source = (
            "def f():\n"
            "    print('x')  # simlint: disable=SIM001, SIM007\n"
        )
        assert lint_source(source, path="engine.py") == []

    def test_next_line_placement_is_not_honored(self):
        """simlint suppressions are same-line only — a marker on the
        preceding line does not cover the finding."""
        source = (
            "def f():\n"
            "    # simlint: disable=SIM007\n"
            "    print('x')\n"
        )
        assert "SIM007" in rules_of(lint_source(source, path="engine.py"))

    def test_unknown_rule_code_is_ignored_without_error(self):
        """simlint has no hygiene rule: an unknown code simply fails to
        match, so the finding survives."""
        source = "def f():\n    print('x')  # simlint: disable=SIM999\n"
        assert "SIM007" in rules_of(lint_source(source, path="engine.py"))


class TestSelectAndRendering:
    SOURCE = "def f(xs=[]):\n    print(xs)\n"

    def test_render_text_mentions_rule_and_count(self):
        findings = lint_source(self.SOURCE, path="engine.py")
        text = render_text(findings)
        assert "SIM004" in text
        assert f"{len(findings)} finding(s)" in text

    def test_render_json_is_machine_readable(self):
        findings = lint_source(self.SOURCE, path="engine.py")
        payload = json.loads(render_json(findings))
        assert payload["tool"] == "simlint"
        assert payload["count"] == len(findings)
        assert {f["rule"] for f in payload["findings"]} <= set(RULES)

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def f(:\n")
        assert rules_of(findings) == ["SIM000"]


class TestRepoIsClean:
    def test_whole_package_lints_clean(self):
        package_dir = os.path.dirname(repro.__file__)
        findings = lint_paths([package_dir])
        assert findings == [], render_text(findings)

    def test_every_suppression_in_the_package_silences_a_finding(self):
        marker = re.compile(r"#\s*simlint:\s*disable")
        package_dir = os.path.dirname(repro.__file__)
        stale = []
        for root, _dirs, files in os.walk(package_dir):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
                suppressed = [
                    token.start[0]
                    for token in tokenize.generate_tokens(io.StringIO(source).readline)
                    if token.type == tokenize.COMMENT and marker.match(token.string)
                ]
                if not suppressed:
                    continue
                flagged = {f.line for f in lint_source(marker.sub("#", source), path)}
                stale += [(path, n) for n in suppressed if n not in flagged]
        assert stale == []


class TestCliExitCodes:
    def test_clean_repo_exits_zero(self):
        from repro.analysis.cli import main

        assert main(["lint"]) == 0

    def test_violating_fixture_exits_nonzero(self, tmp_path, capsys):
        from repro.analysis.cli import main

        fixture = tmp_path / "dirty.py"
        fixture.write_text(
            "import time\n\ndef f(xs=[]):\n    return time.time()\n"
        )
        assert main(["lint", str(fixture)]) != 0
        out = capsys.readouterr().out
        assert "SIM001" in out
        assert "SIM004" in out
