"""CLI surface: ``repro load`` and ``repro obs-report --compare``."""

import json

import pytest

from repro.cli import main
from repro.bench.report import delta


def _run_load(tmp_path, *extra):
    return main(
        [
            "load",
            "--offered",
            "150000",
            "--protocols",
            "ford",
            "--duration-ms",
            "4",
            "--users",
            "32",
            *extra,
        ]
    )


class TestLoadCommand:
    def test_single_point_prints_a_curve_table(self, tmp_path, capsys):
        assert _run_load(tmp_path) == 0
        out = capsys.readouterr().out
        assert "ford" in out
        assert "co_p99us" in out
        assert "offered" in out

    def test_snapshot_roundtrip_and_html(self, tmp_path, monkeypatch):
        # Route BENCH_<name>.json into tmp_path so the committed
        # results directory is untouched.
        monkeypatch.setattr(
            "repro.bench.report.results_dir", lambda: str(tmp_path)
        )
        html = tmp_path / "curves.html"
        assert _run_load(tmp_path, "--snapshot", "LOADTEST", "--html", str(html)) == 0
        snapshot = tmp_path / "BENCH_LOADTEST.json"
        assert snapshot.exists()
        payload = json.loads(snapshot.read_text())
        assert payload["schema"] == "load/1"
        assert "ford" in payload["curves"]
        text = html.read_text()
        assert "<svg" in text
        assert "ford" in text

    @pytest.mark.parametrize(
        "argv",
        [
            ["load", "--baseline", "x"],
            ["load", "--tolerance", "0.1"],
            ["contention", "--baseline", "x"],
            ["contention", "--tolerance", "0.1"],
        ],
    )
    def test_virtual_sweeps_take_no_gate_options(self, argv, capsys):
        # Their numbers are pinned exactly by the golden: an argparse
        # error (exit 2) before anything runs.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_workload_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["load", "--workload", "nope", "--offered", "1000"])


class TestObsReportCompare:
    def _snapshot(self, tmp_path, name, achieved, commits):
        payload = {
            "schema": "load/1",
            "curves": {
                "pandora": {
                    "knee_offered_tps": None,
                    "points": [
                        {
                            "offered_tps": 100_000.0,
                            "achieved_tps": achieved,
                            "co_p50_us": 10.0,
                            "co_p99_us": 40.0,
                            "abort_rate": 0.1,
                            "commits": commits,
                        }
                    ],
                }
            },
        }
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_compare_prints_delta_table(self, tmp_path, capsys):
        a = self._snapshot(tmp_path, "a.json", achieved=90_000.0, commits=900)
        b = self._snapshot(tmp_path, "b.json", achieved=99_000.0, commits=990)
        assert main(["obs-report", "--compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "load snapshot delta" in out
        assert "+10.0%" in out

    def test_compare_steady_state_payloads(self, capsys):
        before = {"throughput_tps": 100.0, "p99_latency_us": 50.0, "commits": 10}
        after = {"throughput_tps": 80.0, "p99_latency_us": 60.0, "commits": 10}
        text = delta(before, after)
        assert "steady snapshot delta" in text
        assert "-20.0%" in text
        assert "+20.0%" in text
        assert "+0.0%" in text

    def test_obs_report_without_paths_or_compare_errors(self):
        with pytest.raises(SystemExit, match="needs TRACE.jsonl paths"):
            main(["obs-report"])
