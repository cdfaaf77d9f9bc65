"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_litmus_defaults(self):
        args = build_parser().parse_args(["litmus"])
        assert args.protocol == "pandora"
        assert args.rounds == 30

    def test_steady_options(self):
        args = build_parser().parse_args(
            ["steady", "--workload", "tatp", "--protocol", "tradlog"]
        )
        assert args.workload == "tatp"
        assert args.protocol == "tradlog"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["steady", "--protocol", "raft"])

    def test_failover_crash_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["failover", "--crash", "disk"])


class TestCommands:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "log-recovery latency" in out

    def test_steady_runs(self, capsys):
        assert main(["steady", "--workload", "micro", "--duration-ms", "4"]) == 0
        assert "microbench" in capsys.readouterr().out

    def test_recovery_latency_runs(self, capsys):
        assert main(["recovery-latency", "--coordinators", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "latency (us)" in out

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["steady", "--workload", "nope"])


class TestChaosCommand:
    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seeds == 25
        assert args.seed_base == 0
        assert args.protocol == "pandora"
        assert not args.shrink

    def test_chaos_bank_runs_clean(self, capsys):
        assert main(["chaos", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos[seed=0" in out
        assert "2/2 schedule(s) clean" in out

    def test_chaos_replay_artifact(self, capsys, tmp_path):
        import pathlib

        artifact = sorted(
            (pathlib.Path(__file__).parents[1] / "chaos" / "schedules").glob("*.json")
        )[0]
        assert main(["chaos", "--replay", str(artifact)]) == 0
        assert "1/1 schedule(s) clean" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "artifact, names",
        [
            (None, ["cannot read schedule", "missing.json"]),
            ({"faults": [{"kind": "crash_compute", "att": 0.001}]}, ["fault 0", "'att'"]),
            ({"faults": [{"kind": "crash_computer"}]}, ["fault 0", "'crash_computer'"]),
            ({"protocol": "pandoro"}, ["unknown protocol 'pandoro'"]),
            (
                {"faults": [{"kind": "crash_point", "point": "decison"}]},
                ["fault 0", "unknown crash point 'decison'"],
            ),
        ],
    )
    def test_chaos_replay_of_a_bad_artifact_exits_2_in_one_line(
        self, capsys, tmp_path, artifact, names
    ):
        import json

        path = tmp_path / "missing.json"
        if artifact is not None:
            path = tmp_path / "artifact.json"
            path.write_text(json.dumps({"seed": 3, "family": "cascade", **artifact}))
        with pytest.raises(SystemExit) as exit_:
            main(["chaos", "--replay", str(path)])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        for name in names:
            assert name in captured.err

    def test_chaos_failure_exits_nonzero_and_writes_artifact(self, capsys, tmp_path):
        """A protocol with the published FORD bugs fails the oracle;
        the failing schedule lands in --out as replayable JSON."""
        from repro.chaos import Schedule

        out_dir = tmp_path / "artifacts"
        code = main(
            ["chaos", "--seeds", "1", "--protocol", "ford", "--out", str(out_dir)]
        )
        assert code == 1
        written = list(out_dir.glob("chaos-seed*.json"))
        assert len(written) == 1
        schedule = Schedule.from_json(written[0].read_text())
        assert schedule.protocol == "ford"


class TestPerfCommand:
    def test_perf_defaults(self):
        args = build_parser().parse_args(["perf"])
        assert args.workload == "micro"
        assert args.protocol == "pandora"
        assert not args.bench
        assert args.repeats == 3
        assert args.tolerance is None
        assert args.collapsed is None

    def test_perf_profile_run(self, capsys, tmp_path):
        collapsed = tmp_path / "kernel.folded"
        assert main([
            "perf", "--duration-ms", "2", "--collapsed", str(collapsed)
        ]) == 0
        out = capsys.readouterr().out
        assert "wall-clock by subsystem" in out
        assert "hottest sites" in out
        assert "verb-post wall time by txn phase" in out
        lines = collapsed.read_text().splitlines()
        assert lines, "no collapsed stacks written"
        # Every line is flamegraph.pl format: "frame;frame;... <ns>".
        for line in lines:
            path, ns = line.rsplit(" ", 1)
            assert path
            assert int(ns) > 0

    def test_perf_bench_gates_against_baseline(self, capsys, tmp_path, monkeypatch):
        """--bench --baseline exits 1 on a regression, 0 within tolerance."""
        import json

        from repro.bench import kernelperf
        from repro.bench.kernelperf import KernelPerfResult

        def fake_suite(eps):
            return [
                KernelPerfResult(
                    fleet="tiny", coordinators=2, keys=200,
                    virtual_duration=1e-3, steps=1000,
                    wall_seconds=1000 / eps, repeats=1,
                )
            ]

        baseline = tmp_path / "BENCH_KERNEL.json"
        baseline.write_text(
            json.dumps(kernelperf.suite_payload(fake_suite(100.0)))
        )

        monkeypatch.setattr(
            kernelperf, "run_suite", lambda repeats: fake_suite(90.0)
        )
        assert main(["perf", "--bench", "--baseline", str(baseline)]) == 0
        assert "within tolerance" in capsys.readouterr().out

        monkeypatch.setattr(
            kernelperf, "run_suite", lambda repeats: fake_suite(50.0)
        )
        assert main(["perf", "--bench", "--baseline", str(baseline)]) == 1
        assert "regression vs baseline" in capsys.readouterr().out

    def test_perf_bench_missing_baseline_exits(self, tmp_path, monkeypatch):
        from repro.bench import kernelperf

        monkeypatch.setattr(kernelperf, "run_suite", lambda repeats: [])
        with pytest.raises(SystemExit):
            main([
                "perf", "--bench", "--baseline", str(tmp_path / "missing.json")
            ])
