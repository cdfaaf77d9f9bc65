"""Command-line interface: run demos, litmus campaigns, and experiments.

Usage (also via ``python -m repro``)::

    python -m repro quickstart
    python -m repro litmus --protocol pandora --crash-probability 0.4
    python -m repro steady --workload smallbank --protocol tradlog
    python -m repro failover --workload tpcc --crash memory
    python -m repro recovery-latency --coordinators 1 8 32 64
    python -m repro perf --collapsed kernel.folded
    python -m repro perf --bench --baseline benchmarks/results/BENCH_KERNEL.json
    python -m repro load --workload smallbank --html curves.html
    python -m repro load --offered 300000 --protocols ford --oracle --progress
    python -m repro contention --protocols lotus vote1pc --thetas 1.5
    python -m repro contention --snapshot CONTENTION --html contention.html
    python -m repro obs-report --compare BENCH_A.json BENCH_B.json

Every command prints the same tables/series the benchmark harness
writes, so the paper's experiments are reproducible without pytest.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from repro.bench.harness import (
    run_failover,
    run_recovery_latency,
    run_steady_state,
)
from repro.bench.report import format_series, format_table
from repro.protocol.zoo import ZOO
from repro.workloads import MicroBenchmark, SmallBank, Tatp, TpcC

__all__ = ["main", "build_parser"]

PROTOCOLS = tuple(ZOO)


def _add_sanitize_flag(parser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable the PILL protocol sanitizer (repro.analysis): "
             "shadow the lock table at the verb layer and fail the run "
             "on any lock/log-discipline violation",
    )


def _add_obs_flags(parser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON of the run to PATH "
             "(open in chrome://tracing or ui.perfetto.dev); "
             "PATH ending in .jsonl writes one event per line instead",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the observability report (per-verb counts, "
             "per-phase latency histograms, recovery metrics)",
    )


def _add_snapshot_flags(parser, html: bool = True) -> None:
    parser.add_argument(
        "--snapshot", metavar="NAME", default=None,
        help="write benchmarks/results/BENCH_<NAME>.json with the results",
    )
    if html:
        parser.add_argument(
            "--html", metavar="PATH", default=None,
            help="write an HTML report with SVG curve plots to PATH",
        )


def _bad_input(message: str):
    """Exit 2: the input is wrong (1 means the run itself found something)."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _read_json(path: str, what: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        _bad_input(f"cannot read {what} {path!r}: {error}")


def _write_text(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as error:
        raise SystemExit(f"cannot write {what} to {path!r}: {error}")


def _finish_snapshot(args, payload, html_title: str = "Open-loop load curves") -> None:
    """The tail `perf --bench`, `load` and `contention` share: write the
    snapshot and the optional HTML."""
    from repro.bench.report import write_bench_snapshot

    if args.snapshot:
        write_bench_snapshot(args.snapshot, payload)
    if getattr(args, "html", None):  # perf --bench has no --html
        from repro.obs.report import render_load_html

        _write_text(args.html, render_load_html(payload, html_title), "HTML report")
        print(f"html report -> {args.html}")


def _gate_kernel(args, payload) -> int:
    """`perf --bench --baseline`: the one gate, a wall-time floor
    (virtual-time numbers are pinned exactly, never gated)."""
    from repro.bench.report import gate

    if not args.baseline:
        return 0
    kind = payload["schema"].split("/")[0]
    failures = gate(
        payload, _read_json(args.baseline, "baseline"), tolerance=args.tolerance
    )
    if failures:
        print(f"{kind} regression vs baseline:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"{kind}: within tolerance of {args.baseline}")
    return 0


def _build_obs(args):
    """An Obs facade when ``--trace``/``--metrics``/``--snapshot`` ask
    for one, else None. The flight recorder rides along whenever the
    facade exists — it is what the JSONL export, the obs-report
    subcommand, and BENCH snapshots are derived from."""
    wants = (
        getattr(args, "trace", None)
        or getattr(args, "metrics", False)
        or getattr(args, "snapshot", None)
    )
    if not wants:
        return None
    from repro.obs import Obs

    if getattr(args, "trace", None):
        # Open now so a bad path fails before the run, not after it.
        try:
            args._trace_handle = open(args.trace, "w")
        except OSError as error:
            raise SystemExit(f"cannot write trace to {args.trace!r}: {error}")
    return Obs(trace=bool(getattr(args, "trace", None)), flight=True)


def _finish_obs(obs, args, commits=None) -> None:
    if obs is None:
        return
    if args.trace:
        with args._trace_handle as handle:
            if args.trace.endswith(".jsonl"):
                # Full export: run meta + tracer events + flight records,
                # the format ``repro obs-report`` consumes.
                obs.export_jsonl(handle)
            else:
                obs.tracer.export_chrome(handle)
        print(
            f"trace: {len(obs.tracer)} events, "
            f"{len(obs.flight.attempts)} flight records -> {args.trace}"
        )
    if args.metrics:
        print()
        print(obs.report(commits if commits is not None else obs.commit_count()))
        if obs.flight.attempts:
            from repro.obs.report import from_obs, print_report

            print()
            print_report([from_obs(obs)])


def _workload_factory(name: str, write_ratio: float) -> Callable:
    factories: Dict[str, Callable] = {
        "micro": lambda: MicroBenchmark(num_keys=10_000, write_ratio=write_ratio),
        "smallbank": lambda: SmallBank(accounts=5_000),
        "tatp": lambda: Tatp(subscribers=2_000),
        "tpcc": lambda: TpcC(warehouses=2, customers_per_district=100, items=1_000),
    }
    try:
        return factories[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(factories)}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pandora (EDBT 2025) reproduction — simulated DKVS experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("quickstart", help="run the crash-and-recover demo")

    litmus = sub.add_parser("litmus", help="run the litmus validation suite")
    litmus.add_argument("--protocol", default="pandora", choices=PROTOCOLS)
    litmus.add_argument("--rounds", type=int, default=30)
    litmus.add_argument("--crash-probability", type=float, default=0.4)
    litmus.add_argument("--seed", type=int, default=5)
    _add_sanitize_flag(litmus)

    steady = sub.add_parser("steady", help="steady-state throughput")
    steady.add_argument("--workload", default="micro")
    steady.add_argument("--protocol", default="pandora", choices=PROTOCOLS)
    steady.add_argument("--write-ratio", type=float, default=1.0)
    steady.add_argument("--duration-ms", type=float, default=20.0)
    steady.add_argument(
        "--snapshot", metavar="NAME", default=None,
        help="write benchmarks/results/BENCH_<NAME>.json with the run's "
             "throughput, latency, and flight-recorder accounting",
    )
    _add_sanitize_flag(steady)
    _add_obs_flags(steady)

    failover = sub.add_parser("failover", help="crash a node mid-run")
    failover.add_argument("--workload", default="micro")
    failover.add_argument("--protocol", default="pandora", choices=PROTOCOLS)
    failover.add_argument("--crash", default="compute", choices=("compute", "memory"))
    failover.add_argument("--write-ratio", type=float, default=1.0)
    failover.add_argument("--reuse", action="store_true",
                          help="restart the failed compute node (reuse resources)")
    _add_sanitize_flag(failover)
    _add_obs_flags(failover)

    latency = sub.add_parser(
        "recovery-latency", help="Table 2: recovery latency sweep"
    )
    latency.add_argument("--workload", default="micro")
    latency.add_argument("--protocol", default="pandora", choices=PROTOCOLS)
    latency.add_argument(
        "--coordinators", type=int, nargs="+", default=[1, 8, 32, 64]
    )
    latency.add_argument("--write-ratio", type=float, default=1.0)
    _add_obs_flags(latency)

    chaos = sub.add_parser(
        "chaos",
        help="seeded multi-fault chaos campaign over the recovery path",
    )
    chaos.add_argument(
        "--seeds", type=int, default=25,
        help="number of consecutive seeds to run (default 25; "
             "any bank >= 5 spans all five fault families)",
    )
    chaos.add_argument(
        "--seed-base", type=int, default=0,
        help="first seed of the bank (default 0)",
    )
    chaos.add_argument("--protocol", default="pandora", choices=PROTOCOLS)
    chaos.add_argument(
        "--replay", metavar="SCHEDULE.json", default=None,
        help="replay one schedule artifact instead of generating a bank",
    )
    chaos.add_argument(
        "--shrink", action="store_true",
        help="delta-debug each failing schedule to a locally-minimal "
             "fault set before reporting it",
    )
    chaos.add_argument(
        "--out", metavar="DIR", default=None,
        help="write failing (minimized, with --shrink) schedules to DIR "
             "as replayable JSON artifacts",
    )
    _add_sanitize_flag(chaos)

    perf = sub.add_parser(
        "perf",
        help="wall-clock kernel profiling and events/sec benchmarks",
    )
    perf.add_argument(
        "--bench", action="store_true",
        help="run the events/sec fleet sweep (coordinators x key space) "
             "instead of a profiled steady-state run",
    )
    perf.add_argument("--workload", default="micro")
    perf.add_argument("--protocol", default="pandora", choices=PROTOCOLS)
    perf.add_argument("--write-ratio", type=float, default=1.0)
    perf.add_argument("--duration-ms", type=float, default=20.0)
    perf.add_argument(
        "--top", type=int, default=20,
        help="rows in the hottest-sites table (default 20)",
    )
    perf.add_argument(
        "--collapsed", metavar="PATH", default=None,
        help="write collapsed stacks to PATH (the 'a;b;c <ns>' format "
             "flamegraph.pl and speedscope ingest)",
    )
    perf.add_argument(
        "--repeats", type=int, default=3,
        help="with --bench: wall-time repeats per fleet (best is kept)",
    )
    _add_snapshot_flags(perf, html=False)  # with --bench
    perf.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="with --bench: gate events/sec against a committed "
             "BENCH_KERNEL.json and exit 1 below its floor "
             "(see docs/OBSERVABILITY.md)",
    )
    perf.add_argument(
        "--tolerance", type=float, default=None,
        help="fractional slowdown allowed vs the baseline "
             "(default: the baseline's own tolerance field, 0.25)",
    )

    report = sub.add_parser(
        "obs-report",
        help="render flight-recorder reports from --trace *.jsonl exports",
    )
    report.add_argument(
        "paths", nargs="*", metavar="TRACE.jsonl",
        help="one or more JSONL trace exports (repro <cmd> --trace out.jsonl)",
    )
    report.add_argument(
        "--html", metavar="PATH", default=None,
        help="also write a self-contained HTML report to PATH",
    )
    report.add_argument(
        "--check", action="store_true",
        help="exit 1 if any run violates the §4 logging claim",
    )
    report.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"), default=None,
        help="print a delta table between two snapshots of the same "
             "kind (kernel-perf, load, contention or steady) instead of a "
             "flight-recorder report",
    )

    from repro.load.arrivals import ARRIVAL_KINDS

    load = sub.add_parser(
        "load",
        help="open-loop load observatory: latency-vs-offered-load curves "
             "with live SLO monitors and workload invariants",
    )
    load.add_argument("--workload", default="smallbank")
    load.add_argument(
        "--protocols", nargs="+", default=["pandora", "ford", "tradlog"],
        choices=PROTOCOLS, metavar="PROTO",
        help="protocols to sweep over the same offered grid "
             "(default: pandora ford tradlog)",
    )
    load.add_argument(
        "--offered", type=float, nargs="+", default=None, metavar="TPS",
        help="explicit offered rates (tps) instead of the default grid "
             "(multiples of estimated closed-loop capacity)",
    )
    load.add_argument(
        "--arrivals", default="poisson", choices=sorted(ARRIVAL_KINDS),
        help="arrival process shaping the open-loop request stream",
    )
    load.add_argument(
        "--users", type=int, default=256,
        help="Zipf-skewed user population size (default 256)",
    )
    load.add_argument(
        "--theta", type=float, default=0.99,
        help="Zipf skew over users (default 0.99)",
    )
    load.add_argument("--duration-ms", type=float, default=10.0)
    load.add_argument(
        "--oracle", action="store_true",
        help="run end-of-run consistency checks: the chaos oracle plus "
             "the workload-level invariants (money conservation for "
             "smallbank, order-id consistency for tpcc)",
    )
    load.add_argument(
        "--crash-at-ms", type=float, default=None, metavar="MS",
        help="crash compute node 0 at this point in the measured window "
             "(chaos under load; pair with --oracle)",
    )
    load.add_argument(
        "--slo-p99-us", type=float, default=None, metavar="US",
        help="rolling-window p99 target; breaches are counted live",
    )
    load.add_argument(
        "--slo-abort-rate", type=float, default=None, metavar="FRAC",
        help="rolling-window abort-rate target (fraction, e.g. 0.05)",
    )
    load.add_argument(
        "--progress", action="store_true",
        help="print live SLO gauge lines during the run and per-point "
             "sweep progress",
    )
    _add_snapshot_flags(load)
    load.add_argument("--seed", type=int, default=42)

    from repro.load.contention import CONTENTION_PROTOCOLS, CONTENTION_THETAS

    contention = sub.add_parser(
        "contention",
        help="hot-key contention sweep: the 1k-key RMW microbenchmark "
             "at several Zipf skews across the full protocol zoo",
    )
    contention.add_argument(
        "--protocols", nargs="+", default=list(CONTENTION_PROTOCOLS),
        choices=PROTOCOLS, metavar="PROTO",
        help="protocols to sweep "
             f"(default: {' '.join(CONTENTION_PROTOCOLS)})",
    )
    contention.add_argument(
        "--thetas", type=float, nargs="+",
        default=list(CONTENTION_THETAS), metavar="S",
        help="Zipf skews over the hot keyspace "
             f"(default: {' '.join(str(t) for t in CONTENTION_THETAS)})",
    )
    contention.add_argument(
        "--offered", type=float, nargs="+",
        default=[150_000.0, 600_000.0], metavar="TPS",
        help="offered rates per (protocol, theta) pair "
             "(default: 150000 600000 — one sub-saturation point and "
             "one past the knee)",
    )
    contention.add_argument("--duration-ms", type=float, default=5.0)
    contention.add_argument(
        "--users", type=int, default=64,
        help="user population size (default 64)",
    )
    contention.add_argument(
        "--progress", action="store_true",
        help="print per-point progress lines during the sweep",
    )
    _add_snapshot_flags(contention)
    contention.add_argument("--seed", type=int, default=42)
    return parser


def _run_quickstart() -> int:
    from repro import Cluster, ClusterConfig

    workload = MicroBenchmark(num_keys=10_000, write_ratio=1.0)
    cluster = Cluster(ClusterConfig(protocol="pandora", seed=7), workload)
    cluster.start()
    cluster.run(until=0.010)
    cluster.crash_compute(0, at=0.010)
    cluster.run(until=0.040)
    record = cluster.recovery.records[0]
    stats = cluster.aggregate_stats()
    print(
        format_table(
            "Quickstart: compute crash at t=10ms under Pandora",
            ["metric", "value"],
            [
                ("detected at", f"{record.detected_at * 1e3:.2f} ms"),
                ("log-recovery latency", f"{record.log_recovery_latency * 1e6:.0f} us"),
                ("rolled forward / back", f"{record.rolled_forward} / {record.rolled_back}"),
                ("commits", stats.commits),
                ("stray locks stolen", stats.locks_stolen),
            ],
        )
    )
    return 0


def _cmd_litmus(args) -> int:
    from repro.litmus import LITMUS_SUITE, LitmusRunner

    failed = 0
    sanitizer_violations = 0
    for spec in LITMUS_SUITE():
        runner = LitmusRunner(
            spec,
            protocol=args.protocol,
            rounds=args.rounds,
            crash_probability=args.crash_probability,
            seed=args.seed,
            sanitize=args.sanitize,
        )
        report = runner.run()
        print(report.summary())
        if not report.passed:
            failed += 1
            for violation in report.violations[:3]:
                print(f"    {violation.description}")
        sanitizer = runner.cluster.sanitizer
        if sanitizer is not None and sanitizer.violations:
            sanitizer_violations += len(sanitizer.violations)
            print(f"    sanitizer: {len(sanitizer.violations)} violation(s)")
            for violation in sanitizer.violations[:3]:
                print(f"      [{violation.code}] {violation.message}")
    if sanitizer_violations:
        print(f"sanitizer flagged {sanitizer_violations} violation(s) total")
    return 1 if (failed or sanitizer_violations) else 0


def _cmd_steady(args) -> int:
    factory = _workload_factory(args.workload, args.write_ratio)
    obs = _build_obs(args)
    result = run_steady_state(
        factory, args.protocol, duration=args.duration_ms * 1e-3, obs=obs,
        sanitize=args.sanitize,
    )
    print(result.row())
    if args.snapshot:
        from repro.bench.report import bench_snapshot_payload, write_bench_snapshot

        write_bench_snapshot(args.snapshot, bench_snapshot_payload(result, obs))
    _finish_obs(obs, args, commits=result.commits)
    return 0


def _cmd_failover(args) -> int:
    factory = _workload_factory(args.workload, args.write_ratio)
    obs = _build_obs(args)
    result = run_failover(
        factory,
        args.protocol,
        crash_kind=args.crash,
        reuse_resources=args.reuse,
        obs=obs,
        sanitize=args.sanitize,
    )
    print(
        format_series(
            f"fail-over timeline ({args.workload}, {args.protocol}, "
            f"{args.crash} crash{', reuse' if args.reuse else ''})",
            result.series,
            markers=[(result.crash_at, "crash")],
        )
    )
    print(
        f"pre={result.pre_rate / 1e6:.3f} Mtps  "
        f"during={result.during_rate / 1e6:.3f}  "
        f"post={result.post_rate / 1e6:.3f}"
    )
    _finish_obs(obs, args)
    return 0


def _cmd_recovery_latency(args) -> int:
    factory = _workload_factory(args.workload, args.write_ratio)
    obs = _build_obs(args)
    rows = []
    for coordinators in args.coordinators:
        result = run_recovery_latency(
            factory,
            coordinators_per_node=coordinators,
            protocol=args.protocol,
            crash_at=6e-3,
            obs=obs,
        )
        rows.append((coordinators, f"{result.latency * 1e6:9.1f}"))
    print(
        format_table(
            f"log-recovery latency ({args.workload}, {args.protocol})",
            ["coordinators/node", "latency (us)"],
            rows,
        )
    )
    _finish_obs(obs, args)
    return 0


def _cmd_chaos(args) -> int:
    import os
    from dataclasses import replace

    from repro.chaos import (
        Schedule,
        generate_schedule,
        run_schedule,
        shrink_schedule,
    )

    if args.replay:
        try:
            schedules = [Schedule.from_dict(_read_json(args.replay, "schedule"))]
        except ValueError as error:
            _bad_input(f"bad schedule {args.replay!r}: {error}")
    else:
        schedules = [
            replace(generate_schedule(seed), protocol=args.protocol)
            for seed in range(args.seed_base, args.seed_base + args.seeds)
        ]

    failures = 0
    for schedule in schedules:
        result = run_schedule(schedule, sanitize=args.sanitize)
        print(result.summary())
        if result.ok:
            continue
        failures += 1
        for violation in result.violations[:5]:
            print(f"    [{violation.code}] {violation.detail}")
        artifact = schedule
        if args.shrink:
            def fails(candidate, _sanitize=args.sanitize):
                return not run_schedule(candidate, sanitize=_sanitize).ok

            artifact, runs = shrink_schedule(schedule, fails=fails)
            print(
                f"    shrunk {len(schedule.faults)} -> "
                f"{len(artifact.faults)} fault(s) in {runs} run(s)"
            )
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"chaos-seed{schedule.seed}.json")
            with open(path, "w") as handle:
                handle.write(artifact.to_json() + "\n")
            print(f"    wrote {path}")
    total = len(schedules)
    print(f"chaos campaign: {total - failures}/{total} schedule(s) clean")
    return 1 if failures else 0


def _cmd_perf(args) -> int:
    from repro.bench import kernelperf

    if args.bench:
        results = kernelperf.run_suite(repeats=args.repeats)
        print(kernelperf.format_suite(results))
        payload = kernelperf.suite_payload(results, tolerance=args.tolerance)
        _finish_snapshot(args, payload)
        return _gate_kernel(args, payload)

    # Profiled steady-state run: wall-time attribution per subsystem /
    # site / txn phase. A lightweight Obs (no tracer, no flight) rides
    # along purely so TxnTrace.focus asserts phases to the profiler.
    from repro.obs import Obs
    from repro.obs.profile import KernelProfiler

    factory = _workload_factory(args.workload, args.write_ratio)
    profiler = KernelProfiler()
    obs = Obs(trace=False, flight=False)
    profiler.run_begin()
    result = run_steady_state(
        factory,
        args.protocol,
        duration=args.duration_ms * 1e-3,
        obs=obs,
        profiler=profiler,
    )
    profiler.run_end()
    print(result.row())
    print()
    print(profiler.report(top=args.top))
    print(
        "note: 'run wall' brackets cluster build + run; use "
        "`repro perf --bench` for clean events/sec numbers."
    )
    if args.collapsed:
        _write_text(
            args.collapsed,
            "".join(line + "\n" for line in profiler.collapsed()),
            "collapsed stacks",
        )
        print(f"collapsed stacks -> {args.collapsed}")
    return 0


def _load_workload_setup(name: str, oracle: bool):
    """(factory, monitor_factory) for one ``repro load`` run.

    The load sizes are smaller than the steady-state ones: open-loop
    points build a fresh cluster per (protocol, offered) pair, and the
    Zipf population concentrates traffic on a hot subset anyway.
    With ``--oracle``, smallbank switches to its conserving-only mix so
    the money-conservation invariant is exact, and tpcc gains the
    order-id monitor.
    """
    from repro.load import ConservationMonitor, OrderIdMonitor

    if name == "smallbank":
        factory = lambda: SmallBank(  # noqa: E731
            accounts=2_000, hot_accounts=500, conserving_only=oracle
        )
        monitors = (lambda w: [ConservationMonitor(w)]) if oracle else None
        return factory, monitors
    if name == "tatp":
        return (lambda: Tatp(subscribers=2_000)), None
    if name == "tpcc":
        factory = lambda: TpcC(  # noqa: E731
            warehouses=2, customers_per_district=100, items=1_000
        )
        monitors = (lambda w: [OrderIdMonitor(w)]) if oracle else None
        return factory, monitors
    if name == "micro":
        return (lambda: MicroBenchmark(num_keys=10_000, write_ratio=1.0)), None
    raise SystemExit(
        f"unknown workload {name!r}; "
        "choose from ['micro', 'smallbank', 'tatp', 'tpcc']"
    )


def _cmd_load(args) -> int:
    from repro.load import (
        SloMonitor,
        format_curves,
        make_arrivals,
        run_sweep,
        sweep_payload,
    )

    factory, monitor_factory = _load_workload_setup(args.workload, args.oracle)
    progress = print if args.progress else None
    slo_factory = None
    if args.slo_p99_us or args.slo_abort_rate or args.progress:
        slo_factory = lambda: SloMonitor(  # noqa: E731
            p99_target=(
                args.slo_p99_us * 1e-6 if args.slo_p99_us else None
            ),
            abort_rate_target=args.slo_abort_rate,
            progress=progress,
        )
    crash_compute = []
    if args.crash_at_ms is not None:
        crash_compute.append((0, args.crash_at_ms * 1e-3))
    curves = run_sweep(
        factory,
        protocols=args.protocols,
        grid=args.offered,
        duration=args.duration_ms * 1e-3,
        arrivals=make_arrivals(args.arrivals),
        users=args.users,
        zipf_theta=args.theta,
        monitor_factory=monitor_factory,
        check_oracle=args.oracle,
        progress=progress,
        slo_factory=slo_factory,
        crash_compute=crash_compute,
        seed=args.seed,
    )
    print(format_curves(curves))
    violations = sum(
        len(point.violations) for curve in curves for point in curve.points
    )
    if violations:
        print(f"load oracle: {violations} violation(s) — see tables above")
    _finish_snapshot(args, sweep_payload(curves))
    return 1 if violations else 0


def _cmd_contention(args) -> int:
    from repro.load import (
        contention_payload,
        format_contention,
        run_contention_sweep,
    )

    curves = run_contention_sweep(
        protocols=args.protocols,
        thetas=args.thetas,
        grid=args.offered,
        duration=args.duration_ms * 1e-3,
        users=args.users,
        seed=args.seed,
        progress=print if args.progress else None,
    )
    print(format_contention(curves))
    _finish_snapshot(
        args, contention_payload(curves), html_title="Hot-key contention sweep"
    )
    return 0


def _cmd_obs_report(args) -> int:
    from repro.obs.report import (
        check_log_write_claim,
        load_jsonl,
        print_report,
        render_html,
    )

    if args.compare:
        from repro.bench.report import delta

        before, after = (_read_json(path, "snapshot") for path in args.compare)
        print(delta(before, after, *args.compare))
        if not args.paths:
            return 0
    elif not args.paths:
        raise SystemExit(
            "obs-report needs TRACE.jsonl paths or --compare A.json B.json"
        )

    runs = []
    for path in args.paths:
        try:
            runs.append(load_jsonl(path))
        except OSError as error:
            raise SystemExit(f"cannot read trace {path!r}: {error}")
    print_report(runs)
    if args.html:
        _write_text(args.html, render_html(runs), "HTML report")
        print(f"html report -> {args.html}")
    if args.check:
        violations = sum(
            claim["violations"] for run in runs for claim in check_log_write_claim(run)
        )
        if violations:
            print(f"logging claim check FAILED: {violations} violation(s)")
            return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "quickstart": lambda a: _run_quickstart(),
        "litmus": _cmd_litmus,
        "steady": _cmd_steady,
        "failover": _cmd_failover,
        "recovery-latency": _cmd_recovery_latency,
        "chaos": _cmd_chaos,
        "perf": _cmd_perf,
        "obs-report": _cmd_obs_report,
        "load": _cmd_load,
        "contention": _cmd_contention,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
