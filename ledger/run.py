#!/usr/bin/env python3
"""The perf ledger: one end-to-end + per-layer benchmark for the simulator.

Two ways in, one measurement underneath:

* ``python3 ledger/run.py --seed 42`` runs the six workloads one after
  another (4 untraced repeats, then 1 traced repeat), prints every
  metric by name with its unit and clock, and writes
  ``ledger/results/latest.json``. ``--quick`` divides every virtual
  duration by 8 and takes one repeat.
* ``python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1``
  is the form BENCHMARK.json's driver calls: one workload, the same 4
  untraced repeats (``--trace 0``, end-to-end metrics) or one untraced
  and one traced repeat (``--trace 1``, per-layer metrics), and one JSON
  object on the last line of standard output.

Every repeat is a fresh child interpreter, started one after another
(the box has two cores; nothing here runs two at once), so ``setup_s``
and ``peak_rss_mb`` are per repeat. The box is shared and slow for
minutes at a time, so ``wall_s`` is the fastest repeat, and it,
``setup_s`` and the rates derived from them are in reference seconds:
scaled by a calibration loop timed between the repeats (calibrate.py).
The program under test is imported from ``src/`` next to this
directory; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # ``ledger/`` is a package; as a script this file sees only itself.
    sys.path[0] = str(ROOT)
sys.path.insert(0, str(ROOT / "src"))

from ledger import calibrate, metrics  # noqa: E402

RESULTS = ROOT / "ledger" / "results"
SCHEMA = "ledger/1"
QUICK_SCALE = 8
FULL_REPEATS = 4
SETUP_SAMPLES = 6
#: Calibration samples taken before every child and after the last.
CALIBRATION_BURST = 5


# -- one repeat, in a child interpreter ---------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Run one repeat of one workload; print its result as JSON."""
    started = time.perf_counter()
    try:
        from ledger import trace, workloads
    except ImportError as error:
        print(f"ledger: cannot import the program under test from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started
    import resource

    recorder = trace.SpanRecorder() if args.trace else None
    rep = workloads.Rep(
        args.seed, scale=args.scale, profiler=recorder, setup_only=args.setup_only,
        startup_s=time.time() - args.spawned_at, import_s=import_s,
    )
    run = workloads.WORKLOADS[args.workload]
    try:
        with trace.installed(recorder) if recorder is not None else contextlib.nullcontext():
            run(rep)
    except workloads.SetupOnly:
        print(json.dumps({"setup_s": rep.setup_s}))
        return 0
    rep.finish()
    result = {
        "setup_s": rep.setup_s,
        "wall_s": rep.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "failures": rep.failures,
        "exact": rep.exact,
        "host": rep.host,
    }
    if recorder is not None:
        result["trace"] = trace_metrics(recorder, rep)
        RESULTS.mkdir(exist_ok=True)
        recorder.dump(
            RESULTS / f"trace_{args.workload}.json",
            workload=args.workload, seed=args.seed, scale=args.scale, traced_wall_s=rep.wall_s,
        )
    print(json.dumps(result))
    return 0


def trace_metrics(recorder: Any, rep: Any) -> Dict[str, float]:
    """The ``trace.*`` per-layer metrics of one traced repeat."""
    wall_ns = rep.wall_s * 1e9
    commits = max(rep.commits, 1)
    out: Dict[str, float] = {}
    attributed = 0
    rollup = recorder.layer_rollup()
    for layer in metrics.TRACE_LAYERS:
        calls, self_ns = rollup[layer]
        attributed += self_ns
        out[f"trace.{layer}.self_s"] = self_ns / 1e9
        out[f"trace.{layer}.share"] = self_ns / wall_ns
        out[f"trace.{layer}.calls"] = calls
    out["trace.sim.dispatch_ns"] = recorder.site_mean_ns("sim", ("event:", "cb:"))
    out["trace.protocol.resume_ns"] = recorder.site_mean_ns("protocol", "resume:")
    out["trace.rdma.post_ns"] = recorder.site_mean_ns("rdma", "rdma.post")
    out["trace.rdma.complete_ns"] = recorder.site_mean_ns("rdma", "rdma.complete")
    out["trace.network.delay_ns"] = recorder.site_mean_ns("network", "network")
    out["trace.memory.apply_ns"] = recorder.site_mean_ns("memory", "apply:")
    for kind in metrics.VERB_MIX:
        out[f"trace.memory.{kind}_per_commit"] = recorder.calls("memory", f"apply:{kind}") / commits
    out["trace.unattributed_share"] = 1.0 - attributed / wall_ns
    # Every span's self time, named layer or not, against the traced wall.
    out["trace_coverage"] = sum(ns for _calls, ns in rollup.values()) / wall_ns
    return out


# -- the parent: spawn repeats, calibrate between them, aggregate -------------


def spawn(workload: str, seed: int, scale: int, traced: bool, setup_only: bool = False) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--scale", str(scale),
        "--trace", str(int(traced)), "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else 0.0


def summary(values: List[float], pick=statistics.median) -> dict:
    return {"value": pick(values), "median": statistics.median(values), "min": min(values),
            "max": max(values), "samples": list(values), "spread": spread(values)}


def measure(workload: str, seed: int, scale: int, *, full: bool, traced: bool) -> dict:
    """One workload, each repeat a fresh child, one after another.

    *full*: FULL_REPEATS untraced repeats and SETUP_SAMPLES set-ups (the
    repeats' own, then children that stop once they are ready to
    simulate); otherwise one repeat and its own set-up. *traced* adds one
    repeat under the recorder. The calibration loop is timed before
    every child and after the last. See :func:`fold`.
    """
    repeats, setup_samples = (FULL_REPEATS, SETUP_SAMPLES) if full else (1, 1)
    calibration: List[float] = []

    def child(traced: bool = False, setup_only: bool = False) -> dict:
        calibration.extend(calibrate.samples(CALIBRATION_BURST))
        return spawn(workload, seed, scale, traced, setup_only)

    reps = [child() for _ in range(repeats)]
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < setup_samples:
        setups.append(child(setup_only=True)["setup_s"])
    traced_rep = child(traced=True) if traced else None
    calibration.extend(calibrate.samples(CALIBRATION_BURST))
    return fold(workload, reps, setups, traced_rep, calibrate.quiet(calibration))


def fold(workload: str, reps: List[dict], setups: List[float], traced_rep: Optional[dict],
         calibration_s: float) -> dict:
    """Fold one workload's repeats into metric summaries.

    The work of a repeat is fixed, so what slows one is the box: the
    fastest repeat is reported. Times are scaled to reference seconds by
    the run's calibration time (*calibration_s*).
    """
    first = reps[0]
    failures = [text for rep in reps for text in rep["failures"]]
    failed = max(rep["failed"] for rep in reps)
    for rep in reps[1:]:
        for name in sorted(set(first["exact"]) | set(rep["exact"])):
            if first["exact"].get(name) != rep["exact"].get(name):
                failed += 1
                failures.append(f"exact metric {name} differs between repeats: "
                                f"{first['exact'].get(name)!r} vs {rep['exact'].get(name)!r}")

    speed = calibrate.REFERENCE_S / calibration_s  # below 1 on a slow box
    walls = [rep["wall_s"] * speed for rep in reps]
    exact = first["exact"]
    out: Dict[str, dict] = {
        "wall_s": summary(walls, min),
        "commits_per_wall_s": summary([exact["commits"] / wall for wall in walls], max),
        "setup_s": summary([setup * speed for setup in setups]),
        "peak_rss_mb": summary([rep["peak_rss_mb"] for rep in reps]),
        "sim.events_per_wall_s": summary([exact["sim.events"] / wall for wall in walls], max),
        "host.calibration_ms": {"value": calibration_s * 1e3},
    }
    for name, value in exact.items():
        out[name] = {"value": value}
    for name in first["host"]:
        values = [rep["host"][name] for rep in reps]
        # Ceilings per layer: the best repeat; ratios: the middle one.
        pick = statistics.median if metrics.BY_NAME[name].unit == "ratio" else min
        out[name] = summary(values, pick)

    if traced_rep is not None:
        rep = traced_rep
        failures += rep["failures"]
        failed = max(failed, rep["failed"])
        for name in ("sim.events", "commits", "chaos.fingerprint"):
            if rep["exact"].get(name) != exact.get(name):
                failed += 1
                failures.append(f"{name} differs under the recorder: {exact.get(name)!r} "
                                f"untraced vs {rep['exact'].get(name)!r} traced")
        for name, value in rep["trace"].items():
            out[name] = {"value": value}
        out["trace.overhead_ratio"] = {"value": rep["wall_s"] * speed / out["wall_s"]["value"]}
        out["traced_wall_s"] = {"value": rep["wall_s"] * speed}

    attempted = first["attempted"]
    out["failure_rate"] = {"value": failed / attempted if attempted else 1.0}
    return {
        "workload": workload,
        "metrics": out,
        "attempted": attempted,
        "failed": failed,
        "failures": list(dict.fromkeys(failures)),
        "repeats": len(reps),
    }


# -- output -------------------------------------------------------------------


def value_of(result: dict, name: str) -> float:
    entry = result["metrics"].get(name)
    return entry["value"] if entry is not None else 0.0


def format_value(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.4f}" if abs(value) < 1000 else f"{value:,.1f}"


def print_workload(result: dict, with_layers: bool) -> None:
    name = result["workload"]
    print(f"\n== {name}: {metrics.WORKLOADS[name]}")
    print(f"   repeats={result['repeats']} attempted={result['attempted']:,} "
          f"failed={result['failed']}")
    for text in result["failures"]:
        print(f"   FAILURE: {text}")
    print("   end to end:")
    for metric in metrics.END_TO_END:
        if name not in metric.on:
            continue
        entry = result["metrics"].get(metric.name)
        if entry is None:
            continue
        line = (f"     {metric.name:28s} {format_value(entry['value']):>16s} {metric.unit:8s} "
                f"[{metric.clock}]")
        if "samples" in entry:
            samples = " ".join(f"{sample:.4g}" for sample in entry["samples"])
            line += f"  samples: {samples}  spread {100 * entry['spread']:.1f}%"
            bound = metric.bound
            if bound is not None and len(entry["samples"]) > 1 and entry["spread"] > bound:
                line += "  UNRESOLVED (spread wider than the bound)"
        print(line)
    samples = result["metrics"]
    print(f"     latency samples: {format_value(value_of(result, 'latency_samples'))}"
          + "".join(f", co {label}: {format_value(samples[f'co_samples.{label}']['value'])}"
                    for label in ("r200k", "r400k", "r600k") if f"co_samples.{label}" in samples))
    if not with_layers:
        return
    print("   per layer:")
    for metric in metrics.PER_LAYER:
        entry = result["metrics"].get(metric.name)
        if entry is not None:
            print(f"     {metric.name:38s} {format_value(entry['value']):>16s} {metric.unit:8s} "
                  f"[{metric.clock}]")


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_ledger(args: argparse.Namespace) -> int:
    """The full ledger: every workload, untraced then traced."""
    scale = QUICK_SCALE if args.quick else 1
    results = []
    for name in metrics.WORKLOADS:
        result = measure(name, args.seed, scale, full=not args.quick, traced=True)
        print_workload(result, with_layers=True)
        results.append(result)
    payload = {
        "schema": SCHEMA,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": scale,
        "repeats": results[0]["repeats"],
        "workloads": {result["workload"]: result for result in results},
    }
    out = Path(args.out) if args.out else RESULTS / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    failed = sum(result["failed"] for result in results)
    print(f"\nwrote {out}; failure_rate {'0 on all workloads' if not failed else 'NON-ZERO'}")
    return 1 if failed else 0


def run_driver(args: argparse.Namespace) -> int:
    """One workload, in the form BENCHMARK.json's driver calls.

    The work of a repeat is fixed (virtual time), so ``--seconds`` buys
    nothing: ``--trace 0`` measures what the full ledger measures, and
    ``--trace 1`` one untraced and one traced repeat.
    """
    result = measure(args.workload, args.seed, 1, full=not args.trace, traced=bool(args.trace))
    wanted = metrics.benchmark_json()["per_layer" if args.trace else "end_to_end"]
    print_workload(result, with_layers=bool(args.trace))
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {"value": value_of(result, entry["name"]), "unit": entry["unit"]}
            for entry in wanted
        },
    }
    print(json.dumps(line))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS),
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="accepted for the driver; a repeat's work is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: virtual durations / 8, one repeat")
    parser.add_argument("--out", help="result file (default ledger/results/latest.json)")
    # One repeat in this interpreter; used by the parent only.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: the program under test is missing: {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload:
        return run_driver(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
