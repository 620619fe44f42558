"""Benchmark of the substratum toolkit: one workload per call, or all of them.

    python3 bench/run.py --workload check-corpus --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45

Each run starts fresh interpreters (bench/worker.py) with the environment
pinned: SUBSTRATUM_BUDGET at the toolkit's default, a fixed hash seed and no
site import.  One sets up, runs the timed phase and the independent checks;
it pauses at even intervals of the timed phase while another interpreter
only sets up, so that set-up time is a median over the whole run.  With ``--trace 0`` the
last stdout line holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones; ``--workload all`` runs every workload both ways and prints
every metric.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("check-corpus", "machine-build", "toeplitz-query")
ENV = {"SUBSTRATUM_BUDGET": "1000000", "PYTHONHASHSEED": "0"}
LIMIT_S = 170  # a whole run ends within this many seconds


class BenchError(Exception):
    pass


def _start(args: list[str]) -> tuple[subprocess.Popen, float]:
    env = dict(os.environ, **ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(
        # -S: no site import, so installed packages and .pth hooks stay out
        [sys.executable, "-S", WORKER, *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    return proc, start


def _ready(proc: subprocess.Popen, start: float) -> float:
    """Seconds from start until the worker has set up."""
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return time.perf_counter() - start


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """The measured run, with a set-up probe in each of its pauses; returns
    the worker's report."""
    began = time.perf_counter()
    args = [name, str(seed), repr(seconds), "1" if trace else "0"]
    proc, start = _start(args)
    setups = [_ready(proc, start)]
    while (line := proc.stdout.readline()).strip() == "PAUSE":
        probe, start = _start(args + ["--setup-only"])
        setups.append(_ready(probe, start))
        _finish(probe, LIMIT_S - (time.perf_counter() - began))
        proc.stdin.write("\n")
        proc.stdin.flush()
    out = line + _finish(proc, LIMIT_S - (time.perf_counter() - began))
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = statistics.median(setups)
    report["setup_runs"] = setups
    return report


def end_to_end(report: dict) -> dict:
    return {
        "setup_s": (report["setup_s"], "s"),
        "op_s.p50": (report["op_s.p50"], "s"),
        "op_s.p90": (report["op_s.p90"], "s"),
        "ops_per_s": (report["ops_per_s"], "1/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def per_layer(report: dict) -> dict:
    return {name: (report["per_layer"][name], unit) for name, unit in tracing.metric_names()}


def declared(kind: str) -> list[str]:
    """Metric names BENCHMARK.json declares for ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def describe(report: dict, metrics: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    ops = report["ops"]
    attempted, failed = report["attempted"], report["failed"]
    lines = [
        f"# {report['workload']} seed={report['seed']} trace={int(trace)}: {ops} operations "
        f"in {report['wall_s']:.2f} s, deadline {report['deadline_s']} s per operation",
        "# outcomes " + " ".join(f"{k}={v}" for k, v in report["outcomes"].items()),
        f"# failed_share = {failed / attempted:.4f} ({failed}/{attempted} attempted)",
        f"# checks: {report['checked']} distinct outputs, {report['unverified']} unverifiable, "
        f"correct={report['correct']}",
        "# corpus " + json.dumps(report["corpus"], sort_keys=True),
    ]
    lines += [f"# mismatch: {m}" for m in report["mismatches"]]
    lines += [f"# error: {e.strip().splitlines()[-1]}" for e in report["errors"]]
    samples = {
        "setup_s": f"median of {len(report['setup_runs'])} interpreters: "
        + " ".join(f"{s:.3f}" for s in report["setup_runs"]),
        "op_s.p50": f"n={ops}",
        "op_s.p90": f"n={ops}",
        "ops_per_s": f"n={ops}",
        "peak_rss_mb": "1 process",
    }
    if trace:
        traced = f"over {report['traced_ops']} traced operations"
        lines.append(
            f"# traced replay: {report['traced_ops']} operations, {report['traced_timeouts']} "
            f"timeouts, {report['trace_spans']} spans"
        )
    for name, (value, unit) in metrics.items():
        note = samples[name] if name in samples else traced
        lines.append(f"{name:<48} {value:>14.6g} {unit:<6} ({note})")
    if trace and report.get("trace_missing"):
        lines.append("# not wrapped: " + ", ".join(report["trace_missing"]))
    return lines


def result_line(report: dict, metrics: dict) -> dict:
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = (
        [(w, t) for w in WORKLOADS for t in (False, True)]
        if args.workload == "all"
        else [(args.workload, bool(args.trace))]
    )
    results = {}
    try:
        for name, trace in runs:
            report = run_workload(name, args.seed, args.seconds, trace)
            metrics = per_layer(report) if trace else end_to_end(report)
            if sorted(declared("per_layer" if trace else "end_to_end")) != sorted(metrics):
                raise BenchError("metric names differ from those BENCHMARK.json declares")
            if not all(math.isfinite(value) for value, _ in metrics.values()):
                raise BenchError("a metric is not a finite number")
            print("\n".join(describe(report, metrics, trace)), flush=True)
            results[f"{name}/trace={int(trace)}"] = result_line(report, metrics)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results.popitem()[1]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
