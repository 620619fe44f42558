"""One benchmark run inside a fresh interpreter; started by run.py.

Usage: worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]

Set-up imports the toolkit from the checkout's ``src/`` (and from nowhere
else), generates and validates the corpus, then prints ``READY``.  The timed
phase is a closed loop with one client: each operation starts when the
previous one has finished, in the corpus order, wrapping around, until
SECONDS have passed.  Every operation runs under a deadline enforced here by
SIGALRM, as a guard: no corpus input comes near it.  The independent checks
run after the timed phase.

The timed phase pauses PROBE_PAUSES times, at even intervals of its measured
time (the first at its start): the process prints ``PAUSE`` and waits for a
line on stdin, while run.py times one more set-up in a fresh interpreter.
Host speed on small VMs changes within seconds, and probes spread over the
run give a set-up median that follows the run rather than one moment of it.

With TRACE 1 the timed phase lasts SECONDS/2, and the same operations are then
replayed with span tracing installed.  The last stdout line is one JSON object
with the results.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import sys
import time
import traceback
from array import array
from collections import Counter
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Per-operation deadline; an operation still running then counts as a timeout.
# Corpus operations take well under 1 s; this only keeps a run that goes
# wrong within the time a run may take.
DEADLINE_S = 10.0
# Set-up probes per run, each in a pause of the timed phase.
PROBE_PAUSES = 6


class Deadline(BaseException):
    """Raised by SIGALRM inside an operation that overran DEADLINE_S.

    A BaseException, so that no ``except Exception`` in the toolkit swallows it.
    """


def _on_alarm(signum, frame):
    raise Deadline


def import_toolkit():
    sys.path.insert(0, SRC)
    import substratum

    if not os.path.abspath(substratum.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"substratum was imported from {substratum.__file__}, not from {SRC}")
    return substratum


def toolkit_caches() -> list:
    """cache_clear of every lru_cache in the toolkit's namespaces."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "substratum" or name.startswith("substratum."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    found[id(value)] = clear
    return list(found.values())


class Phase(NamedTuple):
    durations: array
    outcomes: list
    wall_s: float
    unstable: set  # positions whose output changed between repeats
    errors: list  # tracebacks of the first operations that ended in an error
    # traced ÷ untraced time of the operations finished in both runs (replay only)
    ratio: float


def wait_for_probe() -> None:
    print("PAUSE", file=sys.__stdout__, flush=True)
    sys.stdin.readline()


def run_ops(workload, caches, *, seconds=None, reference=None, tracer=None, evidence=None) -> Phase:
    """Run operations in order until ``seconds`` of measured time pass,
    pausing PROBE_PAUSES times for set-up probes; or replay the operations of
    the ``reference`` phase."""
    from substratum.errors import Overflow, Refusal
    from workloads import ERROR, OVERFLOW, REFUSED, TIMEOUT

    ops, call, classify = workload.ops, workload.call, workload.outcome
    caches = caches if workload.cold else ()
    durations = array("d")
    outcomes: list[str] = []
    unstable: set[int] = set()
    errors: list[str] = []
    clock = time.perf_counter
    traced_s = untraced_s = 0.0  # over operations finished in both runs
    pauses = [] if reference is not None else [seconds * i / PROBE_PAUSES for i in range(PROBE_PAUSES)]
    start = clock()
    k = 0
    while (k < len(reference.outcomes)) if reference is not None else (clock() - start < seconds):
        if pauses and clock() - start >= pauses[0]:
            pauses.pop(0)
            paused = clock()
            wait_for_probe()
            start += clock() - paused  # a pause is not measured time
        pos = k % len(ops)
        op = ops[pos]
        for clear in caches:
            clear()
        if tracer is not None:
            tracer.begin_op(k)
        result = None
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        t0 = clock()
        try:
            try:
                result = call(op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = classify(result)
        except Deadline:
            outcome = TIMEOUT
        except Overflow:
            outcome = OVERFLOW
        except Refusal:
            outcome = REFUSED
        except Exception:  # any other failure is recorded and the run goes on
            outcome = ERROR
            if len(errors) < 3:
                errors.append(traceback.format_exc())
        durations.append(clock() - t0)
        if tracer is not None:
            tracer.end_op()
        if reference is not None and outcome != TIMEOUT != reference.outcomes[k]:
            traced_s += durations[-1]
            untraced_s += reference.durations[k]
        if evidence is not None and result is not None:
            seen = workload.evidence(op, result)
            if evidence.setdefault(pos, seen) != seen:
                unstable.add(pos)
        result = None
        outcomes.append(outcome)
        k += 1
    ratio = traced_s / untraced_s if untraced_s else math.nan
    return Phase(durations, outcomes, clock() - start, unstable, errors, ratio)


def check_outputs(workload, evidence, unstable):
    """Independent checks, once per distinct operation.  Returns
    (positions with a mismatch -> message, number checked, number unverified)."""
    from workloads import UNVERIFIED

    mismatches: dict[int, str] = {pos: "output changed between repeats" for pos in unstable}
    unverified = 0
    for pos, seen in evidence.items():
        if pos in mismatches:
            continue
        verdict = workload.verify(workload.ops[pos], seen)
        if verdict == UNVERIFIED:
            unverified += 1
        elif verdict is not None:
            mismatches[pos] = verdict
    return mismatches, len(evidence), unverified


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv[4:]
    import_toolkit()
    import corpus
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, OUT)
    # protocol lines go to the real stdout: an operation cut off by its
    # deadline may leave sys.stdout redirected
    print("READY", file=sys.__stdout__, flush=True)
    if setup_only:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    caches = toolkit_caches()
    evidence: dict = {}
    phase_s = seconds / 2 if trace else seconds
    phase = run_ops(workload, caches, seconds=phase_s, evidence=evidence)
    outcomes, wall = phase.outcomes, phase.wall_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    mismatches, checked, unverified = check_outputs(workload, evidence, phase.unstable)
    final = [
        workloads.WRONG if k % len(workload.ops) in mismatches else outcome
        for k, outcome in enumerate(outcomes)
    ]
    counts = Counter(workload.setup_outcomes) + Counter(final)
    attempted = sum(counts.values())
    failed = sum(counts[o] for o in workloads.FAILED)
    ordered = sorted(phase.durations)
    report = {
        "workload": name,
        "seed": seed,
        "deadline_s": DEADLINE_S,
        "ops": len(outcomes),
        "wall_s": wall,
        "op_s.p50": nearest_rank(ordered, 0.5),
        "op_s.p90": nearest_rank(ordered, 0.9),
        "ops_per_s": len(outcomes) / wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "outcomes": {o: counts[o] for o in workloads.OUTCOMES},
        "correct": not mismatches,
        "mismatches": sorted(set(mismatches.values()))[:5],
        "checked": checked,
        "unverified": unverified,
        "errors": phase.errors,
        "corpus": {
            "inputs": len(workload.entries),
            "operations": len(workload.ops),
            "families": dict(Counter(e.family for e in workload.entries)),
            "why": {f: corpus.WHY[f] for f in sorted({e.family for e in workload.entries})},
            "seed_periods": corpus.period_mix(workload.entries),
        },
    }

    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        traced = run_ops(workload, caches, reference=phase, tracer=tracer)
        tracer.write(os.path.join(OUT, f"spans-{name}.bin"))
        report["per_layer"] = tracer.metrics(len(outcomes), traced.ratio - 1.0)
        report["trace_spans"] = tracer.span_count()
        report["traced_ops"] = len(outcomes)
        report["traced_timeouts"] = traced.outcomes.count(workloads.TIMEOUT)
        report["trace_missing"] = tracer.missing

    print(json.dumps(report), file=sys.__stdout__, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
