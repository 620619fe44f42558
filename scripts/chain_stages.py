"""Mean time of each stage of the construction chain, cold, per operation.

    python scripts/chain_stages.py SRC_DIR [--seed N]

Imports ``substratum`` from SRC_DIR and runs the stages of the benchmark's
``machine-build`` operation (``bench/workloads.py``) on ``machine_corpus(N)``
of ``bench/corpus.py`` in order, ``OPS`` operations in all, clearing every
``lru_cache`` of the toolkit before each one.  It prints the mean µs of each
stage per operation and their sum, then the process's ``ru_maxrss`` and
``sys.getallocatedblocks()`` after the last operation.  Run it once per
checkout, each in a fresh interpreter, to compare two checkouts layer by
layer at an equal operation count.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPS = 2000  # cold operations per run


def stages():
    """(name, call) of each stage; a call takes the substitution and the
    results of the stages before it, and returns its own result."""
    from substratum import automata, kernel, semigroup, toeplitz
    from substratum.errors import Refusal

    def reduced_graph(sub, done):
        return None if done["gate"] is None else toeplitz.reduced_graph(sub)

    def gate(sub, done):
        try:
            return toeplitz.gate(sub)
        except Refusal:
            return None

    return [
        ("simplify", lambda sub, done: sub.simplify()),
        ("build_direct", lambda sub, done: automata.build_direct(sub)),
        ("build_reverse_semigroup", lambda sub, done: automata.build_reverse_semigroup(sub)),
        ("reverse_and_determinize", lambda sub, done: automata.reverse_and_determinize(done["build_direct"])),
        ("minimize reverse", lambda sub, done: automata.minimize(done["build_reverse_semigroup"])),
        ("minimize determinized", lambda sub, done: automata.minimize(done["reverse_and_determinize"])),
        (
            "equivalent",
            lambda sub, done: automata.equivalent(done["build_reverse_semigroup"], done["reverse_and_determinize"]),
        ),
        ("enumerate_kernel", lambda sub, done: kernel.enumerate_kernel(sub)),
        ("closure", lambda sub, done: semigroup.closure(sub.columns())),
        ("structure_semigroup", lambda sub, done: semigroup.structure_semigroup(sub)),
        ("gate", gate),
        ("reduced_graph", reduced_graph),
    ]


def caches() -> list:
    """cache_clear of every lru_cache in the toolkit's modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "substratum" or name.startswith("substratum."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    found[id(value)] = clear
    return list(found.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", metavar="SRC_DIR")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]
    os.environ.setdefault("SUBSTRATUM_BUDGET", "1000000")
    import corpus

    subs = [e.sub for e in corpus.machine_corpus(args.seed)]
    chain = stages()
    clears = caches()
    totals = dict.fromkeys([name for name, _ in chain], 0.0)
    clock = time.perf_counter
    for k in range(OPS):
        sub = subs[k % len(subs)]
        for clear in clears:
            clear()
        done: dict = {}
        for name, call in chain:
            start = clock()
            done[name] = call(sub, done)
            totals[name] += clock() - start
    width = max(map(len, totals))
    for name, total in totals.items():
        print(f"{name:<{width}}  {total / OPS * 1e6:9.1f} µs")
    print(f"{'all stages':<{width}}  {sum(totals.values()) / OPS * 1e6:9.1f} µs")
    print(f"operations {OPS} on {len(subs)} inputs of machine_corpus({args.seed})")
    print(f"ru_maxrss {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.2f} MB")
    print(f"allocated blocks {sys.getallocatedblocks()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
