"""Seeded corpus generator for the three benchmark workloads.

Every generated input is a valid, primitive substitution; generated inputs are
deduplicated by value.  Two-sided seeds are drawn from the cycles of the end
columns.

The timed workloads hold only inputs on which every operation succeeds
today, and they are chosen by structure, never by running the toolkit, so a
later change to the toolkit cannot change them.  ``check-corpus`` keeps
alphabets of 2 or 3 letters, seeds whose letters are fixed by the end
columns (period 1) and reach class 0; ``machine-build`` keeps reverse machines below 2^7 states with reach
below 2^12 and lengths 2..4.  bench/README.md lists the inputs left out and
how they fail.

Random inputs are stratified into cells (length for ``check-corpus``, reverse-machine size class and length for
``machine-build``, alphabet size and length for ``toeplitz-query``).  Every
round draws a fixed number of inputs per cell, and the cells of a round are
visited in one fixed order that does not depend on the seed, so any two
seeds give a run the same mix of cells.  That keeps the run-to-run spread of
the timings low, while the draw inside each cell still changes with the
seed.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass

from substratum import Substitution
from substratum.substitution import Alphabet

LETTERS = "abcdefgh"

# Families, with the reason each was chosen.
WHY = {
    "paper": "worked examples: period-doubling, its simplified form, bigdiag, "
    "Thue-Morse, height-two",
    "random-small": "uniform random rules, |A| 2..3, with both seed letters fixed "
    "by the end columns and reach class 0, one per length 2..4 per round",
    "memory-peak": "a 6-letter, length-3 input whose construction chain raises peak "
    "memory by about 16 MB, more than any other input seen; peak memory is a maximum "
    "over the run, and two of ten random draws held an input like it, so every run "
    "gets this one",
    "random-machine": "column ranks from {2, 3, |A|//2+1}, |A| 4..6, a fixed quota "
    "per cell of reverse-machine size class (below 2^5, 2^5..2^6, 2^6..2^7 states) "
    "x length 2..4 each round (7 cells), reach below 2^12; uniform rules on 4..8 letters "
    "generate monoids beyond the state budget",
    "coincidence": "pd2 and bigdiag, plus random rules with column ranks from "
    "{1, 2, 3}, |A| 2..5, length 2..5, so most pass the Toeplitz gate",
}


@dataclass(frozen=True)
class Entry:
    """One corpus input with the family it came from."""

    family: str
    sub: Substitution


def paper_examples() -> list[Entry]:
    pd = Substitution.from_parts(["a", "b"], 2, {"a": "ab", "b": "aa"}, seed=["a", "a"])
    subs = [
        pd,
        pd.simplify()[0],
        Substitution.from_parts(
            ["a", "b", "c"], 3, {"a": "acb", "b": "baa", "c": "bba"}, seed=["b", "a"]
        ),
        Substitution.from_parts(["a", "b"], 2, {"a": "ab", "b": "ba"}, seed=["b", "a"]),
        Substitution.from_parts(["a", "b"], 3, {"a": "aba", "b": "bab"}, seed=["b", "a"]),
    ]
    return [Entry("paper", s) for s in subs]


def _random_map(rng: random.Random, size: int, rank: int) -> list[int]:
    image = rng.sample(range(size), rank)
    while True:
        table = [rng.choice(image) for _ in range(size)]
        if len(set(table)) == rank:
            return table


def _random_rules(rng, size, ell, ranks) -> tuple[tuple[int, ...], ...]:
    if ranks is None:
        return tuple(tuple(rng.randrange(size) for _ in range(ell)) for _ in range(size))
    while True:
        col_ranks = [min(rng.choice(ranks), size) for _ in range(ell)]
        if sum(col_ranks) >= size:  # else some letter is in no image: not primitive
            break
    cols = [_random_map(rng, size, rank) for rank in col_ranks]
    return tuple(tuple(cols[i][a] for i in range(ell)) for a in range(size))


def random_primitive(rng, size, ell, ranks=None, periodic=None, attempts=400):
    """A random primitive substitution with a seed drawn from the end-column cycles.

    ``periodic`` = (right, left) asks for seed letters that are (True) or are
    not (False) merely periodic; None takes any cyclic pair.  Returns None when
    no draw within ``attempts`` fits the request.
    """
    alphabet = Alphabet(tuple(LETTERS[:size]))
    for _ in range(attempts):
        rules = _random_rules(rng, size, ell, ranks)
        if len({o for rule in rules for o in rule}) < size:
            continue  # a letter in no image is never reached: not primitive
        # the cheap seed test first; neither test draws from rng
        rights = _cycle_lengths([rule[0] for rule in rules])
        lefts = _cycle_lengths([rule[-1] for rule in rules])
        pairs = [
            (a_l, a_r)
            for a_l, p_l in enumerate(lefts)
            if p_l
            for a_r, p_r in enumerate(rights)
            if p_r and (periodic is None or periodic == (p_r > 1, p_l > 1))
        ]
        if pairs and Substitution(alphabet, ell, rules).is_primitive():
            return Substitution(alphabet, ell, rules, rng.choice(pairs))
    return None


def _cycle_lengths(table: list[int]) -> list[int | None]:
    """Per letter, the length of the cycle of ``table`` through it, or None."""
    lengths: list[int | None] = []
    for a in range(len(table)):
        x, k = table[a], 1
        while x != a and k <= len(table):
            x, k = table[x], k + 1
        lengths.append(k if x == a else None)
    return lengths


def _fixed_order(cells: list, name: str) -> list:
    """The cells in a permutation that depends on the workload, not the seed."""
    order = list(cells)
    random.Random(f"{name}:cell-order").shuffle(order)
    return order


def _rounds(rng, cells, rounds, family, draw, taken=()) -> list[Entry]:
    """One input per cell per round, redrawing inputs equal to earlier ones."""
    seen = {(e.sub.rules, e.sub.seed) for e in taken}
    out: list[Entry] = []
    for _round in range(rounds):
        for cell in cells:
            for _attempt in range(20):
                sub = draw(rng, cell)
                if sub is None:
                    break
                if (sub.rules, sub.seed) not in seen:
                    seen.add((sub.rules, sub.seed))
                    out.append(Entry(family, sub))
                    break
    return out


def column_bfs(sub: Substitution, max_depth: int, max_nodes: int) -> tuple[int, int]:
    """(depth, nodes) of the breadth-first search over the column maps composed
    from the identity with the seed's word-length phase, stopped at
    ``max_depth`` levels or once ``max_nodes`` nodes are found.  The nodes are
    the states of the reverse machine, before minimization.  Computed on plain
    tuples, independently of the toolkit.
    """
    cols = [tuple(rule[i] for rule in sub.rules) for i in range(sub.length)]
    period = sub.seed_period()
    start = (tuple(range(len(sub.rules))), 0)
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier and depth < max_depth and len(seen) < max_nodes:
        nxt = []
        for table, phase in frontier:
            for col in cols:
                node = (tuple(map(table.__getitem__, col)), (phase + 1) % period)
                if node not in seen:
                    seen.add(node)
                    nxt.append(node)
                    if len(seen) >= max_nodes:
                        return depth + 1, len(seen)
        frontier = nxt
        depth += 1 if nxt else 0
    return depth, len(seen)


def reach_class(sub: Substitution) -> int:
    """log2(ell^depth) in steps of 2, from 0 (below 2^6) to 4 (2^12 and up).

    Kernel samples expand the fixed point to about ell^depth letters, so the
    class predicts the cost of ``check`` better than alphabet size or length.
    """
    bits_per_level = math.log2(sub.length)
    depth, _ = column_bfs(sub, math.ceil(12 / bits_per_level), math.inf)
    return min(max(int(depth * bits_per_level) // 2 - 2, 0), 4)


def check_corpus(seed: int, rounds: int = 40) -> list[Entry]:
    """The paper examples, then per round one input of reach class 0 for
    each length 2..4, on 2 or 3 letters, with both seed letters fixed by the
    end columns.  Every draw on which ``check`` failed (exit 3 from the
    brute-force kernel check) had 4 letters: 8 of 370 at reach class 1, and
    2 of about 5000 at class 0."""
    rng = random.Random(f"check-corpus:{seed}")
    cells = _fixed_order(list(range(2, 5)), "check-corpus")

    def draw(rng, ell):
        for _ in range(500):
            sub = random_primitive(rng, rng.randint(2, 3), ell, periodic=(False, False))
            if sub is not None and reach_class(sub) == 0:
                return sub
        return None

    fixed = paper_examples()
    return fixed + _rounds(rng, cells, rounds, "random-small", draw, fixed)


# Cells of machine-build, (size class, length), with their inputs per round
# of 18.  The size class is the bit length of the reverse machine's state
# count: 5 for below 2^5 states, 6 for 2^5..2^6, 7 for 2^6..2^7.  Both the
# class and the length set an input's cost: the mean chain time grows 20-fold
# from (5, 2) to (7, 3), while inside a cell it varies by about half its mean.
# The quotas follow the shares of the cells among 270 unstratified draws,
# except that (5, 4) and (7, 4) are left out: 1% and 3% of those draws, they
# take about 150 draws each to fill, which would triple the set-up time.  The
# alphabet has 4..6 letters: 7 or 8 letters with column ranks this low rarely
# give a machine this small, and drawing them doubled the set-up time.
# Every cell keeps only reach below 2^12 (log2(ell^depth) < 12): of 400 draws
# below 2^6 states, the 4 that overflowed had reach 2^15 and up.  Larger
# machines, longer rules or more reach give overflows and operations of
# seconds to minutes, which no run could hold.  The corpus opens with one
# fixed input that sets the memory peak of every run (see WHY).
CELL_QUOTAS = (((5, 2), 4), ((5, 3), 2), ((6, 2), 4), ((6, 3), 3), ((6, 4), 1), ((7, 2), 3), ((7, 3), 1))


def machine_class(sub: Substitution) -> int | None:
    """The size class of a machine-build input (see CELL_QUOTAS), or None
    when it is in none of them."""
    depth, nodes = column_bfs(sub, math.inf, 1 << 7)
    if nodes >= 1 << 7 or depth * math.log2(sub.length) >= 12:
        return None
    return max(nodes.bit_length(), 5)


def memory_peak_input() -> Entry:
    rules = {"a": "cfc", "b": "dec", "c": "dee", "d": "abb", "e": "dce", "f": "dec"}
    return Entry("memory-peak", Substitution.from_parts(list("abcdef"), 3, rules, seed=["e", "a"]))


def machine_corpus(seed: int, rounds: int = 20) -> list[Entry]:
    rng = random.Random(f"machine-build:{seed}")
    cells = _fixed_order([c for c, quota in CELL_QUOTAS for _ in range(quota)], "machine-build")

    def draw(rng, cell):
        size_class, ell = cell
        for _ in range(2000):
            size = rng.randint(4, 6)
            sub = random_primitive(rng, size, ell, ranks=(2, 3, size // 2 + 1))
            if sub is not None and machine_class(sub) == size_class:
                return sub
        return None

    fixed = [memory_peak_input()]
    return fixed + _rounds(rng, cells, rounds, "random-machine", draw, fixed)


def coincidence_corpus(seed: int, rounds: int = 24) -> list[Entry]:
    rng = random.Random(f"toeplitz-query:{seed}")
    cells = _fixed_order(list(itertools.product(range(2, 6), range(2, 6))), "toeplitz-query")

    def draw(rng, cell):
        size, ell = cell
        return random_primitive(rng, size, ell, ranks=(1, 2, 3))

    paper = paper_examples()
    fixed = [Entry("coincidence", paper[1].sub), Entry("coincidence", paper[2].sub)]
    return fixed + _rounds(rng, cells, rounds, "coincidence", draw, fixed)


def period_mix(entries: list[Entry]) -> dict[str, int]:
    """Counts of (right, left) seed periods, keyed like "1x2"."""
    mix = Counter()
    for e in entries:
        p_r, p_l = e.sub.seed_periods()
        mix[f"{p_r}x{p_l}"] += 1
    return dict(sorted(mix.items()))


def to_json(sub: Substitution) -> dict:
    """The CLI input format of a substitution."""
    letters = sub.alphabet.letters
    return {
        "alphabet": list(letters),
        "length": sub.length,
        "rules": {letters[a]: [letters[o] for o in rule] for a, rule in enumerate(sub.rules)},
        "seed": [letters[sub.seed[0]], letters[sub.seed[1]]],
    }
