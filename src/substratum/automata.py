"""DFAOs for substitution fixed points: direct reading, reverse reading, and
the constructions between them.

Conventions for a base-ell machine generating a two-sided sequence u:

* non-negative n is fed as its canonical expansion, negative n as the
  marker-prefixed canonical word ``ell-1 d_k ... d_0``;
* direct reading consumes the most significant digit first, reverse reading
  the least significant first (so the marker of a negative word arrives last).

Seed letters that are merely periodic (not fixed) under the end columns force
digit words whose lengths are multiples of the seed period.  Direct machines
carry that as padding applied by :meth:`Dfao.run`; reverse machines fold it
into their states (a word-length phase) so that their outputs stay pinned to
sequence values under arbitrary padding.

The reverse machine is the orbit of the identity under the columns (the
memoized map-only closure of :mod:`substratum.semigroup`) times that phase:
its states are the reachable pairs (orbit node, word length mod the seed
period), walked breadth-first by the same budgeted loop.  Reversing a direct
machine is that walk over the orbit of its transition columns, and the
semigroup-labelled reverse machine is that reversal of Cobham's direct
machine, relabelled by column maps, so both reversals, the semigroup
closures and the structure semigroup of one substitution share one orbit.
Minimization memoizes its Moore partition by the machine's structure without
its labels, so the two reversals share one refinement.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import chain
from operator import itemgetter

from . import digits as digitmod
from .errors import (
    BadBase,
    DigitOutOfRange,
    InputError,
    SeedMissing,
    UnknownLetter,
)
from .semigroup import _breadth_first, _orbit
from .substitution import ColumnMap, Substitution, word_budget

DIRECT = "direct"
REVERSE = "reverse"


@dataclass(frozen=True)
class Dfao:
    """A deterministic finite automaton with per-side outputs.

    Every machine has both sides: ``out_nonneg[s]`` and ``out_neg[s]`` are the
    letters of the sequence that state s outputs on the non-negative and the
    negative side, read from ``initial_nonneg`` and ``initial_neg``.
    :meth:`run` reads one index in O(log |n|) table steps; :meth:`run_range`
    reads a window around 0 level by level, because the digit words of its
    indices share their prefixes, moving each level through each digit column
    in one C-level gather.
    """

    ell: int
    labels: tuple[str, ...]
    delta: tuple[tuple[int, ...], ...]
    initial_nonneg: int
    initial_neg: int
    out_nonneg: tuple[str, ...]
    out_neg: tuple[str, ...]
    reading: str
    pad_nonneg: int = 1
    pad_neg: int = 1

    def __post_init__(self) -> None:
        if self.ell < 2:
            raise BadBase(f"base must be >= 2, got {self.ell}")
        if self.reading not in (DIRECT, REVERSE):
            raise InputError(f"reading must be {DIRECT!r} or {REVERSE!r}, got {self.reading!r}")
        if self.pad_nonneg < 1 or self.pad_neg < 1:
            raise InputError(f"pads must be >= 1, got {self.pad_nonneg} and {self.pad_neg}")
        n = len(self.labels)
        if any(table is None or len(table) != n for table in (self.delta, self.out_nonneg, self.out_neg)):
            raise UnknownLetter("state tables must agree with the label list")
        for row in self.delta:
            if len(row) != self.ell or min(row) < 0 or max(row) >= n:
                raise DigitOutOfRange("transition table must be total over the digits")
        for initial in (self.initial_nonneg, self.initial_neg):
            if initial is None or not 0 <= initial < n:
                raise UnknownLetter(f"initial state {initial} outside 0..{n - 1}")

    @property
    def num_states(self) -> int:
        return len(self.labels)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """``columns[d][s] == delta[s][d]``: every state's successor on digit d,
        built on first use and kept in the instance ``__dict__`` (so the
        dataclass must not use slots)."""
        return tuple(zip(*self.delta))

    # -- running -------------------------------------------------------

    def run_word(self, word, side: str = "nonneg") -> str:
        """Feed an explicit digit word (most significant digit first) to the
        ``"nonneg"`` or the ``"neg"`` side."""
        if side == "nonneg":
            state = self.initial_nonneg
            outputs = self.out_nonneg
        elif side != "neg":
            raise ValueError(f"side must be 'nonneg' or 'neg', got {side!r}")
        else:
            state = self.initial_neg
            outputs = self.out_neg
        order = word if self.reading == DIRECT else reversed(word)
        for d in order:
            if not 0 <= d < self.ell:
                raise DigitOutOfRange(f"digit {d} outside base {self.ell}")
            state = self.delta[state][d]
        return outputs[state]

    def run(self, n: int) -> str:
        """The sequence entry u_n, from the canonical expansion of n."""
        digits = digitmod._high_first(n, self.ell)
        if n >= 0:
            state, outputs, pad, filler = self.initial_nonneg, self.out_nonneg, self.pad_nonneg, 0
        else:
            state, outputs, pad, filler = self.initial_neg, self.out_neg, self.pad_neg, self.ell - 1
        if pad > 1 and len(digits) % pad:
            digits = (filler,) * (pad - len(digits) % pad) + digits
        delta = self.delta
        for d in digits if self.reading == DIRECT else reversed(digits):
            state = delta[state][d]
        return outputs[state]

    def run_range(self, lo: int, hi: int) -> tuple[str, ...]:
        """``tuple(self.run(n) for n in range(lo, hi + 1))``, a few gathers per digit level.

        Index m >= 0 is read as its canonical word and index -1-m < 0 as the
        marker word whose digits are those of m complemented, each padded to
        the side's period.  Both sides walk the digit words of 0, 1, ... level
        by level (level k holds the states after every k-digit word), and each
        level moves all its states through one digit column at a time in C, so
        the cost is O(max(|lo|, |hi|)) table reads: the method is meant for
        windows around 0, and :meth:`run` for far indices.
        """
        if lo > hi:
            return ()
        columns = self.columns
        word: list[str] = []
        if lo < 0:
            # complementing every digit of a word reads the columns in reverse order
            neg = self._level_walk(columns[::-1], self.initial_neg, -lo, 1, self.pad_neg)
            # index n < 0 is neg[-1 - n]: read neg backwards, down to n = min(hi, -1)
            word += map(self.out_neg.__getitem__, neg[max(-1 - hi, 0) :][::-1])
        nonneg = self._level_walk(columns, self.initial_nonneg, hi + 1, 0, self.pad_nonneg)
        word += map(self.out_nonneg.__getitem__, nonneg[max(lo, 0) :])
        return tuple(word)

    def _level_walk(self, columns, start: int, count: int, marked: int, pad: int) -> list[int]:
        """States after the word of every m < count, read from ``start``.

        ``columns[d]`` holds every state's successor on digit d.  The word of
        m is its canonical digits behind ``marked`` leading zeros, padded with
        more leading zeros to a multiple of ``pad`` digits (on the negative
        side the columns come in reverse order, so these zeros are markers).
        m is recorded at the first level k that is such a multiple and holds
        its word.
        """
        ell = self.ell
        states = [start]
        found: list[int] = []
        width = 1  # ell**k; level k holds the k-digit words of 0 .. min(ell**k, count) - 1
        k = 0
        while True:
            if k % pad == 0 and k >= marked:
                found += states[len(found) : min(count, width // ell**marked)]
                if len(found) >= count:
                    return found
            if self.reading == DIRECT:  # word of q*ell + d = word of q, then d
                parents = states[: -(-count // ell)]
                take = _gather(parents)
                states = [0] * (len(parents) * ell)
                for d, column in enumerate(columns):
                    states[d::ell] = take(column)
                del states[count:]
            else:  # word of j + d*ell**k = word of j, then d
                moved = map(_gather(states), columns[: -(-count // len(states))])
                states = list(chain.from_iterable(moved))[:count]
            width *= ell
            k += 1

    # -- serialization ---------------------------------------------------

    def state_names(self) -> tuple[str, ...]:
        names: list[str] = []
        seen: dict[str, int] = {}
        for label in self.labels:
            if label in seen:
                seen[label] += 1
                names.append(f"{label}#{seen[label]}")
            else:
                seen[label] = 0
                names.append(label)
        return tuple(names)

    def to_json_dict(self) -> dict:
        names = self.state_names()
        out: dict = {
            "states": list(names),
            "ell": self.ell,
            "delta": {
                names[s]: {str(d): names[self.delta[s][d]] for d in range(self.ell)}
                for s in range(self.num_states)
            },
            "initial": {
                "nonneg": names[self.initial_nonneg],
                "neg": names[self.initial_neg],
            },
            "outputs": {
                "nonneg": dict(zip(names, self.out_nonneg)),
                "neg": dict(zip(names, self.out_neg)),
            },
            "reading": self.reading,
        }
        if (self.pad_nonneg, self.pad_neg) != (1, 1):
            out["pads"] = [self.pad_nonneg, self.pad_neg]
        return out

    def to_dot(self) -> str:
        names = self.state_names()
        order = _reachable_order(self.delta, self.initial_nonneg, self.initial_neg)
        reached = set(order)
        order += [s for s in range(self.num_states) if s not in reached]
        rank = {s: i for i, s in enumerate(order)}
        lines = ["digraph dfao {", "  rankdir=LR;", '  node [shape=circle, fontsize=11];']
        lines.append('  __nonneg [shape=none, label="ℕ₀"];')
        lines.append(f'  __nonneg -> "{names[self.initial_nonneg]}";')
        lines.append('  __neg [shape=none, label="−ℕ"];')
        lines.append(f'  __neg -> "{names[self.initial_neg]}";')
        for s in order:
            lines.append(f'  "{names[s]}";')
        for s in order:
            grouped: dict[int, list[int]] = {}
            for d in range(self.ell):
                grouped.setdefault(self.delta[s][d], []).append(d)
            for target in sorted(grouped, key=rank.__getitem__):
                label = ",".join(str(d) for d in grouped[target])
                lines.append(f'  "{names[s]}" -> "{names[target]}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _gather(states: list[int]):
    """The C-level map from a digit column to its entries at ``states``.

    ``itemgetter`` of one index returns the bare entry, not a tuple, so one
    state is wrapped by hand.
    """
    if len(states) == 1:
        (s,) = states
        return lambda column: (column[s],)
    return itemgetter(*states)


# -- Cobham's direct-reading machine --------------------------------------


def build_direct(sub: Substitution) -> Dfao:
    """States are the letters; the digit-i transition applies the i-th column."""
    if sub.seed is None:
        raise SeedMissing("the direct machine needs a seed for its initial states")
    a_l, a_r = sub.seed
    letters = sub.alphabet.letters
    p_r, p_l = sub.seed_periods()
    return Dfao(
        ell=sub.length,
        labels=letters,
        delta=sub.rules,  # row a is theta(a): digit d leads to its d-th letter
        initial_nonneg=a_r,
        initial_neg=a_l,
        out_nonneg=letters,
        out_neg=letters,
        reading=DIRECT,
        pad_nonneg=p_r,
        pad_neg=p_l,
    )


# -- the semigroup-labelled reverse machine --------------------------------


def build_reverse_semigroup(sub: Substitution) -> Dfao:
    """Reverse-reading machine with delta(s, i) = s ∘ theta_i from the identity.

    It is the reversal of the direct machine: the transition maps of that
    machine's digit words are exactly the compositions of columns.  Outputs
    project the state map at the seed letters, completed through the end
    columns when the word length phase requires it; feeding the canonical
    expansion of n therefore yields u_n on either side.

    A state is a column map and a word length modulo the seed period, the
    label ``vector@phase`` when that period exceeds 1.  When the seed letters
    are fixed by the end columns, the states are exactly the monoid generated
    by id and the columns.

    The machine is built once per substitution and state budget and then
    shared: the kernel, the Toeplitz gate and ``check`` all read this object.
    """
    if sub.seed is None:
        raise SeedMissing("the reverse machine needs a seed for its outputs")
    return _reverse_semigroup(sub, word_budget())[0]


@lru_cache(maxsize=None)
def _reverse_semigroup(sub: Substitution, limit: int) -> tuple[Dfao, tuple[ColumnMap, ...]]:
    """The machine of :func:`build_reverse_semigroup` and the column map of
    each of its states.  Keyed on the budget too, so a changed
    ``SUBSTRATUM_BUDGET`` applies."""
    maps, states, dfao = _determinize(build_direct(sub))
    period = sub.seed_period()
    column_maps = [ColumnMap(sub.alphabet, f) for f in maps]
    vectors = [m.vector() for m in column_maps]
    labels = tuple(vectors[i] if period == 1 else f"{vectors[i]}@{phase}" for i, phase in states)
    return replace(dfao, labels=labels), tuple(column_maps[i] for i, _ in states)


# -- reversal by determinization -------------------------------------------


def reverse_and_determinize(dfao: Dfao) -> Dfao:
    """Reverse-reading machine equivalent to a direct-reading one.

    Reversing the edges yields a nondeterministic machine; it is determinized
    by tracking, for every original state, where the word read so far would
    lead — i.e. states here are transition functions of the original machine,
    composed digit by digit.  Outputs evaluate that function at the original
    initial states (after completing the word-length phase pinned by the pads).
    """
    return _determinize(dfao)[2]


def _determinize(dfao: Dfao):
    """The orbit maps of the direct machine's columns, the states of
    :func:`reverse_and_determinize` as (orbit node, phase) pairs, and its machine.

    The states are the pairs reachable from (identity, 0), where digit d
    leads from (i, phase) to (the orbit's d-child of i, phase + 1 mod the
    period), numbered in breadth-first order with children in digit order.
    """
    if dfao.reading != DIRECT:
        raise ValueError("reversal expects a direct-reading machine")
    period = math.lcm(dfao.pad_nonneg, dfao.pad_neg)
    limit = word_budget()
    maps, orbit_delta = _orbit(dfao.columns, limit)

    def successors(state):
        node, phase = state
        step = (phase + 1) % period
        return [(t, step) for t in orbit_delta[node]]

    states, delta = _breadth_first((0, 0), successors, limit)

    def outputs(initial: int, pad: int, tail_digit: int, out) -> tuple[str, ...]:
        anchors = [initial]
        for _ in range(pad - 1):
            anchors.append(dfao.delta[anchors[-1]][tail_digit])
        return tuple(out[maps[i][anchors[(-phase) % pad]]] for i, phase in states)

    return maps, states, Dfao(
        ell=dfao.ell,
        labels=tuple(f"r{i}" for i in range(len(states))),
        delta=delta,
        initial_nonneg=0,
        initial_neg=0,
        out_nonneg=outputs(dfao.initial_nonneg, dfao.pad_nonneg, 0, dfao.out_nonneg),
        out_neg=outputs(dfao.initial_neg, dfao.pad_neg, dfao.ell - 1, dfao.out_neg),
        reading=REVERSE,
    )


# -- minimization -----------------------------------------------------------


def minimize(dfao: Dfao) -> Dfao:
    """Moore partition refinement; the initial partition keys on both outputs.

    Unreachable states are dropped, and the blocks are numbered in the order
    their first state appears along the BFS order of :func:`_reachable_order`.
    The Moore run is memoized by the machine's structure without its labels,
    so the semigroup-labelled reverse machine and the determinized reversal
    of the direct machine share one run and each keeps its own labels.
    """
    rep, block, _ = _moore(dfao)
    return replace(
        dfao,
        labels=tuple(dfao.labels[s] for s in rep),
        delta=tuple(tuple(map(block.__getitem__, dfao.delta[s])) for s in rep),
        initial_nonneg=block[dfao.initial_nonneg],
        initial_neg=block[dfao.initial_neg],
        out_nonneg=tuple(dfao.out_nonneg[s] for s in rep),
        out_neg=tuple(dfao.out_neg[s] for s in rep),
    )


@lru_cache(maxsize=None)
def _partition(delta, initial_nonneg: int, initial_neg: int, out_nonneg, out_neg):
    """Moore refinement of a machine's structure, which leaves out its labels.

    Returns ``rep``, the first state of each block along :func:`_reachable_order`
    (block b becomes state b), ``block``, the block of every reachable state,
    and the number of rounds that split a block.  After r such rounds two
    states share a block exactly when no digit word of length <= r leads them
    to different outputs.  Machines that differ only in their labels share one
    run.
    """
    states = _reachable_order(delta, initial_nonneg, initial_neg)
    block: list = list(zip(out_nonneg, out_neg))  # round 0: each state's output pair
    count = len({block[s] for s in states})
    rounds = 0
    while True:
        # each round numbers the blocks by first appearance along ``states``
        signatures: dict[tuple, int] = {}
        refined = [0] * len(delta)
        for s in states:
            refined[s] = signatures.setdefault(
                (block[s], *map(block.__getitem__, delta[s])), len(signatures)
            )
        block = refined
        if len(signatures) == count:
            break
        count = len(signatures)
        rounds += 1
    rep: list[int] = []
    for s in states:
        if block[s] == len(rep):
            rep.append(s)
    return tuple(rep), tuple(block), rounds


def _moore(dfao: Dfao):
    """:func:`_partition` of a machine, keyed on its structure."""
    return _partition(dfao.delta, dfao.initial_nonneg, dfao.initial_neg, dfao.out_nonneg, dfao.out_neg)


def _reachable_order(delta, initial_nonneg: int, initial_neg: int) -> list[int]:
    """States reachable through ``delta`` in BFS order from the initial states."""
    starts = [initial_nonneg]
    if initial_neg != initial_nonneg:
        starts.append(initial_neg)
    order: list[int] = []
    seen = set(starts)
    queue = deque(starts)
    while queue:
        s = queue.popleft()
        order.append(s)
        for t in delta[s]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return order


# -- equivalence -------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceResult:
    equal: bool
    witness: int | None


def equivalent(m1: Dfao, m2: Dfao) -> EquivalenceResult:
    """Decide exactly whether two machines generate the same two-sided sequence.

    Every direct-reading argument is first reversed by
    :func:`reverse_and_determinize`, which folds its pads into a word-length
    phase; one product walk over canonical reverse-read digit words decides.
    """
    if m1.ell != m2.ell:
        raise ValueError("machines read different digit alphabets")
    m1, m2 = (reverse_and_determinize(m) if m.reading == DIRECT else m for m in (m1, m2))
    return _product_check_reverse(m1, m2)


def _product_check_reverse(m1: Dfao, m2: Dfao) -> EquivalenceResult:
    """Product walk comparing outputs exactly at canonical-word arrivals.

    Reverse reading feeds the least significant digit first, so a fed word is
    canonical for n >= 0 when it is empty or its last digit is nonzero, and
    canonical (possibly padded) for n < 0 when its last digit is the marker.
    """
    ell = m1.ell
    marker = ell - 1
    for side in ("nonneg", "neg"):
        s1 = m1.initial_nonneg if side == "nonneg" else m1.initial_neg
        s2 = m2.initial_nonneg if side == "nonneg" else m2.initial_neg
        o1 = m1.out_nonneg if side == "nonneg" else m1.out_neg
        o2 = m2.out_nonneg if side == "nonneg" else m2.out_neg

        def mismatch(pair) -> bool:
            return o1[pair[0]] != o2[pair[1]]

        if side == "nonneg" and mismatch((s1, s2)):
            return EquivalenceResult(False, 0)  # the empty word is n = 0
        seen = {(s1, s2): (0, 0)}  # pair -> (word value, word length)
        compared: set[tuple[int, int]] = set()
        queue = deque([(s1, s2)])
        while queue:
            q1, q2 = queue.popleft()
            value, length = seen[(q1, q2)]
            for d in range(ell):
                child = (m1.delta[q1][d], m2.delta[q2][d])
                child_value = value + d * ell**length
                if side == "nonneg":
                    comparable = d != 0
                    witness = child_value
                else:
                    comparable = d == marker
                    witness = child_value - ell ** (length + 1)
                if comparable and child not in compared:
                    compared.add(child)
                    if mismatch(child):
                        return EquivalenceResult(False, witness)
                if child not in seen:
                    seen[child] = (child_value, length + 1)
                    queue.append(child)
    return EquivalenceResult(True, None)
