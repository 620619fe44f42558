"""Transformation-semigroup machinery for the column maps of a substitution.

The central object is the intersection, over all n, of the monoids generated
by the columns of theta^n.  Both the plain closure and that intersection run
on the orbit of the identity under right multiplication by the generators
(the reverse machine's state graph): an element is a product of exactly k
generators when a word of length k leads to it.  The sequence of those
"products of exactly k" layers is eventually periodic in k, and an element
survives every monoid in the chain precisely when it keeps reappearing at
lengths divisible by the layer period.  The stabilizing exponent is the
least n whose monoid equals that intersection; no exponent past the first
stable multiple of the layer period needs to be tried.  The orbit is the
memoized one of :mod:`substratum.automata`, so ``closure(sub.columns())``,
:func:`structure_semigroup` and a reverse machine of seed period 1 read one
breadth-first run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .automata import _orbit
from .errors import BadAlphabet
from .substitution import ColumnMap, Substitution, word_budget


@dataclass(frozen=True)
class SemigroupClosure:
    """Composition closure of a generator set, with rank bookkeeping."""

    generators: tuple[ColumnMap, ...]
    elements: tuple[ColumnMap, ...]
    min_rank: int


def closure(generators) -> SemigroupClosure:
    """Least composition-closed superset of the generators.

    Every product of one or more generators is the target of an edge of the
    identity's orbit.  The orbit runs over the generators in the order given,
    repeats included, so ``closure(sub.columns())`` reads the same orbit as
    :func:`structure_semigroup` and the reverse machine; the result does not
    depend on that order or on repeats.
    """
    given = tuple(generators)
    if not given:
        raise ValueError("need at least one generator")
    alphabet = given[0].alphabet
    if any(g.alphabet != alphabet for g in given):
        raise BadAlphabet("cannot compose maps over different alphabets")
    identity = tuple(range(len(alphabet)))
    nodes, delta = _orbit(tuple(g.table for g in given), (identity, 0), 1, word_budget())
    tables = sorted({nodes[t][0] for row in delta for t in row})
    return SemigroupClosure(
        generators=tuple(sorted(set(given), key=lambda m: m.table)),
        elements=tuple(ColumnMap(alphabet, t) for t in tables),
        min_rank=min(len(set(t)) for t in tables),
    )


@dataclass(frozen=True)
class StructureSemigroup:
    """The intersection over n of <id, columns of theta^n>, and the least n
    whose monoid equals it."""

    elements: tuple[ColumnMap, ...]
    stabilizing_exponent: int

    def __contains__(self, m: ColumnMap) -> bool:
        return m in set(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _layers(sub: Substitution):
    """Orbit nodes and the layer sequence P_k = P_{k-1} * columns, as sets of
    node ids, up to its first repeat; with its threshold and period."""
    identity = tuple(range(len(sub.alphabet)))
    nodes, delta = _orbit(tuple(zip(*sub.rules)), (identity, 0), 1, word_budget())
    layers = [frozenset(delta[0])]  # layers[k] = products of exactly k+1 columns
    seen_at = {layers[0]: 1}
    while True:
        nxt = frozenset(t for s in layers[-1] for t in delta[s])
        k = len(layers) + 1
        if nxt in seen_at:
            return nodes, layers, seen_at[nxt] - 1, k - seen_at[nxt]
        seen_at[nxt] = k
        layers.append(nxt)


@lru_cache(maxsize=None)
def structure_semigroup(sub: Substitution) -> StructureSemigroup:
    """Exact intersection semigroup and the least exponent realizing it.

    The intersection equals {id} plus the stable layer at k0, the first
    multiple of the layer period past the threshold.  Every multiple of k0
    has that same layer, so the monoid at k0 is the intersection itself and
    the search for the least exponent ends there.
    """
    nodes, layers, threshold, period = _layers(sub)
    identity = 0  # the orbit's start node

    def layer(k: int) -> frozenset[int]:
        """Products of exactly k >= 1 columns."""
        if k > len(layers):
            k = threshold + 1 + (k - threshold - 1) % period
        return layers[k - 1]

    def monoid_at_exponent(n: int) -> frozenset[int]:
        """<id, columns of theta^n> = id plus all products of k*n columns."""
        out = {identity}
        # beyond the threshold the layers cycle with the layer period, so scanning
        # multiples of n up to threshold + lcm(n, period) covers every distinct layer
        for k in range(n, threshold + math.lcm(n, period) + 2, n):
            out |= layer(k)
        return frozenset(out)

    k0 = period * (threshold // period + 1)
    elements = layer(k0) | {identity}

    return StructureSemigroup(
        elements=tuple(ColumnMap(sub.alphabet, t) for t in sorted(nodes[i][0] for i in elements)),
        stabilizing_exponent=next(n for n in range(1, k0 + 1) if monoid_at_exponent(n) == elements),
    )
