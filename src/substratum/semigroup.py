"""Transformation-semigroup machinery for the column maps of a substitution.

Every closure of maps under composition in the package runs on
:func:`_orbit`: the orbit of the identity under right multiplication by the
generators, a breadth-first search over plain int-tuple maps, memoized by
value and by the state budget.  It is the reverse machine's map graph, so
``closure(sub.columns())``, :func:`structure_semigroup`, the reverse machine
and the determinized reversal of the direct machine read one run per
substitution; :mod:`substratum.automata` adds the word-length phase on top.
The :class:`ColumnMap` of every orbit node is built once per orbit and
alphabet, :func:`_column_maps`, and those three read it.

An element is a product of exactly k generators when a word of length k
leads to it.  The sequence of those "products of exactly k" layers is
eventually periodic in k, and an element survives every monoid in the chain
of monoids generated by the columns of theta^n precisely when it keeps
reappearing at lengths divisible by the layer period.  The stabilizing
exponent is the least n whose monoid equals that intersection; no exponent
past the first stable multiple of the layer period needs to be tried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .errors import BadAlphabet, StateExplosion
from .substitution import ColumnMap, Substitution, word_budget


def _breadth_first(start, children, limit: int):
    """Breadth-first closure of ``start`` under ``children``, which lists a
    node's successors in edge order.

    Returns the nodes, numbered in discovery order, and the delta table over
    those numbers; raises :class:`StateExplosion` past ``limit`` nodes.
    """
    index = {start: 0}
    nodes = [start]
    delta = []
    for node in nodes:  # the list grows behind the cursor, like a queue
        row = []
        for child in children(node):
            target = index.get(child)
            if target is None:
                if len(nodes) >= limit:
                    raise StateExplosion(f"closure exceeds state budget {limit}")
                target = index[child] = len(nodes)
                nodes.append(child)
            row.append(target)
        delta.append(tuple(row))
    return tuple(nodes), tuple(delta)


def _gather(indices):
    """The C-level map from a sequence to its entries at ``indices``, as a tuple.

    ``itemgetter`` of one index returns the bare entry, not a tuple, so one
    index is wrapped by hand.
    """
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _orbit(generators: tuple, limit: int):
    """The identity's orbit under right composition: generator g leads from
    the map f to f ∘ g, both int tuples, and node 0 is the identity.
    Memoized by value and keyed on the state budget ``limit``."""
    identity = tuple(range(len(generators[0])))
    gathers = [_gather(g) for g in generators]  # f -> f ∘ g, in C
    return _breadth_first(identity, lambda f: [take(f) for take in gathers], limit)


@lru_cache(maxsize=None)
def _column_maps(alphabet, generators: tuple, limit: int) -> tuple[ColumnMap, ...]:
    """The :class:`ColumnMap` of every node of :func:`_orbit`, built once per
    orbit and alphabet, for the reverse machine, :func:`closure` and
    :func:`structure_semigroup` to share.  Keyed on the budget too."""
    return tuple(ColumnMap(alphabet, f) for f in _orbit(generators, limit)[0])


@dataclass(frozen=True)
class SemigroupClosure:
    """Composition closure of a generator set, with rank bookkeeping."""

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
    tables = tuple(g.table for g in given)
    limit = word_budget()
    nodes, delta = _orbit(tables, limit)
    maps = _column_maps(alphabet, tables, limit)
    products = sorted({t for row in delta for t in row}, key=nodes.__getitem__)
    return SemigroupClosure(
        elements=tuple(map(maps.__getitem__, products)),
        min_rank=min(map(len, map(set, map(nodes.__getitem__, products)))),
    )


@dataclass(frozen=True)
class StructureSemigroup:
    """The intersection over n of <id, columns of theta^n>, and the least n
    whose monoid equals it."""

    elements: tuple[ColumnMap, ...]
    stabilizing_exponent: int


def _layers(delta):
    """The layer sequence P_k = P_{k-1} * columns over the orbit's ``delta``,
    as sets of node ids, up to its first repeat; with its threshold and period."""
    layers = [frozenset(delta[0])]  # layers[k] = products of exactly k+1 columns
    seen_at = {layers[0]: 1}
    while True:
        nxt = frozenset(chain.from_iterable(map(delta.__getitem__, layers[-1])))
        k = len(layers) + 1
        if nxt in seen_at:
            return layers, seen_at[nxt] - 1, k - seen_at[nxt]
        seen_at[nxt] = k
        layers.append(nxt)


def structure_semigroup(sub: Substitution) -> StructureSemigroup:
    """Exact intersection semigroup and the least exponent realizing it.

    The intersection equals {id} plus the stable layer at k0, the first
    multiple of the layer period past the threshold.  Every multiple of k0
    has that same layer, so the monoid at k0 is the intersection itself and
    the search for the least exponent ends there.
    """
    generators, limit = tuple(zip(*sub.rules)), word_budget()
    nodes, delta = _orbit(generators, limit)
    layers, threshold, period = _layers(delta)
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

    maps = _column_maps(sub.alphabet, generators, limit)
    return StructureSemigroup(
        elements=tuple(maps[i] for i in sorted(elements, key=nodes.__getitem__)),
        stabilizing_exponent=next(n for n in range(1, k0 + 1) if monoid_at_exponent(n) == elements),
    )
