"""Base-ell expansions of integers, including canonical negative expansions.

A digit word is a plain tuple of digits, most significant first.  A negative
integer has the left-infinite expansion ``(ell-1)^inf d_k ... d_0``.  Its
canonical finite form keeps exactly one explicit ``ell-1`` marker in front
of the block ``d_k ... d_0``, whose leading digit is never ``ell-1``.  Zero is
the empty word, so automata consuming these words must define an output at
their initial state.  A word does not carry its sign: the caller knows it
(``n < 0``) and passes it to :func:`to_int`.

Expansions are read off per-base chunk tables: :func:`_chunks` lists the
digit words of every chunk value below ``base**k`` (at most ``CHUNK_CAP``),
so one ``divmod`` by ``base**k`` yields k digits.  The tables are built once
per base and process by an ``lru_cache`` (tens of microseconds), and
clearing that cache drops them.  :func:`_chunks` checks the base once per
base, and its tables are in range by construction, so :func:`to_digits`
builds its words without a per-digit check.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product

from .errors import BadBase


# Chunk tables cover the chunk values below base**k, k the largest with
# base**k <= CHUNK_CAP: 64 values in base 2, 4 and 8, 27 in base 3, 25 in base 5.
# A cap of 256 saves at most one divmod on check's indices (|n| <= 2000) in
# base 2 to 4 but triples the per-process build: about 60 µs, against 20 µs.
CHUNK_CAP = 64


@lru_cache(maxsize=None)
def _chunks(base: int):
    """``(base**k, full, top_pos, top_neg)`` for base >= 2, each table indexed
    by a chunk value c < base**k and holding digit words, most significant first.

    ``full[c]`` is all k digits of c; ``top_pos[c]`` is c without leading
    zeros, the top chunk of an n >= 0; ``top_neg[c]`` is one marker followed
    by c without leading markers, the top chunk of an n < 0.  Every table
    lists its words in increasing order of c, block by block of equal length.
    Every digit path starts here, so the base is checked here: for a base
    below 2 the loop that picks k would never end.
    """
    if base < 2:
        raise BadBase(f"base must be >= 2, got {base}")
    k = 1
    while base ** (k + 1) <= CHUNK_CAP:
        k += 1
    marker, digit = base - 1, range(base)
    full = tuple(product(digit, repeat=k))
    # words of 1 .. k-1 digits led by a non-zero; the k-digit ones are the top block of ``full``
    shorter = chain.from_iterable(product(range(1, base), *[digit] * (j - 1)) for j in range(1, k))
    top_pos = ((),) + tuple(shorter) + full[base ** (k - 1) :]
    # c = base**k - base**j + (a j-digit word led by a non-marker), j = k .. 0
    top_neg = tuple(
        chain.from_iterable(
            product((marker,), range(marker), *[digit] * (j - 1)) for j in range(k, 0, -1)
        )
    ) + ((marker,),)
    return base**k, full, top_pos, top_neg


def to_digits(n: int, base: int) -> tuple[int, ...]:
    """Canonical base-``base`` digits of any integer, most significant first.

    ``0`` is the empty word; a negative integer starts with its single marker
    digit, so ``-1`` is the bare marker.  One ``divmod`` per chunk of k
    digits; the top chunk is the last quotient step, which ends at 0
    (n >= 0) or at -1 (n < 0).
    """
    size, full, top_pos, top_neg = _chunks(base)
    stop = 0 if n >= 0 else -1
    n, c = divmod(n, size)
    digits: tuple[int, ...] = ()
    while n != stop:
        digits = full[c] + digits
        n, c = divmod(n, size)
    # the top chunk of n < 0 is never all markers, except for n = -1 itself
    return (top_neg if stop else top_pos)[c] + digits


def to_int(digits: tuple[int, ...], base: int, negative: bool = False) -> int:
    """The value of a digit word, most significant first, evaluated as given.

    ``negative`` reads the word as an abbreviation of a left-infinite
    expansion padded with ``base - 1``.  Padded words evaluate like canonical
    ones, and no digit is checked: this inverts :func:`to_digits`, whose
    words are in range by construction.
    """
    value = 0
    for d in digits:
        value = value * base + d
    # a negative word abbreviates (base-1)^inf digits: subtract the weight just above
    return value - base ** len(digits) if negative else value
