"""Base-ell expansions of integers, including canonical negative expansions.

A negative integer has the left-infinite expansion ``(ell-1)^inf d_k ... d_0``.
Its canonical finite form keeps exactly one explicit ``ell-1`` marker in front
of the block ``d_k ... d_0``, whose leading digit is never ``ell-1``.  Zero is
the empty string, so automata consuming these words must define an output at
their initial state.

Expansions are read off per-base chunk tables: :func:`_chunks` lists the
digit words of every chunk value below ``base**k`` (at most ``CHUNK_CAP``),
so one ``divmod`` by ``base**k`` yields k digits.  The tables are built once
per base and process by an ``lru_cache`` (tens of microseconds), and
clearing that cache drops them.  :class:`DigitString` still checks the range
of every digit of every object, those of :func:`to_digits` included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product

from .errors import BadBase, NonCanonical


@dataclass(frozen=True)
class DigitString:
    """A finite digit word, most significant digit first.

    ``negative`` marks the word as an abbreviation of a left-infinite
    expansion padded with ``base - 1``; such words carry at least one
    leading marker digit.
    """

    base: int
    digits: tuple[int, ...]
    negative: bool = False

    def __post_init__(self) -> None:
        base = self.base
        if base < 2:
            raise BadBase(f"base must be >= 2, got {base}")
        for d in self.digits:
            if not 0 <= d < base:
                raise NonCanonical(f"digit {d} out of range for base {base}")
        if self.negative and not self.digits:
            raise NonCanonical("negative digit string needs at least its marker digit")

    def __len__(self) -> int:
        return len(self.digits)

    @property
    def marker(self) -> int:
        return self.base - 1

    def is_canonical(self) -> bool:
        if not self.negative:
            return not self.digits or self.digits[0] != 0
        if self.digits[0] != self.marker:
            return False
        block = self.digits[1:]
        return not block or block[0] != self.marker

    def block(self) -> tuple[int, ...]:
        """Digits after the single canonical marker (negative strings only)."""
        if not self.negative:
            raise NonCanonical("only negative strings have a marker block")
        i = 0
        while i < len(self.digits) and self.digits[i] == self.marker:
            i += 1
        return self.digits[i:]


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
    """
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


def _high_first(n: int, base: int) -> tuple[int, ...]:
    """Canonical base-``base`` digits of any integer, most significant first.

    A negative integer starts with its single marker digit; ``0`` is empty.
    One ``divmod`` per chunk of k digits; the top chunk is the last quotient
    step, which ends at 0 (n >= 0) or at -1 (n < 0).
    """
    if base < 2:
        raise BadBase(f"base must be >= 2, got {base}")
    size, full, top_pos, top_neg = _chunks(base)
    stop = 0 if n >= 0 else -1
    n, c = divmod(n, size)
    digits: tuple[int, ...] = ()
    while n != stop:
        digits = full[c] + digits
        n, c = divmod(n, size)
    # the top chunk of n < 0 is never all markers, except for n = -1 itself
    return (top_neg if stop else top_pos)[c] + digits


def _low_first(n: int, base: int) -> tuple[int, ...]:
    """:func:`_high_first` least significant digit first: a negative integer
    ends with its single marker digit."""
    return _high_first(n, base)[::-1]


def to_digits(n: int, base: int) -> DigitString:
    """Canonical base-``base`` expansion of any integer.

    ``0`` becomes the empty string; ``-1`` becomes the bare marker digit.
    """
    return DigitString(base, _high_first(n, base), n < 0)


def to_int(ds: DigitString) -> int:
    """Inverse of :func:`to_digits`; also accepts padded (non-canonical) words."""
    base = ds.base
    value = 0
    for d in ds.digits:
        value = value * base + d
    if ds.negative:
        # abbreviation of (base-1)^inf digits: subtract the weight just above
        return value - base ** len(ds.digits)
    return value


def pad(ds: DigitString, k: int) -> DigitString:
    """Left-pad to total length ``k`` with 0 (non-negative) or the marker."""
    if k < len(ds):
        raise ValueError(f"cannot pad length {len(ds)} string to {k}")
    filler = ds.marker if ds.negative else 0
    return DigitString(ds.base, (filler,) * (k - len(ds)) + ds.digits, ds.negative)
