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
clearing that cache drops them.  Validation happens where data enters: the
public :class:`DigitString` constructor checks the base and every digit, and
:func:`_chunks` checks the base once per base, its tables being in range by
construction, so :func:`to_digits` builds its words without a per-digit check.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import lru_cache
from itertools import chain, product
from operator import attrgetter

from .errors import BadBase, NonCanonical


def _field(name: str, doc: str) -> property:
    """A read-only view of the private slot ``_name``."""

    def frozen(self, *value):  # the setter and the deleter
        raise FrozenInstanceError(f"field {name!r} is read-only")

    return property(attrgetter("_" + name), frozen, frozen, doc)


class DigitString:
    """A finite digit word, most significant digit first.

    ``negative`` marks the word as an abbreviation of a left-infinite
    expansion padded with ``base - 1``; such words carry at least one
    leading marker digit.  The constructor checks every digit.  The fields
    are read-only views of private slots: assigning to one raises
    ``FrozenInstanceError``, and instances compare, hash, print, copy and
    pickle like a frozen dataclass of the three fields.  It is not a
    dataclass, though: ``dataclasses.replace``, ``fields`` and ``asdict``
    refuse it, and a new word comes from the constructor.
    """

    __slots__ = ("_base", "_digits", "_negative")

    base = _field("base", "The base, at least 2.")
    digits = _field("digits", "The digits, each below the base.")
    negative = _field("negative", "Whether the word abbreviates a left-infinite expansion.")

    def __init__(self, base: int, digits: tuple[int, ...], negative: bool = False) -> None:
        if base < 2:
            raise BadBase(f"base must be >= 2, got {base}")
        for d in digits:
            if not 0 <= d < base:
                raise NonCanonical(f"digit {d} out of range for base {base}")
        if negative and not digits:
            raise NonCanonical("negative digit string needs at least its marker digit")
        self._base = base
        self._digits = digits
        self._negative = negative

    def __reduce__(self):
        return DigitString, (self._base, self._digits, self._negative)

    def __repr__(self) -> str:
        return f"DigitString(base={self._base!r}, digits={self._digits!r}, negative={self._negative!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._base, self._digits, self._negative) == (other._base, other._digits, other._negative)

    def __hash__(self) -> int:
        return hash((self._base, self._digits, self._negative))

    def __len__(self) -> int:
        return len(self._digits)

    @property
    def marker(self) -> int:
        return self._base - 1

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


_new = object.__new__  # to_digits fills the slots of a blank DigitString


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


def _high_first(n: int, base: int) -> tuple[int, ...]:
    """Canonical base-``base`` digits of any integer, most significant first.

    A negative integer starts with its single marker digit; ``0`` is empty.
    One ``divmod`` per chunk of k digits; the top chunk is the last quotient
    step, which ends at 0 (n >= 0) or at -1 (n < 0).
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


def _low_first(n: int, base: int) -> tuple[int, ...]:
    """:func:`_high_first` least significant digit first: a negative integer
    ends with its single marker digit."""
    return _high_first(n, base)[::-1]


def to_digits(n: int, base: int) -> DigitString:
    """Canonical base-``base`` expansion of any integer.

    ``0`` becomes the empty string; ``-1`` becomes the bare marker digit.
    The slots are set without the constructor's per-digit check: the chunk
    tables that :func:`_high_first` reads hold digits below ``base`` by
    construction.
    """
    ds = _new(DigitString)
    ds._base = base
    ds._digits = _high_first(n, base)
    ds._negative = n < 0
    return ds


def to_int(ds: DigitString) -> int:
    """Inverse of :func:`to_digits`; also accepts padded (non-canonical) words."""
    base, digits = ds._base, ds._digits
    value = 0
    for d in digits:
        value = value * base + d
    # a negative word abbreviates (base-1)^inf digits: subtract the weight just above
    return value - base ** len(digits) if ds._negative else value


def pad(ds: DigitString, k: int) -> DigitString:
    """Left-pad to total length ``k`` with 0 (non-negative) or the marker."""
    if k < len(ds):
        raise ValueError(f"cannot pad length {len(ds)} string to {k}")
    filler = ds.marker if ds.negative else 0
    return DigitString(ds.base, (filler,) * (k - len(ds)) + ds.digits, ds.negative)
