"""Base-ell expansions of integers, including canonical negative expansions.

A negative integer has the left-infinite expansion ``(ell-1)^inf d_k ... d_0``.
Its canonical finite form keeps exactly one explicit ``ell-1`` marker in front
of the block ``d_k ... d_0``, whose leading digit is never ``ell-1``.  Zero is
the empty string, so automata consuming these words must define an output at
their initial state.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.base < 2:
            raise BadBase(f"base must be >= 2, got {self.base}")
        for d in self.digits:
            if not 0 <= d < self.base:
                raise NonCanonical(f"digit {d} out of range for base {self.base}")
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

    def __str__(self) -> str:
        sep = "" if self.base <= 10 else ","
        body = sep.join(str(d) for d in self.digits)
        if self.negative:
            head = sep.join(str(d) for d in self.digits[: len(self) - len(self.block())])
            tail = sep.join(str(d) for d in self.block())
            return f"~{head}·{tail}"
        return body


def _low_first(n: int, base: int) -> tuple[int, ...]:
    """Canonical base-``base`` digits of any integer, least significant first.

    A negative integer ends with its single marker digit; ``0`` is empty.
    """
    if base < 2:
        raise BadBase(f"base must be >= 2, got {base}")
    digits: list[int] = []
    stop = 0 if n >= 0 else -1
    while n != stop:
        n, r = divmod(n, base)
        digits.append(r)
    if stop:
        # the low digit produced last cannot be base-1, so the block is canonical
        digits.append(base - 1)
    return tuple(digits)


def to_digits(n: int, base: int) -> DigitString:
    """Canonical base-``base`` expansion of any integer.

    ``0`` becomes the empty string; ``-1`` becomes the bare marker digit.
    """
    return DigitString(base, _low_first(n, base)[::-1], negative=n < 0)


def to_int(ds: DigitString) -> int:
    """Inverse of :func:`to_digits`; also accepts padded (non-canonical) words."""
    value = 0
    for d in ds.digits:
        value = value * ds.base + d
    if ds.negative:
        # abbreviation of (base-1)^inf digits: subtract the weight just above
        return value - ds.base ** len(ds.digits)
    return value


def pad(ds: DigitString, k: int) -> DigitString:
    """Left-pad to total length ``k`` with 0 (non-negative) or the marker."""
    if k < len(ds):
        raise ValueError(f"cannot pad length {len(ds)} string to {k}")
    filler = ds.marker if ds.negative else 0
    return DigitString(ds.base, (filler,) * (k - len(ds)) + ds.digits, ds.negative)
