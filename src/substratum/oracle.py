"""Brute-force ground truth: expanded fixed-point windows and progression sampling.

Everything here works directly on expanded words, never on automata, so it can
serve as the independent check for the symbolic constructions.  Every window
comes from :func:`window_for_range`, which alone decides how far each side of
the fixed point is expanded.  Windows hold letter ordinals in an ``array``,
one byte per letter up to 256 letters, built by block substitution;
progressions are walked on those and named at the end.
A singleton progression sample is only evidence of periodicity (bounded
window); observing two letters is a certificate of aperiodicity at that step.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .errors import IndexOutOfWindow, Overflow, WindowTooShort
from .substitution import Alphabet, Substitution, word_budget


@dataclass(frozen=True)
class Window:
    """A finite slice u_lo .. u_hi of a two-sided sequence, ordinal-encoded.

    ``letters`` is an ``array`` of ordinals, typecode ``"B"`` (one byte per
    letter) up to 256 letters and ``"I"`` beyond.  It is never mutated, but an
    array is unhashable, so a Window is not hashable either.
    """

    alphabet: Alphabet
    lo: int
    hi: int
    letters: array

    def __post_init__(self) -> None:
        if len(self.letters) != self.hi - self.lo + 1:
            raise WindowTooShort("window letters do not match its index range")

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, index: int) -> bool:
        return self.lo <= index <= self.hi

    def __getitem__(self, index: int) -> int:
        if index not in self:
            raise IndexOutOfWindow(f"index {index} outside window {self.lo}..{self.hi}")
        return self.letters[index - self.lo]

    def letter(self, index: int) -> str:
        return self.alphabet[self[index]]


def expand(sub: Substitution, generations: int) -> Window:
    """``window_for_range(sub, -ell^g, ell^g - 1)``.

    For g a multiple of ``seed_period()`` each side is theta^g of its seed
    letter, so the window is exactly [-ell^g, ell^g - 1]; otherwise a side
    grows to the next multiple of its own seed period.
    """
    if generations < 1:
        raise ValueError("need at least one generation")
    reach = sub.length**generations
    return window_for_range(sub, -reach, reach - 1)


def window_for_range(sub: Substitution, lo: int, hi: int) -> Window:
    """The one window builder: u over at least [lo, hi], by block substitution.

    A side is expanded only when [lo, hi] reaches it: indices >= 0 are
    theta^g(a_r) and indices < 0 end in theta^g(a_l), with g the least
    positive multiple of that side's own seed period (p_r or p_l) for which
    ell^g covers the range.  At such g, theta^g(a_r) begins with a_r and
    theta^g(a_l) ends with a_l, so each is a stretch of its side of the fixed
    point.  A side the range does not reach stays empty.  Both sides are
    sized against the budget, the left first, before either is built.
    """
    seeds = sub.require_seed()
    p_r, p_l = sub.seed_periods()
    ell, limit = sub.length, word_budget()
    generations = []
    for period, need in ((p_l, -lo), (p_r, hi + 1)):
        g = 0
        if need > 0:
            g = period
            while ell**g < need:
                g += period
            if ell**g > limit:
                raise Overflow(f"window of length 2*{ell}^{g} exceeds budget {limit}")
        generations.append(g)
    typecode = "B" if len(sub.alphabet) <= 256 else "I"
    left, right = (
        _substitute(sub, letter, g, typecode) if g else array(typecode)
        for letter, g in zip(seeds, generations)
    )
    return Window(sub.alphabet, -len(left), len(right) - 1, left + right)


def _substitute(sub: Substitution, letter: int, generations: int, typecode: str) -> array:
    """theta^g(letter) as an array of ordinals, by block substitution.

    With h = g // 2, the theta^h image of every letter is built once as a
    bytes block; theta^(g-h)(letter) is then substituted letter by letter and
    its letters replaced by their blocks in one join.  The Python-level loop
    visits about |A|*ell^h + ell^(g-h) letters instead of ell^g.
    """
    blocks = [array(typecode, (a,)).tobytes() for a in range(len(sub.alphabet))]
    half = generations // 2
    for _ in range(half):
        blocks = [b"".join(map(blocks.__getitem__, rule)) for rule in sub.rules]
    word = [letter]
    for _ in range(generations - half):
        word = [o for x in word for o in sub.rules[x]]
    out = array(typecode)
    out.frombytes(b"".join(map(blocks.__getitem__, word)))
    return out


def sample_progression(
    window: Window,
    n: int,
    step: int,
    max_terms: int | None = None,
    stop_at: int | None = None,
) -> frozenset[str]:
    """Letters observed along n + m*step for every m keeping the index in-window.

    ``max_terms`` bounds how many indices are examined (walking outward from n
    in both directions); ``stop_at`` returns early once that many distinct
    letters have been seen.  Both default to exhausting the window.
    """
    if step < 1:
        raise IndexOutOfWindow(f"step must be positive, got {step}")
    if n not in window:
        raise IndexOutOfWindow(f"start index {n} outside window {window.lo}..{window.hi}")
    letters = window.letters
    last = len(letters) - 1
    seen: set[int] = set()
    down, up = n - window.lo, n - window.lo + step  # offsets into the letters
    examined = 0
    while down >= 0 or up <= last:
        if down >= 0:
            seen.add(letters[down])
            down -= step
            examined += 1
        if up <= last:
            seen.add(letters[up])
            up += step
            examined += 1
        if stop_at is not None and len(seen) >= stop_at:
            break
        if max_terms is not None and examined >= max_terms:
            break
    return frozenset(window.alphabet[o] for o in seen)
