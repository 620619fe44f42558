"""Brute-force ground truth: expanded fixed-point windows and progression sampling.

Everything here works directly on expanded words, never on automata, so it can
serve as the independent check for the symbolic constructions.  Windows hold
letter ordinals in an ``array``, one byte per letter up to 256 letters, built
by block substitution; progressions are walked on those and named at the end.
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

    def word_str(self) -> str:
        return self.alphabet.word_str(self.letters)

    def dump(self) -> str:
        """Plain text with a caret under index 0 (single-char alphabets)."""
        line = self.word_str()
        if 0 in self and all(len(s) == 1 for s in self.alphabet):
            return line + "\n" + " " * (-self.lo) + "^"
        return line


def expand(sub: Substitution, generations: int) -> Window:
    """Window covering at least [-ell^g, ell^g - 1], by substituting the seed.

    When the seed letters are merely periodic (not fixed) under the end
    columns, generations are rounded up to the seed period p = lcm(p_r, p_l)
    on both sides, although each side would anchor at a multiple of its own
    period: the window stays symmetric and its extent depends on g and p
    alone, and so do the progression samples and brute-force counts read off
    it.  Each side is theta^g of its seed letter from one block substitution,
    so the cost is one join of about 2*ell^g bytes plus a Python-level loop
    over about |A|*ell^(g/2) letters.
    """
    if generations < 1:
        raise Overflow("need at least one generation")
    a_l, a_r = sub.require_seed()
    p = sub.seed_period()
    g = generations
    if g % p:
        g += p - g % p
    limit = word_budget()
    if sub.length**g > limit:
        raise Overflow(f"window of length 2*{sub.length}^{g} exceeds budget {limit}")
    left = sub._substitute(a_l, g, limit)
    return Window(sub.alphabet, -len(left), len(left) - 1, left + sub._substitute(a_r, g, limit))


def window_for_range(sub: Substitution, lo: int, hi: int) -> Window:
    """Smallest expand() window containing [lo, hi]."""
    need = max(abs(lo), abs(hi) + 1, sub.length)
    g = 1
    while sub.length**g < need:
        g += 1
    return expand(sub, g)


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
