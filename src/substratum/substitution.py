"""Constant-length substitutions, their column maps and combinatorial invariants.

Words are stored as tuples of letter ordinals; symbols are interned into the
alphabet once at construction time.  All types are immutable and hashable, so
every derived quantity can be cached and shared freely across threads.  This
module holds the rules and their invariants only; expanded fixed-point windows
are built by :mod:`substratum.oracle`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import (
    BadAlphabet,
    BadSeed,
    DigitOutOfRange,
    InputError,
    Overflow,
    RuleLengthMismatch,
    SeedMissing,
    UnknownLetter,
)

DEFAULT_BUDGET = 1_000_000
BUDGET_ENV = "SUBSTRATUM_BUDGET"


def word_budget() -> int:
    """The one size budget: ``SUBSTRATUM_BUDGET`` if set, else 10**6.

    It caps expanded word lengths, automaton state counts and closure sizes;
    every construction reads it at the call, so a changed setting applies.
    A setting that is not a positive integer is invalid input.
    """
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = None
    if budget is None or budget < 1:
        raise InputError(f"{BUDGET_ENV} must be a positive integer, got {raw!r}")
    return budget


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite list of distinct symbols, addressable by ordinal."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise BadAlphabet("alphabet must be non-empty")
        if len(set(self.letters)) != len(self.letters):
            raise BadAlphabet(f"duplicate letters in {self.letters}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, ordinal: int) -> str:
        return self.letters[ordinal]

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise UnknownLetter(f"letter {letter!r} not in alphabet {self.letters}") from None

    def word_str(self, word) -> str:
        """Join ordinals back into symbols; space-separated for wide symbols."""
        symbols = [self.letters[o] for o in word]
        if all(len(s) == 1 for s in self.letters):
            return "".join(symbols)
        return " ".join(symbols)


@dataclass(frozen=True)
class ColumnMap:
    """A total map alphabet -> alphabet, written as a vector (f(a_0),...,f(a_d))^T."""

    alphabet: Alphabet
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        size = len(self.alphabet.letters)
        if len(self.table) != size:
            raise BadAlphabet("column map table must cover the whole alphabet")
        for o in self.table:
            if not 0 <= o < size:
                raise UnknownLetter(f"ordinal {o} outside alphabet")

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "ColumnMap":
        return cls(alphabet, tuple(range(len(alphabet))))

    def compose(self, inner: "ColumnMap") -> "ColumnMap":
        """The map sending x to self(inner(x)) — ``inner`` is applied first."""
        if inner.alphabet != self.alphabet:
            raise BadAlphabet("cannot compose maps over different alphabets")
        return ColumnMap(self.alphabet, tuple(self.table[o] for o in inner.table))

    def image_size(self) -> int:
        return len(set(self.table))

    def is_idempotent(self) -> bool:
        return self.compose(self) == self

    def cycle_length(self, ordinal: int) -> int | None:
        """Length of the cycle through ``ordinal``, or None if it sits on a tail."""
        x = ordinal
        for k in range(1, len(self.alphabet) + 1):
            x = self.table[x]
            if x == ordinal:
                return k
        return None

    def vector(self) -> str:
        return "(" + ",".join(map(self.alphabet.letters.__getitem__, self.table)) + ")^T"

    def __str__(self) -> str:
        return self.vector()


def _is_word(value) -> bool:
    """Whether ``value`` is a string or a list of strings, a word of the JSON input."""
    return isinstance(value, str) or (
        isinstance(value, (list, tuple)) and all(isinstance(s, str) for s in value)
    )


def _cycle_data(f: ColumnMap) -> tuple[int, int]:
    """(lcm of cycle lengths, max tail height) of the functional graph of f.

    f^n is idempotent exactly when the lcm divides n and n covers the height.
    """
    size = len(f.alphabet)
    on_cycle = [f.cycle_length(x) for x in range(size)]
    cycle_lcm = 1
    for c in on_cycle:
        if c is not None:
            cycle_lcm = math.lcm(cycle_lcm, c)
    height = 0
    for x in range(size):
        steps = 0
        while on_cycle[x] is None:
            x = f.table[x]
            steps += 1
        height = max(height, steps)
    return cycle_lcm, height


@dataclass(frozen=True)
class Substitution:
    """A length-ell substitution with an optional two-sided seed.

    ``rules[a]`` is the ordinal word the letter of ordinal ``a`` maps to.
    A seed ``(a_l, a_r)`` generates the bi-infinite fixed point with
    ``u_{-1} = a_l`` and ``u_0 = a_r``; the seed letters must lie on cycles of
    the first and last column maps so that some power of the substitution
    fixes them in place.
    """

    alphabet: Alphabet
    length: int
    rules: tuple[tuple[int, ...], ...]
    seed: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.length < 2:
            raise RuleLengthMismatch(f"substitution length must be >= 2, got {self.length}")
        size = len(self.alphabet.letters)
        if len(self.rules) != size:
            raise RuleLengthMismatch("one rule per alphabet letter required")
        for a, image in enumerate(self.rules):
            if len(image) != self.length:
                raise RuleLengthMismatch(
                    f"rule for {self.alphabet[a]!r} has length {len(image)}, expected {self.length}"
                )
            for o in image:
                if not 0 <= o < size:
                    raise UnknownLetter(f"rule for {self.alphabet[a]!r} leaves the alphabet")
        if self.seed is not None:
            a_l, a_r = self.seed
            for o in (a_l, a_r):
                if not 0 <= o < size:
                    raise UnknownLetter("seed letter outside alphabet")
            if self.column(0).cycle_length(a_r) is None:
                raise BadSeed(
                    f"right seed letter {self.alphabet[a_r]!r} is not periodic under the first column"
                )
            if self.column(self.length - 1).cycle_length(a_l) is None:
                raise BadSeed(
                    f"left seed letter {self.alphabet[a_l]!r} is not periodic under the last column"
                )

    # -- construction -------------------------------------------------

    @classmethod
    def from_parts(
        cls,
        letters,
        length: int,
        rules: dict,
        seed=None,
    ) -> "Substitution":
        """Build from symbol-level data (the JSON input shape).

        Field types are checked here, where the JSON enters: the length is an
        int, the alphabet and every rule a string or a list of strings, and
        the seed a list of two strings; anything else is invalid input.
        """
        if not isinstance(length, int) or isinstance(length, bool):
            raise RuleLengthMismatch(f"substitution length must be an integer, got {length!r}")
        if not _is_word(letters):
            raise BadAlphabet(f"alphabet must be a list of strings, got {letters!r}")
        alphabet = Alphabet(tuple(letters))
        if not isinstance(rules, dict):
            raise RuleLengthMismatch(f"rules must map letters to their images, got {rules!r}")
        rule_table = []
        for letter in alphabet:
            if letter not in rules:
                raise RuleLengthMismatch(f"no rule given for letter {letter!r}")
            image = rules[letter]
            if not _is_word(image):
                raise RuleLengthMismatch(f"rule for {letter!r} must be a string or a list of strings")
            rule_table.append(tuple(alphabet.index(s) for s in image))
        extra = set(rules) - set(alphabet.letters)
        if extra:
            raise UnknownLetter(f"rules given for letters outside the alphabet: {sorted(extra)}")
        seed_ord = None
        if seed is not None:
            if not isinstance(seed, (list, tuple)) or len(seed) != 2 or not _is_word(seed):
                raise BadSeed("seed must be a pair [left, right]")
            seed_ord = (alphabet.index(seed[0]), alphabet.index(seed[1]))
        return cls(alphabet, length, tuple(rule_table), seed_ord)

    # -- basic structure ----------------------------------------------

    def column(self, i: int) -> ColumnMap:
        """The map sending each letter to the i-th letter of its image."""
        if not 0 <= i < self.length:
            raise DigitOutOfRange(f"column index {i} outside 0..{self.length - 1}")
        return ColumnMap(self.alphabet, tuple(rule[i] for rule in self.rules))

    def columns(self) -> tuple[ColumnMap, ...]:
        return tuple(self.column(i) for i in range(self.length))

    def apply(self, word) -> tuple[int, ...]:
        """One substitution step on an ordinal word."""
        limit = word_budget()
        if len(word) * self.length > limit:
            raise Overflow(f"substituted word would exceed budget {limit}")
        out: list[int] = []
        for o in word:
            out.extend(self.rules[o])
        return tuple(out)

    def power(self, n: int) -> "Substitution":
        """The substitution theta^n, of length ell^n; the seed carries over."""
        if n < 1:
            raise DigitOutOfRange(f"power exponent must be >= 1, got {n}")
        limit = word_budget()
        if self.length**n > limit:
            raise Overflow(f"length {self.length}^{n} exceeds budget {limit}")
        rules = []
        for a in range(len(self.alphabet)):
            word = (a,)
            for _ in range(n):
                word = self.apply(word)
            rules.append(word)
        return Substitution(self.alphabet, self.length**n, tuple(rules), self.seed)

    def is_simplified(self) -> bool:
        return self.column(0).is_idempotent() and self.column(self.length - 1).is_idempotent()

    def simplify(self) -> tuple["Substitution", int]:
        """Least power whose first and last columns are idempotent.

        The exponent is read off the functional graphs of the end columns,
        since the first/last columns of theta^n are the n-fold self-compositions
        of theta's own end columns.
        """
        lcm0, h0 = _cycle_data(self.column(0))
        lcm1, h1 = _cycle_data(self.column(self.length - 1))
        cycles = math.lcm(lcm0, lcm1)
        height = max(h0, h1, 1)
        n = cycles * ((height + cycles - 1) // cycles)
        if n == 1:
            return self, 1
        return self.power(n), n

    # -- seed and fixed point -----------------------------------------

    def require_seed(self) -> tuple[int, int]:
        if self.seed is None:
            raise SeedMissing("operation needs a two-sided seed")
        return self.seed

    def seed_periods(self) -> tuple[int, int]:
        """Cycle lengths (right, left) of the seed letters under the end columns.

        Both are 1 exactly when the seed letters are genuinely fixed, i.e.
        rule(a_r) starts with a_r and rule(a_l) ends with a_l.  Larger values
        mean the seed generates a fixed point of that power of the substitution,
        and digit words must be padded to matching lengths.
        """
        a_l, a_r = self.require_seed()
        p_r = self.column(0).cycle_length(a_r)
        p_l = self.column(self.length - 1).cycle_length(a_l)
        assert p_r is not None and p_l is not None  # guaranteed by BadSeed check
        return p_r, p_l

    def seed_period(self) -> int:
        p_r, p_l = self.seed_periods()
        return math.lcm(p_r, p_l)

    # -- invariants ----------------------------------------------------

    def is_primitive(self) -> bool:
        """Whether some power of the occurrence relation is all-positive.

        Row a of the k-th power is the set of letters of theta^k(a), one int
        bitmask per letter.  Every row is non-empty, so once a power is
        all-positive every later one is too; squaring therefore decides by
        the first power at or past the Wielandt bound (|A|-1)^2 + 1.
        """
        size = len(self.alphabet.letters)
        full = (1 << size) - 1
        rows = [0] * size
        for a, rule in enumerate(self.rules):
            for b in rule:
                rows[a] |= 1 << b
        bound = (size - 1) ** 2 + 1
        power = 1
        while True:
            if all(row == full for row in rows):
                return True
            if power >= bound:
                return False
            squared = []
            for row in rows:
                union = 0
                for b in range(size):
                    if row >> b & 1:
                        union |= rows[b]
                squared.append(union)
            rows = squared
            power *= 2

    def height(self) -> int:
        """Dekking's height: the largest n coprime to ell dividing every k >= 0
        with u_k = u_0, read exactly off the direct machine.

        Dekking (1978) bounds it by |A|, so only n <= |A| are tried.  For each,
        a search from a_r over (letter, k mod n, word length mod p_r) reads
        every digit word, most significant digit first; words whose length is
        a multiple of p_r spell every k >= 0 and lead to u_k.  n fails when
        such a word reaches a_r with k mod n != 0.
        """
        _, a_r = self.require_seed()
        if not self.is_primitive():
            raise BadSeed("height is defined for primitive substitutions")
        p_r = self.seed_periods()[0]

        def passes(n: int) -> bool:
            seen = {(a_r, 0, 0)}
            stack = [(a_r, 0, 0)]
            while stack:
                letter, k, phase = stack.pop()
                if letter == a_r and k and not phase:
                    return False
                for d, image in enumerate(self.rules[letter]):
                    child = (image, (k * self.length + d) % n, (phase + 1) % p_r)
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
            return True

        candidates = range(len(self.alphabet), 0, -1)
        return next(n for n in candidates if math.gcd(n, self.length) == 1 and passes(n))

    def __str__(self) -> str:
        parts = [
            f"{self.alphabet[a]}->{self.alphabet.word_str(rule)}"
            for a, rule in enumerate(self.rules)
        ]
        return ", ".join(parts)
