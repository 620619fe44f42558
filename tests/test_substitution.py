import collections
import math
import random

import pytest

from substratum import (
    Alphabet,
    BadSeed,
    ColumnMap,
    DigitOutOfRange,
    Overflow,
    RuleLengthMismatch,
    Substitution,
    UnknownLetter,
    build_direct,
    closure,
    window_for_range,
)
from substratum.errors import InputError
from substratum.substitution import word_budget


def fixed_point(sub, lo, hi):
    """Letters u_lo .. u_hi of the two-sided fixed point, as symbols."""
    window = window_for_range(sub, lo, hi)
    return tuple(map(window.letter, range(lo, hi + 1)))


def test_validate_period_doubling():
    sub = Substitution.from_parts(["a", "b"], 2, {"a": "ab", "b": "aa"}, seed=["a", "a"])
    assert sub.length == 2
    assert sub.alphabet.letters == ("a", "b")


def test_validate_rule_length_mismatch():
    with pytest.raises(RuleLengthMismatch):
        Substitution.from_parts(["a", "b"], 2, {"a": "ab", "b": "a"})


def test_validate_unknown_letter():
    with pytest.raises(UnknownLetter):
        Substitution.from_parts(["a", "b"], 2, {"a": "ab", "b": "ax"})


def test_validate_bigdiag_seed_accepted():
    sub = Substitution.from_parts(
        ["a", "b", "c"], 3, {"a": "acb", "b": "baa", "c": "bba"}, seed=["b", "a"]
    )
    assert sub.seed_periods() == (1, 2)


def test_validate_bad_seed():
    # b is not periodic under the first column of period-doubling
    with pytest.raises(BadSeed):
        Substitution.from_parts(["a", "b"], 2, {"a": "ab", "b": "aa"}, seed=["a", "b"])


def test_columns_period_doubling(pd):
    assert pd.column(0).vector() == "(a,a)^T"
    assert pd.column(1).vector() == "(b,a)^T"


def test_column_bigdiag(bigdiag):
    assert bigdiag.column(2).vector() == "(b,a,a)^T"


def test_column_out_of_range(pd):
    with pytest.raises(DigitOutOfRange):
        pd.column(2)


def test_power_period_doubling(pd):
    squared = pd.power(2)
    words = [pd.alphabet.word_str(rule) for rule in squared.rules]
    assert words == ["abaa", "abab"]
    assert squared.length == 4


def test_power_identity(pd):
    assert pd.power(1).rules == pd.rules


def test_power_bigdiag_first_row(bigdiag):
    squared = bigdiag.power(2)
    assert bigdiag.alphabet.word_str(squared.rules[0]) == "acbbbabaa"


def test_power_overflow(pd):
    with pytest.raises(Overflow):
        pd.power(40)


def test_power_composition_invariant(pd, bigdiag, thue_morse):
    for sub in (pd, bigdiag, thue_morse):
        squared = sub.power(2)
        for i in range(sub.length):
            for j in range(sub.length):
                expected = sub.column(j).compose(sub.column(i))
                assert squared.column(i * sub.length + j) == expected


def test_simplify_period_doubling(pd):
    simplified, exponent = pd.simplify()
    assert exponent == 2
    assert [pd.alphabet.word_str(r) for r in simplified.rules] == ["abaa", "abab"]
    assert simplified.column(0).is_idempotent()
    assert simplified.column(simplified.length - 1).is_idempotent()


def test_simplify_fixpoint(pd2):
    again, exponent = pd2.simplify()
    assert exponent == 1
    assert again is pd2


def test_simplify_bigdiag(bigdiag):
    # the last column (b,a,a)^T swaps a and b, so one power is not enough
    assert not bigdiag.is_simplified()
    simplified, exponent = bigdiag.simplify()
    assert exponent == 2
    assert simplified.column(0).is_idempotent()
    assert simplified.column(simplified.length - 1).is_idempotent()


def test_simplify_least_exponent(pd, bigdiag, thue_morse):
    for sub in (pd, bigdiag, thue_morse):
        _, exponent = sub.simplify()
        for n in range(1, exponent):
            p = sub.power(n)
            assert not (
                p.column(0).is_idempotent() and p.column(p.length - 1).is_idempotent()
            )


def test_fixed_point_window_bigdiag(bigdiag):
    assert "".join(fixed_point(bigdiag, 0, 8)) == "acbbbabaa"
    assert "".join(fixed_point(bigdiag, -1, 0)) == "ba"
    assert "".join(fixed_point(bigdiag, -9, -1)) == "baaacbacb"


def test_fixed_point_window_pd2(pd2):
    assert "".join(fixed_point(pd2, 0, 3)) == "abaa"
    assert "".join(fixed_point(pd2, -4, -1)) == "abaa"


def test_fixed_point_substitution_invariance(pd2, bigdiag):
    for sub in (pd2, bigdiag):
        p = sub.seed_period()
        factor = sub.length**p
        lo, hi = -7, 7
        window = fixed_point(sub, lo, hi)
        ords = [sub.alphabet.index(s) for s in window]
        for _ in range(p):
            ords = list(sub.apply(ords))
        expanded = fixed_point(sub, factor * lo, factor * hi + factor - 1)
        assert tuple(sub.alphabet[o] for o in ords) == expanded


def test_is_primitive(pd, bigdiag):
    assert pd.is_primitive()
    assert bigdiag.is_primitive()
    split = Substitution.from_parts(["a", "b"], 2, {"a": "aa", "b": "bb"})
    assert not split.is_primitive()


def primitive_by_iteration(sub):
    """The occurrence relation iterated up to the Wielandt bound, one round
    per power, as is_primitive ran before boolean squaring: the reference."""
    size = len(sub.alphabet)
    occ = [frozenset(rule) for rule in sub.rules]
    reach = occ
    for _ in range((size - 1) ** 2 + 1):
        if all(len(row) == size for row in reach):
            return True
        reach = [frozenset().union(*(occ[b] for b in row)) for row in reach]
    return all(len(row) == size for row in reach)


def random_occurrence_inputs(count):
    """Seeded substitutions with |A| 1..8 and ell 2..4: uniform rules, reducible
    ones (the first letters never reach the last) and cyclic ones (letter a
    maps into the class after its own, mod p)."""
    rng = random.Random(20)
    for i in range(count):
        size, length = rng.randint(1, 8), rng.randint(2, 4)
        kind = i % 3
        if kind == 1 and size > 1:
            cut = rng.randint(1, size - 1)
            targets = [range(cut) if a < cut else range(size) for a in range(size)]
        elif kind == 2 and size > 1:
            p = rng.randint(2, size)
            targets = [[b for b in range(size) if b % p == (a + 1) % p] for a in range(size)]
        else:
            targets = [range(size)] * size
        rules = tuple(tuple(rng.choice(targets[a]) for _ in range(length)) for a in range(size))
        yield Substitution(Alphabet(tuple("abcdefgh"[:size])), length, rules)


def test_is_primitive_matches_iteration(fixtures, random_inputs):
    for sub in fixtures + random_inputs:
        assert sub.is_primitive() == primitive_by_iteration(sub), str(sub)
    verdicts = collections.Counter()
    for sub in random_occurrence_inputs(20_000):
        verdict = sub.is_primitive()
        assert verdict == primitive_by_iteration(sub), str(sub)
        verdicts[verdict] += 1
    assert min(verdicts.values()) > 2_000  # both answers are well represented


def test_is_primitive_powers(pd, bigdiag):
    for sub in (pd, bigdiag):
        for k in range(1, 6):
            assert sub.power(k).is_primitive() == sub.is_primitive()


def test_height_trivial(pd2, bigdiag, thue_morse):
    assert pd2.height() == 1
    assert bigdiag.height() == 1
    assert thue_morse.height() == 1


def test_height_two(height_two):
    assert height_two.height() == 2


def _height_by_returns(sub):
    """The largest divisor, coprime to ell, of the gcd of return times of u_0
    over a window of at least 20000 letters: the oracle for height()."""
    word = fixed_point(sub, 0, 20000)
    g = 0
    for k, letter in enumerate(word):
        if letter == word[0]:
            g = math.gcd(g, k)
    while (d := math.gcd(g, sub.length)) > 1:
        g //= d
    return g


def test_height_is_exact(fixtures, random_inputs, late_return):
    # the return-time gcd is 6 up to u_54, so a short window suggests height 3
    assert late_return.height() == 1 == _height_by_returns(late_return)
    heights = set()
    for sub in fixtures + random_inputs:
        if sub.is_primitive():
            assert sub.height() == _height_by_returns(sub), str(sub)
            heights.add(sub.height())
    assert heights == {1, 2}


def test_column_number(pd, bigdiag, thue_morse):
    # the column number is the least image size over the closure of the columns
    assert closure(pd.columns()).min_rank == 1
    assert closure(bigdiag.columns()).min_rank == 1
    assert closure(thue_morse.columns()).min_rank == 2


def test_column_number_power_invariant(pd, bigdiag, thue_morse):
    for sub, expected in ((pd, 1), (bigdiag, 1), (thue_morse, 2)):
        for k in range(1, 7):
            assert closure(sub.power(k).columns()).min_rank == expected


def test_column_map_composition_order(pd):
    c0, c1 = pd.column(0), pd.column(1)
    swap_then_const = c0.compose(c1)  # applies c1 first
    assert swap_then_const.table == tuple(c0.table[x] for x in c1.table)


def test_column_map_identity_unit(bigdiag):
    ident = ColumnMap.identity(bigdiag.alphabet)
    for i in range(3):
        col = bigdiag.column(i)
        assert col.compose(ident) == col
        assert ident.compose(col) == col


def test_multicharacter_letters_use_array_rules():
    sub = Substitution.from_parts(
        ["lo", "hi"],
        2,
        {"lo": ["lo", "hi"], "hi": ["lo", "lo"]},
        seed=["lo", "lo"],
    )
    assert sub.alphabet.word_str(sub.rules[0]) == "lo hi"
    assert "".join(fixed_point(sub, 0, 3)) == "lohilolo"


def test_seed_letter_must_exist():
    with pytest.raises(UnknownLetter):
        Substitution.from_parts(["a", "b"], 2, {"a": "ab", "b": "aa"}, seed=["a", "z"])


def test_budget_env_override(pd, monkeypatch):
    monkeypatch.setenv("SUBSTRATUM_BUDGET", "8")
    with pytest.raises(Overflow):
        pd.power(4)
    monkeypatch.setenv("SUBSTRATUM_BUDGET", "1000000")
    assert pd.power(4).length == 16


def test_window_sides_grow_by_their_own_seed_period(coprime_seed_periods):
    # periods 3 (right) and 5 (left): a window of 4^15 letters per side would
    # exceed the budget, while each side alone needs at most 4^6 letters here
    sub = coprime_seed_periods
    assert sub.seed_periods() == (3, 5)
    direct = build_direct(sub)
    assert fixed_point(sub, 0, 255) == direct.run_range(0, 255)
    assert fixed_point(sub, -300, -1) == direct.run_range(-300, -1)


def test_word_budget_refuses_a_bad_setting(monkeypatch):
    monkeypatch.setenv("SUBSTRATUM_BUDGET", "1")
    assert word_budget() == 1
    for raw in ("ten", "1.5", "-3", "0"):
        monkeypatch.setenv("SUBSTRATUM_BUDGET", raw)
        with pytest.raises(InputError, match="SUBSTRATUM_BUDGET must be a positive integer") as info:
            word_budget()
        assert type(info.value) is InputError, raw  # a bad setting, not a bad alphabet
