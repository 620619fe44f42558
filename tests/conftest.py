import importlib.util
import os
import random
import sys

import pytest

from substratum import Substitution


@pytest.fixture(scope="session")
def pd():
    """Period-doubling substitution, seeded with its unique two-sided seed pair."""
    return Substitution.from_parts(["a", "b"], 2, {"a": "ab", "b": "aa"}, seed=["a", "a"])


@pytest.fixture(scope="session")
def pd2(pd):
    """Simplified period-doubling: a->abaa, b->abab over base 4."""
    simplified, exponent = pd.simplify()
    assert exponent == 2
    return simplified


@pytest.fixture(scope="session")
def bigdiag():
    """Three-letter worked example: a->acb, b->baa, c->bba with seed b·a."""
    return Substitution.from_parts(
        ["a", "b", "c"], 3, {"a": "acb", "b": "baa", "c": "bba"}, seed=["b", "a"]
    )


@pytest.fixture(scope="session")
def thue_morse():
    return Substitution.from_parts(["a", "b"], 2, {"a": "ab", "b": "ba"}, seed=["b", "a"])


@pytest.fixture(scope="session")
def constant_sub():
    return Substitution.from_parts(["a"], 2, {"a": "aa"}, seed=["a", "a"])


@pytest.fixture(scope="session")
def periodic_right_seed():
    """a->bb, b->ab with seed b·a: the right seed letter a has period 2 under
    the first column, so the fixed point is fixed by theta^2 only."""
    return Substitution.from_parts(["a", "b"], 2, {"a": "bb", "b": "ab"}, seed=["b", "a"])


@pytest.fixture(scope="session")
def coprime_seed_periods():
    """Seed a·c with periods 3 (right) and 5 (left) over base 4: a window
    grown on both sides in steps of lcm = 15 would need 4^15 letters a side."""
    return Substitution.from_parts(
        list("abcde"),
        4,
        {"a": "ddae", "b": "badc", "c": "abed", "d": "cada", "e": "dbeb"},
        seed=["a", "c"],
    )


@pytest.fixture(scope="session")
def height_two():
    """Periodic fixed point ababab... with ell = 3, so the height is 2."""
    return Substitution.from_parts(["a", "b"], 3, {"a": "aba", "b": "bab"}, seed=["b", "a"])


@pytest.fixture(scope="session")
def six_letter():
    """Six letters over base 4 whose reverse machine is already minimal (700 states)."""
    return Substitution.from_parts(
        list("abcdef"),
        4,
        {"a": "abea", "b": "dcdc", "c": "aeee", "d": "ecde", "e": "abfb", "f": "eeba"},
        seed=["a", "a"],
    )


@pytest.fixture(scope="session")
def random_inputs():
    """Sixty seeded random 2..5-letter substitutions with ell in 2..4, whose
    seed letters lie on cycles of the end columns, often with period above 1."""
    rng = random.Random(7)
    subs = []
    for _ in range(60):
        letters = list("abcde"[: rng.randint(2, 5)])
        length = rng.randint(2, 4)
        rules = {a: [rng.choice(letters) for _ in range(length)] for a in letters}
        a_l = a_r = letters[0]
        for _ in letters:  # after |A| steps both letters lie on a cycle of their column
            a_l, a_r = rules[a_l][-1], rules[a_r][0]
        subs.append(Substitution.from_parts(letters, length, rules, seed=[a_l, a_r]))
    return subs


@pytest.fixture(scope="session")
def fixtures(pd, pd2, bigdiag, thue_morse, constant_sub, periodic_right_seed, height_two, six_letter):
    """Every seeded example above."""
    return [pd, pd2, bigdiag, thue_morse, constant_sub, periodic_right_seed, height_two, six_letter]


@pytest.fixture(scope="session")
def late_return():
    """u_0 = c returns at 6, 12, 24, 48 and 54, then at 94: the return times
    have gcd 2, and ell = 2, so the height is 1."""
    return Substitution.from_parts(
        list("abcdef"),
        2,
        {"a": "ad", "b": "cd", "c": "ce", "d": "af", "e": "ab", "f": "fe"},
        seed=["d", "c"],
    )


@pytest.fixture(scope="session")
def periodic_coincidence():
    """Four admitted inputs whose fixed points are periodic, each with its
    least period: ell^4, ell^3, ell^3 and ell^4."""

    def parts(letters, length, rules, seed):
        return Substitution.from_parts(list(letters), length, rules, seed=list(seed))

    return [
        (parts("abcde", 2, {"a": "dc", "b": "dc", "c": "ec", "d": "ea", "e": "eb"}, "ce"), 16),
        (parts("abcd", 2, {"a": "dc", "b": "ba", "c": "bc", "d": "ba"}, "cb"), 8),
        (parts("abcd", 2, {"a": "da", "b": "da", "c": "ca", "d": "cb"}, "ac"), 8),
        (parts("abcde", 3, {"a": "bce", "b": "bdd", "c": "ade", "d": "aed", "e": "aed"}, "db"), 81),
    ]


@pytest.fixture(scope="session")
def corpus():
    """The benchmark's seeded corpus generator, bench/corpus.py."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "corpus.py")
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def machine_slice(corpus):
    """The first 60 inputs of the benchmark's machine-build corpus at seed 1,
    built once: the corpus takes about a second to draw."""
    return [entry.sub for entry in corpus.machine_corpus(1)[:60]]
