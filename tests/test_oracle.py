import random

import pytest

from substratum import (
    IndexOutOfWindow,
    Overflow,
    Substitution,
    build_direct,
    expand,
    sample_progression,
    window_for_range,
)
from substratum.substitution import word_budget


def test_expand_bigdiag(bigdiag):
    window = expand(bigdiag, 2)
    assert "".join(window.letter(i) for i in range(0, 9)) == "acbbbabaa"
    assert window.letter(0) == "a"
    assert window.letter(-1) == "b"


def test_expand_pd2(pd2):
    window = expand(pd2, 1)
    assert "".join(window.letter(i) for i in range(0, 4)) == "abaa"


def test_expand_is_self_consistent(pd2, bigdiag, thue_morse):
    for sub in (pd2, bigdiag, thue_morse):
        small = expand(sub, 2)
        large = expand(sub, 3)
        for i in range(small.lo, small.hi + 1):
            assert small[i] == large[i]


def test_expand_budget(bigdiag):
    with pytest.raises(Overflow):
        expand(bigdiag, 20)


def test_expand_needs_a_generation(bigdiag):
    # a bad argument, not a budget exhausted
    for generations in (0, -1):
        with pytest.raises(ValueError, match="need at least one generation"):
            expand(bigdiag, generations)


def test_window_for_range(pd2):
    window = window_for_range(pd2, -100, 1000)
    assert window.lo <= -100 and window.hi >= 1000


def test_sample_progression_periodic_direction(pd2):
    window = expand(pd2, 5)
    assert sample_progression(window, 0, 2) == {"a"}
    assert sample_progression(window, 1, 4) == {"b"}


def test_sample_progression_certifies_aperiodic_point(pd2):
    window = expand(pd2, 6)
    for k in range(1, 6):
        assert len(sample_progression(window, -1, 2**k)) == 2


def test_sample_progression_step_one(pd2):
    window = expand(pd2, 4)
    assert sample_progression(window, 3, 1) == {"a", "b"}


def test_sample_progression_out_of_window(pd2):
    window = expand(pd2, 2)
    with pytest.raises(IndexOutOfWindow):
        sample_progression(window, 10**6, 4)


def test_sample_progression_early_stop(pd2):
    window = expand(pd2, 5)
    full = sample_progression(window, 5, 1)
    capped = sample_progression(window, 5, 1, stop_at=2)
    assert capped <= full and len(capped) == 2


def test_window_getitem_bounds(pd2):
    window = expand(pd2, 1)
    with pytest.raises(IndexOutOfWindow):
        window[window.hi + 1]


def _progression_by_letters(window, n, step, max_terms=None, stop_at=None):
    """The index-by-index Window.letter walk that sample_progression must match."""
    seen = set()
    down, up = n, n + step
    examined = 0
    while down >= window.lo or up <= window.hi:
        if down >= window.lo:
            seen.add(window.letter(down))
            down -= step
            examined += 1
        if up <= window.hi:
            seen.add(window.letter(up))
            up += step
            examined += 1
        if stop_at is not None and len(seen) >= stop_at:
            break
        if max_terms is not None and examined >= max_terms:
            break
    return frozenset(seen)


def test_sample_progression_matches_the_letter_walk(bigdiag, pd2):
    rng = random.Random(5)
    for sub in (bigdiag, pd2):
        window = expand(sub, 4)
        for _ in range(400):
            n = rng.randint(window.lo, window.hi)
            step = rng.choice([1, 2, 3, 4, 9, 16, 27, 64, 81, rng.randint(1, len(window))])
            max_terms = rng.choice([None, 1, 2, 5, 2 * sub.length**3])
            stop_at = rng.choice([None, 1, 2, 3])
            expected = _progression_by_letters(window, n, step, max_terms, stop_at)
            assert sample_progression(window, n, step, max_terms, stop_at) == expected


def _generations(sub, period, need):
    """The least positive multiple g of ``period`` with ell^g >= need."""
    g = period
    while sub.length**g < need:
        g += period
    return g


def _image(sub, letter, generations):
    """theta^g(letter) by the per-generation tuple loop."""
    word = (letter,)
    for _ in range(generations):
        word = sub.apply(word)
    return word


def _expand_by_steps(sub, generations):
    """The per-generation tuple loop that expand's block substitution must
    match, each side grown to the least multiple of its own seed period that
    is >= g: (lo, hi, letters) or the Overflow message."""
    a_l, a_r = sub.require_seed()
    p_r, p_l = sub.seed_periods()
    limit = word_budget()
    g_l, g_r = (_generations(sub, p, sub.length**generations) for p in (p_l, p_r))
    for g in (g_l, g_r):
        if sub.length**g > limit:
            return f"window of length 2*{sub.length}^{g} exceeds budget {limit}"
    left, right = _image(sub, a_l, g_l), _image(sub, a_r, g_r)
    return -len(left), len(right) - 1, left + right


def _expand_outcome(sub, generations):
    try:
        window = expand(sub, generations)
    except Overflow as exc:
        return str(exc)
    return window.lo, window.hi, tuple(window.letters)


def test_expand_matches_the_generation_loop(fixtures, random_inputs):
    subs = fixtures + random_inputs
    assert any(sub.seed_period() > 1 for sub in subs)
    for sub in subs:
        for g in range(1, 7):
            assert _expand_outcome(sub, g) == _expand_by_steps(sub, g)


def test_expand_overflows_at_the_same_generation(monkeypatch, fixtures, random_inputs):
    monkeypatch.setenv("SUBSTRATUM_BUDGET", "100")
    overflows = 0
    for sub in fixtures + random_inputs:
        for g in range(1, 7):
            expected = _expand_by_steps(sub, g)
            assert _expand_outcome(sub, g) == expected
            overflows += isinstance(expected, str)
    assert overflows


def test_expand_wide_alphabet_uses_four_byte_letters():
    rng = random.Random(300)
    letters = [f"x{i}" for i in range(300)]
    rules = {a: [rng.choice(letters) for _ in range(3)] for a in letters}
    rules["x0"] = ["x0", rng.choice(letters), "x0"]
    sub = Substitution.from_parts(letters, 3, rules, seed=["x0", "x0"])
    window = expand(sub, 6)
    assert window.letters.typecode == "I" and max(window.letters) > 255
    assert _expand_outcome(sub, 6) == _expand_by_steps(sub, 6)
    narrow = window_for_range(sub, -300, 300)
    assert [narrow[n] for n in range(-300, 301)] == [window[n] for n in range(-300, 301)]


def test_window_sides_are_seed_images_at_their_own_period(fixtures, random_inputs):
    subs = [sub for sub in fixtures + random_inputs if len(set(sub.seed_periods())) == 2]
    assert len(subs) >= 10
    for sub in subs:
        a_l, a_r = sub.seed
        p_r, p_l = sub.seed_periods()
        direct = build_direct(sub)
        for lo, hi in ((-40, -1), (0, 40), (-1, 0), (-100, 30)):
            window = window_for_range(sub, lo, hi)
            left = _image(sub, a_l, _generations(sub, p_l, -lo)) if lo < 0 else ()
            right = _image(sub, a_r, _generations(sub, p_r, hi + 1)) if hi >= 0 else ()
            assert (window.lo, window.hi) == (-len(left), len(right) - 1), str(sub)
            assert tuple(window.letters) == left + right, str(sub)
            word = direct.run_range(window.lo, window.hi)
            assert word == tuple(map(window.letter, range(window.lo, window.hi + 1))), str(sub)


def test_expand_at_multiples_of_the_seed_period_is_symmetric(fixtures, random_inputs):
    # the benchmark's checks expand at multiples of seed_period() only
    compared = 0
    for sub in fixtures + random_inputs:
        a_l, a_r = sub.seed
        p = sub.seed_period()
        for g in (p, 2 * p):
            if sub.length**g > 5000:
                continue
            window = expand(sub, g)
            assert (window.lo, window.hi) == (-(sub.length**g), sub.length**g - 1)
            assert tuple(window.letters) == _image(sub, a_l, g) + _image(sub, a_r, g)
            compared += p > 1
    assert compared >= 10
