import random

import pytest

from substratum import (
    IndexOutOfWindow,
    Overflow,
    expand,
    sample_progression,
    window_for_range,
)


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


def test_window_dump_marks_origin(pd2):
    window = expand(pd2, 1)
    text = window.dump()
    lines = text.splitlines()
    assert lines[0] == "abaaabaa"
    assert lines[1].index("^") == 4  # caret under index 0


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
