from dataclasses import replace

import pytest

from substratum import (
    Overflow,
    Window,
    WindowTooShort,
    brute_force_kernel,
    brute_force_kernel_for,
    build_direct,
    build_reverse_semigroup,
    enumerate_kernel,
    expand,
    minimize,
    reverse_and_determinize,
    window_for_range,
)
from substratum.automata import _reverse_semigroup
from substratum.kernel import SAMPLE_LENGTH
from substratum.substitution import word_budget


def test_pd2_kernel_has_three_elements(pd2):
    elements = enumerate_kernel(pd2)
    assert [(el.e, el.j) for el in elements] == [(0, 0), (1, 0), (1, 1)]
    assert [el.class_map.vector() for el in elements] == ["(a,b)^T", "(a,a)^T", "(b,b)^T"]
    assert "".join(elements[0].sample) == "abaaabababaaabaa"
    assert "".join(elements[1].sample) == "a" * 16
    assert "".join(elements[2].sample) == "b" * 16


def test_pd2_one_sided_kernel(pd2):
    assert len(enumerate_kernel(pd2, side="one-sided")) == 3


def test_constant_substitution_kernel(constant_sub):
    assert len(enumerate_kernel(constant_sub)) == 1


def test_pd_original_kernel_includes_the_swapped_sequence(pd):
    elements = enumerate_kernel(pd)
    assert len(elements) == 4
    assert [(el.e, el.j) for el in elements] == [(0, 0), (1, 0), (1, 1), (2, 1)]
    swapped = next(el for el in elements if (el.e, el.j) == (1, 1))
    # odd-indexed subsequence of the period-doubling point swaps the letters
    base = next(el for el in elements if (el.e, el.j) == (0, 0))
    flip = {"a": "b", "b": "a"}
    assert "".join(swapped.sample) == "".join(flip[s] for s in base.sample)


def test_thue_morse_kernels(thue_morse):
    assert len(enumerate_kernel(thue_morse, side="one-sided")) == 2
    assert len(enumerate_kernel(thue_morse)) == 4


def test_bigdiag_kernel_size(bigdiag):
    assert len(enumerate_kernel(bigdiag)) == 45


def test_kernel_is_read_off_the_minimal_machine(six_letter, bigdiag, monkeypatch):
    # samples are machine runs, so deep witnesses (e up to 10 here) need no
    # expanded fixed point and a budget just above the state count suffices
    elements = enumerate_kernel(six_letter)
    assert len(elements) == 700 == minimize(build_reverse_semigroup(six_letter)).num_states
    for sub in (six_letter, bigdiag):
        direct = build_direct(sub)
        minimal = minimize(build_reverse_semigroup(sub))
        for el in enumerate_kernel(sub):
            indices = [el.j + n * sub.length**el.e for n in range(16)]
            assert el.sample == tuple(direct.run(i) for i in indices)
            assert el.sample == tuple(minimal.run(i) for i in indices)
    monkeypatch.setenv("SUBSTRATUM_BUDGET", "2000")
    assert len(enumerate_kernel(bigdiag)) == 45


def minimal_machine_kernel(sub, side):
    """The kernel read off the minimal machine, each witness state found by
    walking the unminimised machine along the witness's digits: the reference."""
    dfao, maps = _reverse_semigroup(sub, word_budget())
    if side == "one-sided":  # the non-negative outputs alone decide
        dfao = replace(dfao, out_neg=dfao.out_nonneg)
    minimal = minimize(dfao)
    ell = sub.length
    witnesses = {minimal.initial_nonneg: (0, 0)}
    frontier = [(minimal.initial_nonneg, 0)]
    e = 0
    while frontier:
        level = {}
        for d in range(ell):
            for s, j in frontier:
                t = minimal.delta[s][d]
                if t not in witnesses and t not in level:
                    level[t] = j + d * ell**e
        e += 1
        frontier = list(level.items())
        witnesses.update((t, (e, j)) for t, j in frontier)
    elements = []
    for e, j in witnesses.values():
        state, rest = dfao.initial_nonneg, j
        for _ in range(e):
            rest, d = divmod(rest, ell)
            state = dfao.delta[state][d]
        sample = tuple(minimal.run(j + n * ell**e) for n in range(SAMPLE_LENGTH))
        elements.append((maps[state], e, j, sample))
    return elements


def test_kernel_matches_the_minimal_machine_walk(fixtures, machine_slice):
    # the six-letter input, last of the fixtures, is compared with the direct machine above
    for sub in fixtures[:-1] + machine_slice:
        for side in ("one-sided", "two-sided"):
            elements = [(el.class_map, el.e, el.j, el.sample) for el in enumerate_kernel(sub, side)]
            assert elements == minimal_machine_kernel(sub, side), (str(sub), side)


def test_eilenberg_equality(pd, pd2, bigdiag, thue_morse):
    for sub in (pd, pd2, bigdiag, thue_morse):
        count = len(enumerate_kernel(sub))
        assert minimize(build_reverse_semigroup(sub)).num_states == count
        assert minimize(reverse_and_determinize(build_direct(sub))).num_states == count


def test_kernel_closed_under_digit_operators(pd2):
    elements = enumerate_kernel(pd2)
    maps = {el.class_map for el in elements}
    for el in elements:
        for i in range(pd2.length):
            assert el.class_map.compose(pd2.column(i)) in maps


def test_brute_force_pd2(pd2):
    window = expand(pd2, 6)  # 4096 letters on each side
    assert brute_force_kernel(window, 4, 5) == 3


def test_brute_force_depth_zero(pd2):
    window = expand(pd2, 3)
    assert brute_force_kernel(window, 4, 0) == 1


def test_brute_force_monotone_and_stabilizes(bigdiag):
    counts = [brute_force_kernel_for(bigdiag, depth) for depth in range(2, 8)]
    assert counts == sorted(counts)
    assert counts[-1] == counts[-2] == 45


def test_brute_force_matches_enumeration(pd, pd2, thue_morse):
    for sub, depth in ((pd, 4), (pd2, 4), (thue_morse, 5)):
        assert brute_force_kernel_for(sub, depth) == len(enumerate_kernel(sub))


def minimal_states_within(sub, side, depth):
    """States of the side's minimal reverse machine within ``depth`` digits of the start."""
    dfao = build_reverse_semigroup(sub)
    if side == "one-sided":  # the non-negative outputs alone decide
        dfao = replace(dfao, out_neg=dfao.out_nonneg)
    minimal = minimize(dfao)
    reached = frontier = {minimal.initial_nonneg}
    for _ in range(depth):
        frontier = {t for s in frontier for t in minimal.delta[s]} - reached
        reached = reached | frontier
    return len(reached)


def test_two_sided_brute_force_count_is_the_kernel(fixtures, machine_slice):
    # the six-letter input, last of the fixtures, needs a window beyond the budget
    *within_budget, six_letter = fixtures
    for sub in within_budget + machine_slice:
        kernel = enumerate_kernel(sub)
        depth = max(el.e for el in kernel) or 1
        assert brute_force_kernel_for(sub, depth) == len(kernel), str(sub)
    with pytest.raises(Overflow):
        brute_force_kernel_for(six_letter, max(el.e for el in enumerate_kernel(six_letter)))


def test_one_sided_brute_force_counts_the_minimal_states_within_depth(fixtures, random_inputs, machine_slice):
    subs = fixtures[:-1] + random_inputs[:20] + machine_slice
    for sub in subs:
        for depth in (1, 2):
            expected = minimal_states_within(sub, "one-sided", depth)
            assert brute_force_kernel_for(sub, depth, side="one-sided") == expected, str(sub)


def test_brute_force_count_with_coprime_seed_periods(coprime_seed_periods):
    # its seed periods 3 and 5 once made this window overflow at 2*4^15 letters
    assert brute_force_kernel_for(coprime_seed_periods, 2) == 21
    assert minimal_states_within(coprime_seed_periods, "two-sided", 2) == 21


def per_index_brute_force_count(window, ell, e_max, sample_range):
    """Distinct subsequences read one index at a time: the reference."""
    steps = [ell**e for e in range(e_max + 1)]
    return len({tuple(window[step * n + j] for n in sample_range) for step in steps for j in range(step)})


def test_brute_force_counts_match_per_index_reads(random_inputs):
    compared = 0
    for sub in random_inputs:
        for e_max in (1, 2, 3):
            try:
                window = expand(sub, e_max + 2)
            except Overflow:
                continue
            radius = min(-window.lo, window.hi + 1) // sub.length**e_max
            right = Window(window.alphabet, 0, window.hi, window.letters[-window.lo :])
            count = (right.hi + 1) // sub.length**e_max
            for w, sample_range in ((window, range(-radius, radius)), (right, range(count))):
                expected = per_index_brute_force_count(w, sub.length, e_max, sample_range)
                assert brute_force_kernel(w, sub.length, e_max) == expected
                compared += 1
    assert compared > 300


def test_brute_force_negative_depth_is_a_value_error(pd2):
    with pytest.raises(ValueError, match="depth must be >= 0"):
        brute_force_kernel_for(pd2, -1)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        brute_force_kernel(expand(pd2, 3), 4, -1)


def test_brute_force_window_too_short(pd2):
    window = expand(pd2, 2)
    with pytest.raises(WindowTooShort):
        brute_force_kernel(window, 4, 5)


def test_lambda_theta_duality_two_sided(pd2):
    # subsequence with step ell and offset r equals the r-th column applied letterwise
    half = 2048
    window = window_for_range(pd2, -half * 4, half * 4 + 3)
    word = tuple(map(window.letter, range(-half * 4, half * 4 + 4)))
    offset = half * 4
    for r in range(pd2.length):
        col = pd2.column(r)
        for n in range(-half, half):
            expected = pd2.alphabet[col.table[pd2.alphabet.index(word[offset + n])]]
            assert word[offset + 4 * n + r] == expected


def test_lambda_theta_duality_right_side(bigdiag):
    length = 2187
    window = window_for_range(bigdiag, 0, 3 * length + 2)
    word = tuple(map(window.letter, range(3 * length + 3)))
    for r in range(bigdiag.length):
        col = bigdiag.column(r)
        for n in range(length):
            expected = bigdiag.alphabet[col.table[bigdiag.alphabet.index(word[n])]]
            assert word[3 * n + r] == expected
