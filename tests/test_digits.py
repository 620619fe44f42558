from dataclasses import replace

import pytest

from substratum import BadBase, build_direct, build_reverse_semigroup, to_digits, to_int
from substratum.automata import DIRECT
from substratum.digits import CHUNK_CAP, _chunks

CHUNK_BASES = [2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 255, 256, 257, 300]


def _low_first_by_divmod(n, base):
    """The reference expansion: one divmod per digit, least significant first."""
    if base < 2:
        raise BadBase(f"base must be >= 2, got {base}")
    digits = []
    stop = 0 if n >= 0 else -1
    while n != stop:
        n, r = divmod(n, base)
        digits.append(r)
    if stop:
        digits.append(base - 1)
    return tuple(digits)


def _run_by_low_first(machine, n):
    """The reference reading of u_n: low-first digits padded at the high end,
    reversed for a direct machine."""
    digits = _low_first_by_divmod(n, machine.ell)
    if n >= 0:
        state, outputs, step, filler = machine.initial_nonneg, machine.out_nonneg, machine.pad_nonneg, 0
    else:
        state, outputs, step, filler = machine.initial_neg, machine.out_neg, machine.pad_neg, machine.ell - 1
    if step > 1 and len(digits) % step:
        digits += (filler,) * (step - len(digits) % step)
    for d in reversed(digits) if machine.reading == DIRECT else digits:
        state = machine.delta[state][d]
    return outputs[state]


def _chunk_boundaries(base):
    size = _chunks(base)[0]
    return [s * size**i + e for i in range(5) for s in (1, -1) for e in (-1, 0, 1)]


def test_binary_of_three():
    assert to_digits(3, 2) == (1, 1)
    assert to_int((1, 1), 2) == 3


def test_minus_one_is_the_bare_marker():
    assert to_digits(-1, 4) == (3,)
    assert to_int((3,), 4, negative=True) == -1


def test_minus_five_base_two():
    assert to_digits(-5, 2) == (1, 0, 1, 1)  # marker 1, then block 011
    assert to_int((1, 0, 1, 1), 2, negative=True) == -5


def test_zero_is_empty():
    assert to_digits(0, 7) == ()
    assert to_int((), 7) == 0


def test_pad_examples():
    # padded words of 3 (base 2), -1 (base 4) and 0 (base 5): fillers are 0, or the marker for n < 0
    assert to_int((0, 0, 1, 1), 2) == 3
    assert to_int((3, 3, 3), 4, negative=True) == -1
    assert to_int((0, 0), 5) == 0


def test_pad_preserves_value():
    for n in (-37, -1, 0, 5, 100):
        for base in (2, 3, 4, 10):
            filler = base - 1 if n < 0 else 0
            assert to_int((filler,) * 3 + to_digits(n, base), base, n < 0) == n


@pytest.mark.parametrize("base", [2, 3, 4, 10])
def test_round_trip(base):
    for n in range(-20_000, 20_001):
        assert to_int(to_digits(n, base), base, n < 0) == n


@pytest.mark.parametrize("base", [2, 3, 5])
def test_canonical_form(base):
    assert to_digits(0, base) == ()
    for n in range(-3000, 3000):
        digits = to_digits(n, base)
        if n > 0:
            assert digits[0] != 0
        if n < 0:
            # one marker, then a block whose leading digit is never the marker
            assert digits[0] == base - 1
            assert digits[1:2] != (base - 1,)


def test_successor_compatibility():
    for n in range(-500, 500):
        assert to_int(to_digits(n, 3), 3, n < 0) + 1 == to_int(to_digits(n + 1, 3), 3, n + 1 < 0)


def test_length_monotone_for_nonnegative():
    lengths = [len(to_digits(n, 2)) for n in range(0, 5000)]
    assert all(a <= b for a, b in zip(lengths, lengths[1:]))


def test_negative_length_counts_the_block():
    # the marker plus the block
    assert len(to_digits(-1, 4)) == 1
    assert len(to_digits(-5, 2)) == 1 + 3
    assert len(to_digits(-9, 4)) == 1 + 2


def test_bad_base():
    with pytest.raises(BadBase):
        to_digits(3, 1)


def test_padded_strings_flag_noncanonical():
    # a padded word is not the canonical one, and evaluates as given
    padded = (0, 0) + to_digits(3, 2)
    assert padded != to_digits(3, 2)
    assert to_int(padded, 2) == 3


@pytest.mark.parametrize("base", CHUNK_BASES)
def test_chunked_expansion_matches_the_divmod_loop(base):
    values = [*range(-10_000, 10_001), *_chunk_boundaries(base), 10**30, -(10**30)]
    for n in values:
        expected = _low_first_by_divmod(n, base)
        assert to_digits(n, base)[::-1] == expected, n


def test_chunk_sizes_stay_within_the_cap():
    for base in CHUNK_BASES:
        size, full, top_pos, top_neg = _chunks(base)
        assert len(full) == len(top_pos) == len(top_neg) == size
        assert size == base or size * base > CHUNK_CAP >= size


@pytest.mark.parametrize("base", [1, 0])
def test_bad_base_message_is_unchanged(base):
    with pytest.raises(BadBase, match=f"^base must be >= 2, got {base}$"):
        to_digits(5, base)
    with pytest.raises(BadBase, match=f"^base must be >= 2, got {base}$"):
        to_digits(-5, base)


def test_dfao_run_matches_the_low_first_reading_at_far_indices(pd2, periodic_right_seed, bigdiag):
    # the direct machines of periodic_right_seed and bigdiag pad one side to even length
    assert (build_direct(periodic_right_seed).pad_nonneg, build_direct(bigdiag).pad_neg) == (2, 2)
    far = [s * (10**e + d) for e in (12, 15, 20, 30) for d in range(-3, 4) for s in (1, -1)]
    for sub in (pd2, periodic_right_seed, bigdiag):
        direct = build_direct(sub)
        reverse = build_reverse_semigroup(sub)
        for machine in (direct, reverse, replace(reverse, pad_nonneg=2, pad_neg=3)):
            for n in far:
                assert machine.run(n) == _run_by_low_first(machine, n), (machine.reading, n)
