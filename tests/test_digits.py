import copy
import pickle
from dataclasses import FrozenInstanceError, is_dataclass, replace

import pytest

from substratum import (
    BadBase,
    DigitString,
    NonCanonical,
    build_direct,
    build_reverse_semigroup,
    pad,
    to_digits,
    to_int,
)
from substratum.automata import DIRECT
from substratum.digits import CHUNK_CAP, _chunks, _low_first

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
    ds = to_digits(3, 2)
    assert ds.digits == (1, 1)
    assert not ds.negative
    assert to_int(ds) == 3


def test_minus_one_is_the_bare_marker():
    ds = to_digits(-1, 4)
    assert ds.negative
    assert ds.digits == (3,)
    assert ds.block() == ()
    assert to_int(ds) == -1


def test_minus_five_base_two():
    ds = to_digits(-5, 2)
    assert ds.digits == (1, 0, 1, 1)  # marker 1, then block 011
    assert ds.block() == (0, 1, 1)
    assert to_int(ds) == -5


def test_zero_is_empty():
    ds = to_digits(0, 7)
    assert ds.digits == ()
    assert to_int(ds) == 0


def test_pad_examples():
    assert pad(to_digits(3, 2), 4).digits == (0, 0, 1, 1)
    assert pad(to_digits(-1, 4), 3).digits == (3, 3, 3)
    assert pad(to_digits(0, 5), 2).digits == (0, 0)


def test_pad_preserves_value():
    for n in (-37, -1, 0, 5, 100):
        for base in (2, 3, 4, 10):
            ds = to_digits(n, base)
            assert to_int(pad(ds, len(ds) + 3)) == n


def test_pad_shorter_rejected():
    with pytest.raises(ValueError):
        pad(to_digits(100, 2), 2)


@pytest.mark.parametrize("base", [2, 3, 4, 10])
def test_round_trip(base):
    for n in range(-20_000, 20_001):
        assert to_int(to_digits(n, base)) == n


@pytest.mark.parametrize("base", [2, 3, 5])
def test_canonical_form(base):
    for n in range(-3000, 3000):
        ds = to_digits(n, base)
        assert ds.is_canonical()
        if n > 0:
            assert ds.digits[0] != 0
        if n < 0:
            assert ds.digits[0] == base - 1
            block = ds.block()
            assert not block or block[0] != base - 1


def test_successor_compatibility():
    for n in range(-500, 500):
        assert to_int(to_digits(n, 3)) + 1 == to_int(to_digits(n + 1, 3))


def test_length_monotone_for_nonnegative():
    lengths = [len(to_digits(n, 2)) for n in range(0, 5000)]
    assert all(a <= b for a, b in zip(lengths, lengths[1:]))


def test_negative_length_counts_the_block():
    assert len(to_digits(-1, 4).block()) == 0
    assert len(to_digits(-5, 2).block()) == 3
    assert len(to_digits(-9, 4).block()) == 2


def test_bad_base():
    with pytest.raises(BadBase):
        to_digits(3, 1)


def test_non_canonical_rejections():
    with pytest.raises(NonCanonical):
        DigitString(2, (2,))  # digit out of range
    with pytest.raises(NonCanonical):
        DigitString(2, (), negative=True)  # negative needs its marker
    with pytest.raises(NonCanonical):
        to_int(DigitString(2, (), negative=True))


def test_padded_strings_flag_noncanonical():
    padded = pad(to_digits(3, 2), 4)
    assert not padded.is_canonical()
    assert to_int(padded) == 3


@pytest.mark.parametrize("base", CHUNK_BASES)
def test_chunked_expansion_matches_the_divmod_loop(base):
    values = [*range(-10_000, 10_001), *_chunk_boundaries(base), 10**30, -(10**30)]
    for n in values:
        expected = _low_first_by_divmod(n, base)
        assert _low_first(n, base) == expected, n
        assert to_digits(n, base).digits == expected[::-1], n


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
        _low_first(-5, base)


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


def test_to_digits_equals_the_validating_constructor():
    # to_digits fills its slots without the constructor's per-digit check
    for base in range(2, 8):
        for n in [*range(-5000, 5001), 10**30, -(10**30)]:
            ds = to_digits(n, base)
            checked = DigitString(base, ds.digits, n < 0)
            assert ds == checked and hash(ds) == hash(checked), (base, n)
            assert repr(ds) == repr(checked), (base, n)
    ds = to_digits(-5, 2)
    assert repr(ds) == "DigitString(base=2, digits=(1, 0, 1, 1), negative=True)"
    assert ds != (2, (1, 0, 1, 1), True)
    assert copy.copy(ds) == ds == pickle.loads(pickle.dumps(ds))


def test_digit_strings_are_frozen_and_the_constructor_still_checks():
    ds = to_digits(6, 2)
    for field, value in (("base", 3), ("digits", (1,)), ("negative", True)):
        with pytest.raises(FrozenInstanceError):
            setattr(ds, field, value)
        with pytest.raises(FrozenInstanceError):
            delattr(ds, field)
    assert ds == DigitString(2, (1, 1, 0))
    # not a dataclass: a new word comes from the constructor, which checks it
    assert not is_dataclass(ds)
    with pytest.raises(TypeError):
        replace(ds, digits=(2,))
    with pytest.raises(AttributeError):
        ds.extra = 1
    with pytest.raises(NonCanonical):
        DigitString(2, (2,))
    with pytest.raises(NonCanonical):
        DigitString(2, (), negative=True)
    with pytest.raises(BadBase):
        DigitString(1, ())

