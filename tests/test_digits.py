import pytest

from substratum import BadBase, DigitString, NonCanonical, pad, to_digits, to_int


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


def test_str_rendering():
    assert str(to_digits(-5, 2)) == "~1·011"
    assert str(to_digits(-1, 4)) == "~3·"
    assert str(to_digits(11, 2)) == "1011"
