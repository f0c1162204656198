import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitwitness import digits
from digitwitness.digits import (
    _COUNT_CHUNK,
    _DECIMAL_CHARS_CAP,
    _SPLIT_BITS,
    STR_DIGITS,
    decimal_int,
    decimal_str,
    digit_sum,
    digit_sum_counts,
    expand,
    ilog,
    log2_bracket,
)

# q = 2 takes int.bit_count.  With 30-bit CPython digits, 8^10 = 2^30 is not
# below one digit, so base 8 takes blocks of 8^8; from 2^15 up q^2 is not
# below one digit either, and the half-block is q itself.
DIGIT = 1 << sys.int_info.bits_per_digit
ENGINE_BASES = [2, 3, 5, 7, 8, 10, 16, 2**15 - 1, 2**15, 2**15 + 1, 2**16 + 1,
                2**30 - 1, 2**30 + 1]


def block_digits(q):
    """Digits per block: 2j for the largest j >= 1 with q^(2j) below one digit."""
    j = 1
    while q ** (2 * j + 2) < DIGIT:
        j += 1
    return 2 * j


def table_block_digits(q):
    """Digits per block of the engine before one-digit blocks: the largest j
    with q^j <= 2^16, at least 1.  Its split points stay under test."""
    j = 1
    while q ** (j + 1) <= 1 << 16:
        j += 1
    return j


class TestExpand:
    def test_zero_is_empty(self):
        assert expand(0, 2) == []

    def test_five_binary(self):
        assert expand(5, 2) == [1, 0, 1]

    def test_decimal(self):
        # independent oracle: decimal digits of 4999, least significant first
        assert expand(4999, 10) == [int(c) for c in reversed("4999")]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            expand(-1, 10)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            expand(5, 1)

    @given(st.integers(min_value=0, max_value=10**60), st.integers(2, 64))
    def test_round_trip(self, n, q):
        digits = expand(n, q)
        assert all(0 <= d < q for d in digits)
        assert not digits or digits[-1] != 0
        assert sum(d * q**i for i, d in enumerate(digits)) == n

    def test_round_trip_huge(self):
        rng = random.Random(20240817)
        for bits in (5_000, 40_000):
            n = rng.getrandbits(bits) | (1 << (bits - 1))
            for q in (2, 10, 257):
                value = 0
                for d in reversed(expand(n, q)):
                    value = value * q + d
                assert value == n


def brute_ilog(base, x):
    e = 0
    while base ** (e + 1) <= x:
        e += 1
    return e


class TestIlog:
    @settings(max_examples=300)
    @given(st.integers(2, 20), st.integers(1, 10**40))
    def test_matches_brute_force(self, base, x):
        assert ilog(base, x) == brute_ilog(base, x)

    @pytest.mark.parametrize("base", [2, 3, 10, 2**16 + 1])
    @pytest.mark.parametrize("e", [1, 2, 7, 40])
    def test_boundaries_of_each_power(self, base, e):
        power = base**e
        assert ilog(base, power - 1) == e - 1
        assert ilog(base, power) == e
        assert ilog(base, power + 1) == e

    @pytest.mark.parametrize("base", [1, 0, -2])
    def test_rejects_base_below_two(self, base):
        with pytest.raises(ValueError, match="base must be >= 2"):
            ilog(base, 100)

    @pytest.mark.parametrize("x", [0, -1])
    def test_rejects_x_below_one(self, x):
        with pytest.raises(ValueError, match="expected x >= 1"):
            ilog(3, x)



class TestLog2Bracket:
    @pytest.mark.parametrize("q", [2, 3, 10, 16, 2**16 + 1])
    def test_brackets_log2_q(self, q):
        a, b = log2_bracket(q)
        assert 2**a <= q**16 <= 2**b

    @pytest.mark.parametrize("q", [1, 0, -3])
    def test_rejects_base_below_two(self, q):
        with pytest.raises(ValueError, match="base must be >= 2"):
            log2_bracket(q)

class TestDecimalStr:
    @given(st.integers(min_value=-(10**3000), max_value=10**3000))
    def test_matches_str_below_the_limit(self, n):
        assert decimal_str(n) == str(n)

    @pytest.mark.parametrize(
        "n", [2**13000 - 1, 2**13000, -(10**4299), 10**4300 - 1, 7 * 10**4000 + 3],
        ids=["2^13000-1", "2^13000", "-10^4299", "10^4300-1", "7e4000+3"],
    )
    def test_split_values_match_str(self, n):
        assert decimal_str(n) == str(n)

    @pytest.mark.parametrize(
        "n", [10**5000, 10**5000 - 1, -(10**5000 + 12345), 7 * 10**4500 + 3,
              -(3**40000)],
        ids=["10^5000", "10^5000-1", "-(10^5000+12345)", "7e4500+3", "-3^40000"],
    )
    def test_rebuilds_values_past_the_limit(self, n):
        text = decimal_str(n)
        digits = text.removeprefix("-")
        assert digits[0] != "0"
        value = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i : i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert (-value if text.startswith("-") else value) == n


@pytest.fixture
def unlimited_int_str():
    """Lift Python's int/str digit limit for one test (3.10 has none)."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestDecimalLadder:
    """decimal_str and decimal_int against str and int with the limit lifted."""

    def check(self, n):
        text = str(n)
        for value, string in ((n, text), (-n, "-" + text)):
            assert decimal_str(value) == string
            assert decimal_int(string) == value

    def test_random_values_up_to_1_mbit(self, unlimited_int_str):
        rng = random.Random("ladder")
        # decimal_str hands values of up to 3 * STR_DIGITS bits to str()
        for bits in (1, 64, 4000, 3 * STR_DIGITS, 3 * STR_DIGITS + 1, 14300,
                     50_000, 200_000, 1 << 20):
            self.check(rng.getrandbits(bits) | 1 << (bits - 1))

    def test_values_where_the_splits_fall(self, unlimited_int_str):
        # 10^(2^i) is a ladder power; 2^11 = 2048 digits is below the limit
        for i in range(11, 17):
            for delta in (-1, 0, 1):
                self.check(10 ** (1 << i) + delta)

    def test_long_strings_must_be_ascii_digits(self):
        digits = "7" * 5000
        for text in (digits[:2000] + "_" + digits, digits + " ", " " + digits,
                     "+" + digits, "--" + digits, digits[:-1] + "\u0663"):
            with pytest.raises(ValueError, match="must be ASCII digits"):
                decimal_int(text)

    def test_short_strings_follow_the_same_grammar(self):
        # "-" and 4300 digits is 4301 characters, and int() reads it too
        for text in ("0", "-0", "007", "9" * 4300, "-" + "9" * 4300):
            assert decimal_int(text) == int(text)
        # int() reads the first five; decimal_int reads only -?[0-9]+
        for text in ("1_000", " 12 ", "+7", "\u0661\u0662", "12\n", "", "-",
                     "abc", "1__0", " - 5", "9" * 4299 + "x"):
            with pytest.raises(ValueError, match="must be ASCII digits"):
                decimal_int(text)

    def test_refusal_quotes_at_most_20_characters(self):
        with pytest.raises(ValueError) as info:
            decimal_int("+" + "1" * 4000)
        assert str(info.value).endswith(f"got {'+' + '1' * 19!r}...")
        with pytest.raises(ValueError) as info:
            decimal_int("1_000")
        assert str(info.value).endswith("got '1_000'")

    def test_string_past_the_cap_is_refused_before_any_work(self):
        text = "1" * (_DECIMAL_CHARS_CAP + 1)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="longer than the 1262612-character cap"):
            decimal_int(text)
        assert time.perf_counter() - start < 0.1

    def test_ladders_are_kept_apart_by_root(self):
        n = 10**5000 + 7
        assert digit_sum(n, 10) == 8 and decimal_int(decimal_str(n)) == n
        assert digits._powers[10][:2] == [10, 100]
        assert digits._powers[10**8][:2] == [10**8, 10**16]


class TestDigitSum:
    @pytest.mark.parametrize(
        "n, q, expected",
        [(5, 2, 2), (999, 10, 27), (0, 7, 0), (4999, 10, 31), (2**40 - 1, 2, 40)],
    )
    def test_known_values(self, n, q, expected):
        assert digit_sum(n, q) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            digit_sum(-3, 2)

    @given(st.integers(min_value=0, max_value=10**40), st.integers(2, 64))
    def test_matches_expansion(self, n, q):
        assert digit_sum(n, q) == sum(expand(n, q))

    def test_base_above_table_cap(self):
        q = (1 << 16) + 1
        n = 3 * q**2 + 5 * q + 7
        assert digit_sum(n, q) == 15

    @given(st.integers(min_value=0, max_value=10**30), st.integers(3, 36))
    def test_congruence_mod_base_minus_one(self, n, q):
        assert digit_sum(n, q) % (q - 1) == n % (q - 1)


class TestDigitSumEngine:
    """Both sides of the block-loop cutoff and of the splits at block^(2^i)."""

    @pytest.mark.parametrize("q", ENGINE_BASES)
    def test_random_values_up_to_40_kbit(self, q):
        rng = random.Random(f"engine:{q}")
        sizes = [1, 2, 17, 100, _SPLIT_BITS - 1, _SPLIT_BITS, _SPLIT_BITS + 1,
                 2 * _SPLIT_BITS, 5_000, 12_345, 40_000]
        for bits in sizes:
            for _ in range(2):
                n = rng.getrandbits(bits) | 1 << (bits - 1)
                assert digit_sum(n, q) == sum(expand(n, q)), bits

    @pytest.mark.parametrize("q", ENGINE_BASES)
    def test_powers_where_the_splits_fall(self, q):
        # q^k with k = j * 2^i is block^(2^i), a split point of the engine
        for width in (block_digits(q), table_block_digits(q)):
            k = width
            while q**k < 1 << 40_000:
                for n in (q**k - 1, q**k, q**k + 1):
                    assert digit_sum(n, q) == sum(expand(n, q)), (k, n - q**k)
                k *= 2

    def test_blocks_are_one_cpython_digit(self):
        # the largest q^(2j) below one digit, for every base with q^2 below it
        for q in range(3, math.isqrt(DIGIT - 1) + 1):
            table, block, half = digits._summer.__wrapped__(q).__defaults__
            assert block == half * half == q ** block_digits(q), q
            assert block < DIGIT <= block * q * q, q
            assert len(table) == half, q

    def test_single_digits_wider_than_the_cutoff(self):
        q = 3**600  # 951 bits
        assert digit_sum(q - 1, q) == q - 1
        assert digit_sum(q**3 + 5 * q + 6, q) == 12

    @pytest.mark.parametrize("q", [3, 10])
    def test_sparse_and_full_values(self, q):
        # long runs of zero digits in the middle and in the low part, and a
        # value whose every digit is q - 1 followed by low zeros
        for n in (q**9000 + q**4000 + 1, q**6000 * 7 + q**10, (q**5000 - 1) * q**3000):
            assert digit_sum(n, q) == sum(expand(n, q))


def recount(values, q, m):
    counts = [0] * m
    for v in values:
        counts[sum(expand(v, q)) % m] += 1
    return counts


class TestDigitSumCounts:
    @pytest.mark.parametrize("q", ENGINE_BASES)
    def test_matches_expansion_recount(self, q):
        rng = random.Random(q)
        split = q ** (block_digits(q) * 64)  # block^64, above the cutoff
        values = [0, 1, q - 1, q, q**2 - 1, split - 1, split] + [
            rng.getrandbits(rng.randrange(1, 200)) for _ in range(300)
        ] + [rng.getrandbits(rng.randrange(_SPLIT_BITS, 6_000)) for _ in range(40)]
        for m in (1, 3, 7):
            assert digit_sum_counts(values, q, m) == recount(values, q, m)

    def test_rejects_negative_value(self):
        # -7 is the chunk's minimum, -1 the first negative value read
        with pytest.raises(ValueError, match="^polynomial takes negative value -1$"):
            digit_sum_counts([4, -1, -7, 5], 2, 3)

    @pytest.mark.parametrize("q", [2, 3, 10])
    def test_one_shot_values_across_chunks(self, q):
        # three full chunks and a last one holding 7 values, read once
        rng = random.Random(q)
        values = [
            rng.getrandbits(rng.randrange(1, 80)) for _ in range(3 * _COUNT_CHUNK + 7)
        ]
        assert digit_sum_counts(iter(values), q, 5) == recount(values, q, 5)

    def test_rejects_negative_value_in_a_later_chunk(self):
        values = [1] * (2 * _COUNT_CHUNK + 5) + [-3] + [1] * 10
        with pytest.raises(ValueError, match="^polynomial takes negative value -3$"):
            digit_sum_counts(iter(values), 3, 4)


class TestSplitting:
    """The two power-gap identities of the `digits` docstring, for 1 <= b < q^k:

    s_q(a*q^k + b) = s_q(a) + s_q(b)
    s_q(a*q^k - b) = s_q(a-1) + k*(q-1) - s_q(b-1)
    """

    def test_add_binary(self):
        assert digit_sum(3, 2) + digit_sum(1, 2) == 3 == digit_sum(3 * 4 + 1, 2)

    def test_add_decimal(self):
        assert digit_sum(1, 10) + digit_sum(1, 10) == 2 == digit_sum(11, 10)
        assert digit_sum(9, 10) + digit_sum(9, 10) == 18 == digit_sum(99, 10)

    def test_sub_decimal(self):
        # 5*10^3 - 1 = 4999
        assert digit_sum(4, 10) + 3 * 9 - digit_sum(0, 10) == 31 == digit_sum(4999, 10)

    def test_sub_binary(self):
        assert digit_sum(0, 2) + 1 - digit_sum(0, 2) == 1 == digit_sum(1, 2)
        # 2*4 - 3 = 5 = 101_2
        assert digit_sum(1, 2) + 2 - digit_sum(2, 2) == 2 == digit_sum(5, 2)

    @settings(max_examples=300)
    @given(
        st.integers(2, 16),
        st.integers(1, 80),
        st.integers(1, 10**25),
        st.data(),
    )
    def test_soundness_randomized(self, q, k, a, data):
        b = data.draw(st.integers(1, q**k - 1))
        assert digit_sum(a, q) + digit_sum(b, q) == digit_sum(a * q**k + b, q)
        assert digit_sum(a - 1, q) + k * (q - 1) - digit_sum(b - 1, q) == digit_sum(
            a * q**k - b, q
        )
