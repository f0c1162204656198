import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitwitness.digits import (
    digit_sum,
    digit_sum_counts,
    digit_value,
    expand,
    split_add,
    split_sub,
)


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
        assert digit_value(digits, q) == n

    def test_round_trip_huge(self):
        rng = random.Random(20240817)
        for bits in (5_000, 40_000):
            n = rng.getrandbits(bits) | (1 << (bits - 1))
            for q in (2, 10, 257):
                assert digit_value(expand(n, q), q) == n


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


def recount(values, q, m):
    counts = [0] * m
    for v in values:
        counts[sum(expand(v, q)) % m] += 1
    return counts


class TestDigitSumCounts:
    @pytest.mark.parametrize("q", [2, 3, 10, 2**16 + 1])
    def test_matches_expansion_recount(self, q):
        rng = random.Random(q)
        values = [0, 1, q - 1, q, q**2 - 1] + [
            rng.getrandbits(rng.randrange(1, 200)) for _ in range(300)
        ]
        for m in (1, 3, 7):
            assert digit_sum_counts(values, q, m) == recount(values, q, m)

    def test_rejects_negative_value(self):
        with pytest.raises(ValueError):
            digit_sum_counts([4, -1, 5], 2, 3)


class TestSplitting:
    def test_add_binary(self):
        assert split_add(3, 1, 2, 2) == 3 == digit_sum(3 * 4 + 1, 2)

    def test_add_decimal(self):
        assert split_add(1, 1, 1, 10) == 2 == digit_sum(11, 10)
        assert split_add(9, 9, 1, 10) == 18 == digit_sum(99, 10)

    def test_sub_decimal(self):
        # 5*10^3 - 1 = 4999
        assert split_sub(5, 1, 3, 10) == 31 == digit_sum(4999, 10)

    def test_sub_binary(self):
        assert split_sub(1, 1, 1, 2) == 1 == digit_sum(1, 2)
        # 2*4 - 3 = 5 = 101_2
        assert split_sub(2, 3, 2, 2) == 2 == digit_sum(5, 2)

    @pytest.mark.parametrize("b", [0, 4, 5])
    def test_rejects_b_outside_gap(self, b):
        with pytest.raises(ValueError):
            split_add(3, b, 2, 2)
        with pytest.raises(ValueError):
            split_sub(3, b, 2, 2)

    def test_rejects_bad_a_and_k(self):
        with pytest.raises(ValueError):
            split_add(0, 1, 1, 2)
        with pytest.raises(ValueError):
            split_sub(1, 1, 0, 2)

    @settings(max_examples=300)
    @given(
        st.integers(2, 16),
        st.integers(1, 80),
        st.integers(1, 10**25),
        st.data(),
    )
    def test_soundness_randomized(self, q, k, a, data):
        b = data.draw(st.integers(1, q**k - 1))
        assert split_add(a, b, k, q) == digit_sum(a * q**k + b, q)
        assert split_sub(a, b, k, q) == digit_sum(a * q**k - b, q)
