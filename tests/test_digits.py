import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitwitness.digits import digit_sum, digit_sum_counts, expand


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
