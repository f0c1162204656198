from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitwitness.bounds import (
    RootRational,
    bracket_scale,
    certify_lower_bound,
    explicit_constants,
    guaranteed_count,
    nth_root_floor,
)
from digitwitness.construction import admissible_ranges

# gcd-admissible grid used throughout
GRID = [
    (q, m, h)
    for q in (2, 3, 5, 10)
    for m in (2, 3, 5, 7)
    if gcd(m, q - 1) == 1
    for h in (3, 4, 5)
]


class TestNthRootFloor:
    @given(st.integers(0, 10**60), st.integers(1, 11))
    def test_defining_property(self, x, n):
        r = nth_root_floor(x, n)
        assert r**n <= x < (r + 1) ** n

    def test_exact_powers(self):
        assert nth_root_floor(2**100, 10) == 2**10
        assert nth_root_floor(2**100 - 1, 10) == 2**10 - 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            nth_root_floor(-1, 3)


class TestRootRational:
    @given(st.integers(0, 10**12), st.integers(1, 10**6), st.integers(1, 7))
    def test_ceil_defining_property(self, num, den, root):
        r = RootRational(num, den, root).ceil()
        assert r**root * den >= num
        assert r == 0 or (r - 1) ** root * den < num


class TestExplicitConstants:
    def test_binary_instance_is_pinned(self):
        constants = explicit_constants(2, 3, 3)
        assert constants.u0 == 15
        assert constants.n0 == 2**27 * 41472**10

    def test_decimal_instance(self):
        constants = explicit_constants(10, 7, 3)
        assert constants.u0 == 8
        assert constants.n0 == 10 ** (3 * (6 + 7)) * (2 * 3 * 100 * 60**3) ** 10

    def test_c_is_positive(self):
        for q, m, h in GRID:
            c = explicit_constants(q, m, h).c
            assert c.num > 0 and c.den > 0

    def test_rejects_gcd_violation(self):
        with pytest.raises(ValueError):
            explicit_constants(10, 3, 3)

    def test_n0_matches_closed_form_on_grid(self):
        for q, m, h in GRID:
            constants = explicit_constants(q, m, h)
            root = 3 * h + 1
            assert constants.n0 == q ** (3 * (2 * h + m)) * (
                2 * h * q**2 * (6 * q) ** h
            ) ** root


class TestGuaranteedCount:
    def test_binary_instance(self):
        count = guaranteed_count(2, 3, 15)
        assert count.exact == (2**14) ** 3 * 3
        assert count.estimate == Fraction(2**60, 8 * 20736)
        assert count.exact >= count.estimate

    def test_estimate_formula(self):
        count = guaranteed_count(2, 3, 15)
        assert count.estimate == Fraction((2 - 1) ** 3 * 2**60, 2**3 * 20736)

    def test_rejects_scale_below_minimum(self):
        with pytest.raises(ValueError):
            guaranteed_count(2, 3, 14)

    def test_enumeration_matches_box_size(self):
        for q, h, u in [(2, 3, 15), (2, 3, 17), (10, 3, 8), (3, 4, 16)]:
            count = guaranteed_count(q, h, u)
            assert count.exact == admissible_ranges(q, h, u).size
            assert count.exact >= count.estimate

    def test_estimate_scales_by_q4_per_scale_step(self):
        for q, m, h in GRID:
            u0 = explicit_constants(q, m, h).u0
            lower = guaranteed_count(q, h, u0)
            upper = guaranteed_count(q, h, u0 + 1)
            assert upper.estimate == q**4 * lower.estimate
            assert upper.exact >= q**4 * lower.estimate


class TestBracketScale:
    def test_unique_bracket(self):
        constants = explicit_constants(2, 3, 3)
        for factor in (1, 2**10, 2**20, 3 * 2**17):
            n_limit = constants.n0 * factor
            u = bracket_scale(2, 3, 3, n_limit)
            shift = 2 ** (3 * (2 * 3 + 3))
            step = 2 ** (3 * 3 + 1)
            assert shift * step**u <= n_limit < shift * step ** (u + 1)
            # neighbours violate one side each
            assert shift * step ** (u + 1) > n_limit
            if u > 0:
                assert shift * step ** (u - 1) <= n_limit


class TestCertifyLowerBound:
    def test_at_n0(self):
        constants = explicit_constants(2, 3, 3)
        report = certify_lower_bound(2, 3, 3, constants.n0)
        assert report.verdict
        assert report.u == 15
        assert report.guaranteed >= report.required

    def test_at_n0_times_q_step(self):
        constants = explicit_constants(2, 3, 3)
        report = certify_lower_bound(2, 3, 3, constants.n0 * 2**10)
        assert report.verdict and report.u == 16

    def test_below_n0_rejected(self):
        constants = explicit_constants(2, 3, 3)
        with pytest.raises(ValueError):
            certify_lower_bound(2, 3, 3, constants.n0 - 1)

    def test_every_link_in_the_chain(self):
        # guaranteed >= estimate > C*N^(4/(3h+1)), hence >= required
        for q, m, h in [(2, 3, 3), (3, 5, 4), (10, 7, 5)]:
            constants = explicit_constants(q, m, h)
            for factor in (1, q ** (3 * h + 1)):
                report = certify_lower_bound(q, m, h, constants.n0 * factor)
                assert report.verdict
                assert report.guaranteed >= report.estimate
                value = RootRational(
                    report.c.num * report.n_limit**4, report.c.den, report.c.root
                )
                # value < estimate: (num/den)^(1/root) < a/b, cross-multiplied
                a, b = report.estimate.numerator, report.estimate.denominator
                assert value.num * b**value.root < a**value.root * value.den
                assert value.num <= report.required**value.root * value.den
                assert report.guaranteed >= report.required

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(GRID), st.integers(0, 3))
    def test_grid_passes(self, instance, step):
        q, m, h = instance
        constants = explicit_constants(q, m, h)
        report = certify_lower_bound(q, m, h, constants.n0 * q ** (step * (3 * h + 1)))
        assert report.verdict
        assert report.u == constants.u0 + step
