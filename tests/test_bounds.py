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
    nth_root_floor,
)
from digitwitness.construction import admissible_ranges, min_u

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

    def test_plan_margin_is_2h_and_scale_is_min_u_on_grid(self):
        # q^(2h+1) > 4^h = max(x^h) * 4^h, so splitting_margin stays at 2h
        for q, m, h in GRID:
            constants = explicit_constants(q, m, h)
            assert constants.delta == 2 * h
            assert constants.u0 == min_u(q, h)


def reports_by_step(q, m, h, steps=3):
    """certify_lower_bound at N0 * q^(s(3h+1)) for s = 0 .. steps-1."""
    constants = explicit_constants(q, m, h)
    return [
        certify_lower_bound(constants, constants.n0 * q ** (s * (3 * h + 1)))
        for s in range(steps)
    ]


class TestGuaranteedCount:
    def test_binary_instance(self):
        report = reports_by_step(2, 3, 3, steps=1)[0]
        assert report.u == 15
        assert report.guaranteed == (2**14) ** 3 * 3
        assert report.estimate == Fraction(2**60, 8 * 20736)
        assert report.guaranteed >= report.estimate

    def test_estimate_formula(self):
        for q, m, h in GRID:
            for report in reports_by_step(q, m, h):
                u = report.u
                assert report.estimate == Fraction(
                    (q - 1) ** 3 * q ** (4 * u), q**3 * 2 * h * q * (6 * q) ** h
                )

    def test_enumeration_matches_box_size(self):
        for q, m, h in GRID:
            u0 = min_u(q, h)
            for s, report in enumerate(reports_by_step(q, m, h)):
                assert report.u == u0 + s
                side = q**report.u - q ** (report.u - 1)
                m1_max = (q**report.u - 1) // (h * q * (6 * q) ** h)
                assert report.guaranteed == side**3 * m1_max
                assert report.guaranteed == admissible_ranges(q, h, report.u).size
                assert report.guaranteed >= report.estimate

    def test_estimate_scales_by_q4_per_scale_step(self):
        for q, m, h in GRID:
            reports = reports_by_step(q, m, h)
            for lower, upper in zip(reports, reports[1:]):
                assert upper.u == lower.u + 1
                assert upper.estimate == q**4 * lower.estimate
                assert upper.guaranteed >= q**4 * lower.estimate


class TestBracketScale:
    def test_unique_bracket(self):
        constants = explicit_constants(2, 3, 3)
        for factor in (1, 2**10, 2**20, 3 * 2**17):
            n_limit = constants.n0 * factor
            u = bracket_scale(constants, n_limit)
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
        report = certify_lower_bound(constants, constants.n0)
        assert report.verdict
        assert report.u == 15
        assert report.guaranteed >= report.required

    def test_at_n0_times_q_step(self):
        constants = explicit_constants(2, 3, 3)
        report = certify_lower_bound(constants, constants.n0 * 2**10)
        assert report.verdict and report.u == 16

    def test_below_n0_rejected(self):
        constants = explicit_constants(2, 3, 3)
        with pytest.raises(ValueError):
            certify_lower_bound(constants, constants.n0 - 1)

    def test_every_link_in_the_chain(self):
        # guaranteed >= estimate > C*N^(4/(3h+1)), hence >= required
        for q, m, h in [(2, 3, 3), (3, 5, 4), (10, 7, 5)]:
            constants = explicit_constants(q, m, h)
            for factor in (1, q ** (3 * h + 1)):
                report = certify_lower_bound(constants, constants.n0 * factor)
                assert report.verdict
                assert report.guaranteed >= report.estimate
                c = report.constants.c
                value = RootRational(c.num * report.n_limit**4, c.den, c.root)
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
        n_limit = constants.n0 * q ** (step * (3 * h + 1))
        report = certify_lower_bound(constants, n_limit)
        assert report.verdict
        assert report.u == constants.u0 + step
