from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitwitness import bounds
from digitwitness.bounds import certify_lower_bound, explicit_constants, nth_root_floor
from digitwitness.construction import admissible_ranges, min_u

# gcd-admissible grid used throughout
GRID = [
    (q, m, h)
    for q in (2, 3, 5, 10)
    for m in (2, 3, 5, 7)
    if gcd(m, q - 1) == 1
    for h in (3, 4, 5)
]


def certify(constants, n_limit):
    """certify_lower_bound, checking that `required` is the least admissible r."""
    report = certify_lower_bound(constants, n_limit)
    r, root, c_den = report.required, 3 * constants.h + 1, constants.c_den
    assert (r - 1) ** root * c_den < n_limit**4 <= r**root * c_den
    return report


def bracket_top(constants, u):
    """The largest N that certify brackets at scale u."""
    return constants.shift * constants.q ** ((u + 1) * (3 * constants.h + 1)) - 1


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


class TestRequired:
    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(GRID), st.integers(0, 2), st.integers(0, 10**9))
    def test_required_is_least_r_with_r_root_c_den_at_least_n4(
        self, instance, step, offset
    ):
        q, m, h = instance
        constants = explicit_constants(q, m, h)
        certify(constants, constants.n0 * q ** (step * (3 * h + 1)) + offset)


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
        # C = c_den^(-1/(3h+1)) is a positive real exactly when c_den > 0
        for q, m, h in GRID:
            assert explicit_constants(q, m, h).c_den > 0

    def test_c_den_matches_closed_form_on_grid(self):
        for q, m, h in GRID:
            constants = explicit_constants(q, m, h)
            d = h * q * (6 * q) ** h
            assert constants.c_den == (16 * q**4 * d) ** (3 * h + 1) * q ** (
                12 * (2 * h + m)
            )

    def test_rejects_gcd_violation(self):
        with pytest.raises(ValueError):
            explicit_constants(10, 3, 3)

    @pytest.mark.parametrize("h", [300, 1000])
    def test_n0_past_the_n_cap_is_refused_before_it_is_built(self, monkeypatch, h):
        # N0 has more than 3(bits(q)-1)(2h+m) + 3h(3h+1) bits; min_u, which
        # builds 6^h, is the first call after the guard
        def refused(*args):
            raise AssertionError("constants built past the cap")

        monkeypatch.setattr(bounds, "min_u", refused)
        with pytest.raises(ValueError) as info:
            explicit_constants(2, 3, h)
        assert str(info.value) == (
            f"N0 at q=2, m=3, h={h} is above the 65536-bit cap on N, so every "
            f"accepted N is below N0"
        )

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
            assert constants.shift == q ** (3 * (2 * h + m))
            assert constants.u0 == min_u(q, h)


def reports_by_step(q, m, h, steps=3):
    """certify_lower_bound at N0 * q^(s(3h+1)) for s = 0 .. steps-1."""
    constants = explicit_constants(q, m, h)
    return [
        certify(constants, constants.n0 * q ** (s * (3 * h + 1)))
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
            u = certify(constants, n_limit).u
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
        report = certify(constants, constants.n0)
        assert report.verdict
        assert report.u == 15
        assert report.guaranteed >= report.required

    def test_at_n0_times_q_step(self):
        constants = explicit_constants(2, 3, 3)
        report = certify(constants, constants.n0 * 2**10)
        assert report.verdict and report.u == 16

    def test_below_n0_rejected(self):
        constants = explicit_constants(2, 3, 3)
        with pytest.raises(ValueError):
            certify_lower_bound(constants, constants.n0 - 1)

    def test_n_past_the_cap_is_refused_before_any_root(self, monkeypatch):
        constants = explicit_constants(2, 3, 3)
        assert certify(constants, 2 ** (2**16) - 1).verdict  # 2^16 bits

        def refused(*args):
            raise AssertionError("N bracketed past the cap")

        monkeypatch.setattr(bounds, "ilog", refused)
        monkeypatch.setattr(bounds, "nth_root_floor", refused)
        for n_limit in (2 ** (2**16), 2 ** (2**16 + 1)):
            with pytest.raises(ValueError, match="N is above the 65536-bit cap"):
                certify_lower_bound(constants, n_limit)

    def test_every_link_in_the_chain(self):
        # guaranteed >= estimate > C*N^(4/(3h+1)), hence >= required
        for q, m, h in [(2, 3, 3), (3, 5, 4), (10, 7, 5)]:
            constants = explicit_constants(q, m, h)
            root, c_den = 3 * h + 1, constants.c_den
            for factor in (1, q**root):
                n_limit = constants.n0 * factor
                report = certify(constants, n_limit)
                assert report.verdict
                assert report.guaranteed >= report.estimate
                # C*N^(4/root) < estimate = a/b, as (N^4/c_den)^(1/root) < a/b
                a, b = report.estimate.numerator, report.estimate.denominator
                assert n_limit**4 * b**root < a**root * c_den
                assert n_limit**4 <= report.required**root * c_den
                assert report.guaranteed >= report.required

    def test_grid_passes(self):
        for q, m, h in GRID:
            constants = explicit_constants(q, m, h)
            for step in range(4):
                n_limit = constants.n0 * q ** (step * (3 * h + 1))
                report = certify(constants, n_limit)
                assert report.verdict
                assert report.u == constants.u0 + step
                # the worst N of the bracket: the largest N with the same u
                top = bracket_top(constants, report.u)
                top_report = certify(constants, top)
                assert top_report.verdict and top_report.u == report.u
                assert certify(constants, top + 1).u == report.u + 1
