from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitwitness.cli import _DEGREE_CAP
from digitwitness.construction import sign_violation
from digitwitness.intpoly import (
    IntPolynomial,
    difference_walk,
    poly_compose,
    poly_eval,
    poly_translate,
)

from boxes import sample

ZERO = IntPolynomial(())
X = IntPolynomial.monomial(1)
CUBIC = IntPolynomial.from_coeffs([1, -1, 1, 1])  # x^3 + x^2 - x + 1
CUBIC_SQUARED = (1, -2, 3, 0, -1, 2, 1)  # convolution done by hand, x^0 upward

polys = st.lists(st.integers(-50, 50), max_size=6).map(IntPolynomial.from_coeffs)
# mostly zero coefficients, so runs of zeros sit at the low end, under the
# leading coefficient and in between
sparse_polys = st.lists(
    st.one_of(st.just(0), st.just(0), st.integers(-10**30, 10**30)), max_size=14
).map(IntPolynomial.from_coeffs)


def test_normalization_strips_trailing_zeros():
    assert IntPolynomial.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial.from_coeffs([0, 0]).coeffs == ()


def test_degree():
    assert ZERO.degree == -1
    assert IntPolynomial.from_coeffs([7]).degree == 0
    assert CUBIC.degree == 3


def schoolbook(p, r):
    """p*r by the convolution written out, a reference sharing no code with src."""
    out = [0] * (len(p.coeffs) + len(r.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(r.coeffs):
            out[i + j] += a * b
    return IntPolynomial.from_coeffs(out)


def power(p, l):
    return poly_compose(IntPolynomial.monomial(l), p)


def dense_horner(p, x):
    """p(x) with one product per degree, the reference for poly_eval."""
    value = 0
    for c in reversed(p.coeffs):
        value = value * x + c
    return value


class TestPow:
    # p^l is x^l composed with p: lemma's t^l and the powers inside
    # construct's p_shifted(t) run this one product

    def test_zeroth_power(self):
        assert power(CUBIC, 0) == IntPolynomial.from_coeffs([1])

    def test_first_power(self):
        assert power(CUBIC, 1) == CUBIC

    def test_square_matches_frozen_coeffs(self):
        assert power(CUBIC, 2).coeffs == CUBIC_SQUARED

    def test_degree_multiplies(self):
        assert power(CUBIC, 5).degree == 15

    @pytest.mark.parametrize("l", range(9))
    def test_matches_iterated_multiplication(self, l):
        by_hand = IntPolynomial.from_coeffs([1])
        for _ in range(l):
            by_hand = schoolbook(by_hand, CUBIC)
        assert power(CUBIC, l) == by_hand

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            power(CUBIC, -1)

    @settings(max_examples=60)
    @given(polys, st.integers(0, 4), st.integers(0, 4))
    def test_exponent_additivity(self, p, a, b):
        assert power(p, a + b) == schoolbook(power(p, a), power(p, b))


class TestCompose:
    def test_monomial_outer_is_powering(self):
        # x^4 by Horner equals the square of the frozen square
        assert poly_compose(IntPolynomial.monomial(4), CUBIC) == power(
            IntPolynomial(CUBIC_SQUARED), 2
        )

    def test_constant_outer(self):
        outer = IntPolynomial.from_coeffs([7])
        assert poly_compose(outer, CUBIC) == outer

    def test_zero_outer_and_zero_inner(self):
        assert poly_compose(ZERO, CUBIC) == ZERO
        assert poly_compose(CUBIC, ZERO) == IntPolynomial.from_coeffs([1])
        assert poly_compose(X, ZERO) == ZERO

    def test_shift_example(self):
        outer = IntPolynomial.from_coeffs([1, 0, 1])  # x^2 + 1
        inner = IntPolynomial.from_coeffs([1, 1])  # x + 1
        assert poly_compose(outer, inner) == IntPolynomial.from_coeffs([2, 2, 1])

    def test_cancellation_to_zero_coefficient(self):
        # x^2 + 2x at x - 1 is x^2 - 1: the linear terms cancel
        outer = IntPolynomial.from_coeffs([0, 2, 1])
        inner = IntPolynomial.from_coeffs([-1, 1])
        assert poly_compose(outer, inner) == IntPolynomial.from_coeffs([-1, 0, 1])

    @settings(max_examples=150)
    @given(polys, polys)
    def test_evaluation_homomorphism(self, outer, inner):
        # the composition has degree <= d, so agreeing at d + 1 distinct points
        # determines it; poly_eval shares no product loop with poly_compose
        composed = poly_compose(outer, inner)
        d = max(outer.degree, 0) * max(inner.degree, 0)
        assert composed.degree <= d
        for x in range(-(d // 2), d - d // 2 + 1):
            assert poly_eval(composed, x) == poly_eval(outer, poly_eval(inner, x))

    @settings(max_examples=40)
    @given(polys, polys, st.integers(2, 10), st.integers(1, 300))
    def test_evaluation_homomorphism_at_power_points(self, outer, inner, q, k):
        x = q**k
        assert poly_eval(poly_compose(outer, inner), x) == poly_eval(
            outer, poly_eval(inner, x)
        )


class TestEval:
    def test_constant_term(self):
        assert poly_eval(CUBIC, 0) == 1

    def test_identity_on_big_point(self):
        assert poly_eval(X, 10**50) == 10**50

    def test_quadratic(self):
        assert poly_eval(IntPolynomial.from_coeffs([0, -1, 2]), 10) == 190

    def test_zero_poly(self):
        assert poly_eval(ZERO, 12345) == 0

    @settings(max_examples=60)
    @given(polys, polys, st.integers(2, 10), st.integers(1, 300))
    def test_product_homomorphism_at_power_points(self, p, r, q, k):
        x = q**k
        assert poly_eval(power(p, 2), x) == poly_eval(p, x) ** 2
        assert poly_eval(schoolbook(p, r), x) == poly_eval(p, x) * poly_eval(r, x)


    @settings(max_examples=200)
    @given(sparse_polys, st.integers(-(10**12), 10**12))
    def test_matches_dense_horner(self, p, x):
        assert poly_eval(p, x) == dense_horner(p, x)

    @pytest.mark.parametrize(
        "coeffs",
        [[], [0, 0, 0, 0, 0, 1], [0, 0, 0, 5, -3], [1, 0, 0, 0, 0, 0, 0, 2],
         [-4, 0, 0, 9, 0, 0, 0, 0, 1], [0, 1]],
        ids=["zero", "x^5", "low-zeros", "top-zeros", "both", "x"],
    )
    @pytest.mark.parametrize("x", [-7, -1, 0, 1, 3, -(3**500)])
    def test_zero_runs_match_dense_horner(self, coeffs, x):
        p = IntPolynomial.from_coeffs(coeffs)
        assert poly_eval(p, x) == dense_horner(p, x)


class TestDifferenceWalk:
    @settings(max_examples=150)
    @given(polys, st.integers(-300, 300), st.integers(0, 3), st.integers(0, 60))
    def test_matches_poly_eval(self, p, start, extra, span):
        # seeds beyond degree + 1 fit the same polynomial; the walk starts
        # at its first seed
        seeds = [poly_eval(p, start + i) for i in range(max(p.degree, 0) + 1 + extra)]
        walked = list(islice(difference_walk(seeds), span))
        assert walked == [poly_eval(p, start + i) for i in range(span)]

    def test_short_seeds_repeat_themselves_first(self):
        # fewer seeds than the degree needs: the walk still yields the seeds
        assert list(islice(difference_walk([3, 1, 4]), 3)) == [3, 1, 4]
        assert list(islice(difference_walk([9]), 4)) == [9] * 4

    def test_empty_values_fail_at_call_time(self):
        with pytest.raises(ValueError, match="values must not be empty"):
            difference_walk([])

    def test_degree_cap_chain(self):
        # the CLI's largest degree, 1024: a chain of 1024 nested accumulates
        p = IntPolynomial.monomial(_DEGREE_CAP)
        seeds = [poly_eval(p, i) for i in range(_DEGREE_CAP + 1)]
        assert list(islice(difference_walk(seeds), 30)) == [
            poly_eval(p, i) for i in range(30)
        ]

    def test_big_coefficients_stay_exact(self):
        p = IntPolynomial.from_coeffs([10**400, -(3**900), 0, 7])
        seeds = [poly_eval(p, i) for i in range(4)]
        assert list(islice(difference_walk(seeds), 50)) == [
            poly_eval(p, i) for i in range(50)
        ]

class TestTranslate:
    def test_zero_shift(self):
        assert poly_translate(CUBIC, 0) == CUBIC

    def test_binomial_expansion(self):
        p = IntPolynomial.from_coeffs([0, -2, 0, 1])  # x^3 - 2x
        assert poly_translate(p, 2) == IntPolynomial.from_coeffs([4, 10, 6, 1])

    def test_negative_shift(self):
        p = IntPolynomial.monomial(2)
        assert poly_translate(p, -1) == IntPolynomial.from_coeffs([1, -2, 1])

    @settings(max_examples=100)
    @given(polys, st.integers(-20, 20))
    def test_inverse(self, p, e):
        assert poly_translate(poly_translate(p, e), -e) == p


class TestSignProfile:
    # the (+,-,+,...,+) pattern construct and lemma require, as
    # construction.sign_violation reports it

    def test_cubic(self):
        assert sign_violation(CUBIC) is None

    def test_zero_poly(self):
        assert sign_violation(ZERO) == 0

    def test_cubic_squared(self):
        assert sign_violation(IntPolynomial(CUBIC_SQUARED)) == 3


def test_power_coefficient_bound_for_admissible_cubics():
    # every coefficient of t^l stays within (4*q^u)^l when the quadruple is
    # drawn from the admissible box
    from digitwitness.construction import admissible_ranges, build_cubic

    for q, u in [(2, 15), (3, 10)]:
        for l in (1, 2, 3):
            box = admissible_ranges(q, l, u)
            for params in sample(box, 20, seed=99):
                powered = power(build_cubic(params), l)
                assert max(map(abs, powered.coeffs)) <= (4 * q**u) ** l
