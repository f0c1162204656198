import itertools
from math import gcd

import pytest

from digitwitness.construction import (
    CongruenceTarget,
    ConsistencyError,
    ConstructionPlan,
    CubicParams,
    Lcg64,
    admissible_ranges,
    build_cubic,
    construct_family,
    digit_sum_offset,
    m1_upper,
    make_plan,
    min_k,
    min_u,
    select_k,
    translate_shift,
    verify_sign_pattern,
    witness_for,
)
from digitwitness.digits import digit_sum
from digitwitness.intpoly import IntPolynomial, poly_eval, poly_translate

X3 = IntPolynomial.monomial(3)


class TestCongruenceTarget:
    def test_reduces_g(self):
        assert CongruenceTarget(q=2, m=3, g=7).g == 1
        assert CongruenceTarget(q=2, m=3, g=-1).g == 2

    def test_rejects_gcd_violation(self):
        with pytest.raises(ValueError):
            CongruenceTarget(q=10, m=3, g=0)

    def test_rejects_small_q_or_m(self):
        with pytest.raises(ValueError):
            CongruenceTarget(q=1, m=3, g=0)
        with pytest.raises(ValueError):
            CongruenceTarget(q=2, m=1, g=0)


class TestCubicParams:
    def test_rejects_zero_m1(self):
        with pytest.raises(ValueError):
            CubicParams(m0=1, m1=0, m2=1, m3=1, u=1)

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            CubicParams(m0=1, m1=1, m2=1, m3=1, u=0)


class TestMinU:
    @pytest.mark.parametrize(
        "q, h, expected", [(2, 3, 15), (10, 3, 8), (10, 1, 4), (2, 1, 6), (2, 4, 19)]
    )
    def test_frozen_values(self, q, h, expected):
        assert min_u(q, h) == expected

    @pytest.mark.parametrize("q, h", [(2, 3), (3, 2), (5, 4), (10, 1)])
    def test_definition(self, q, h):
        u = min_u(q, h)
        bound = 2 * h * q * (6 * q) ** h
        assert q**u >= bound
        assert q ** (u - 1) < bound


class TestM1Upper:
    @pytest.mark.parametrize(
        "q, h, u, expected", [(2, 3, 15, 3), (2, 3, 16, 6), (10, 3, 8, 15)]
    )
    def test_frozen_values(self, q, h, u, expected):
        assert m1_upper(q, h, u) == expected

    @pytest.mark.parametrize("q, h, u", [(2, 3, 15), (3, 3, 11), (10, 3, 8), (2, 1, 6)])
    def test_strict_maximality(self, q, h, u):
        top = m1_upper(q, h, u)
        denominator = h * q * (6 * q) ** h
        assert top * denominator < q**u
        assert (top + 1) * denominator >= q**u

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            m1_upper(2, 3, 5)


class TestBuildCubic:
    def test_unit_quadruple(self):
        params = CubicParams(m0=1, m1=1, m2=1, m3=1, u=1)
        assert build_cubic(params) == IntPolynomial.from_coeffs([1, -1, 1, 1])

    def test_mixed_quadruple(self):
        params = CubicParams(m0=5, m1=1, m2=3, m3=2, u=1)
        assert build_cubic(params) == IntPolynomial.from_coeffs([5, -1, 3, 2])


class TestAdmissibleBox:
    def test_size_formula(self):
        box = admissible_ranges(2, 3, 15)
        assert box.size == (2**14) ** 3 * 3

    def test_lexicographic_indexing(self):
        box = admissible_ranges(2, 3, 15)
        first = box.params_at(0)
        assert (first.m3, first.m2, first.m1, first.m0) == (2**14, 2**14, 1, 2**14)
        second = box.params_at(1)
        assert (second.m3, second.m2, second.m1, second.m0) == (
            2**14, 2**14, 1, 2**14 + 1,
        )
        # indices enumerate (m3, m2, m1, m0) ascending in lex order
        seen = [box.params_at(i) for i in range(2**14 + 1)]
        assert seen[2**14].m1 == 2 and seen[2**14].m0 == 2**14

    def test_index_bounds(self):
        box = admissible_ranges(2, 3, 15)
        with pytest.raises(ValueError):
            box.params_at(-1)
        with pytest.raises(ValueError):
            box.params_at(box.size)

    def test_sample_is_deterministic_and_admissible(self):
        box = admissible_ranges(2, 3, 15)
        a = list(box.sample(50, seed=7))
        b = list(box.sample(50, seed=7))
        assert a == b
        assert all(box.contains(p) for p in a)

    def test_lcg_recurrence_is_pinned(self):
        rng = Lcg64(1)
        first = (6364136223846793005 * 1 + 1442695040888963407) % 2**64
        assert rng.next() == first


class TestSignPattern:
    def test_admissible_quadruples_pass(self):
        box = admissible_ranges(2, 3, 15)
        for params in box.sample(50, seed=11):
            report = verify_sign_pattern(2, 3, params)
            assert report.ok
            assert report.first_violation is None
            assert report.max_abs <= (4 * 2**15) ** 3

    def test_power_one_is_the_cubic_itself(self):
        params = CubicParams(m0=2**14, m1=1, m2=2**14, m3=2**14, u=15)
        report = verify_sign_pattern(2, 1, params)
        assert report.ok and report.profile == (1, -1, 1, 1)

    def test_out_of_range_m1_is_a_precondition_error(self):
        params = CubicParams(m0=2**14, m1=2**15, m2=2**14, m3=2**14, u=15)
        with pytest.raises(ValueError):
            verify_sign_pattern(2, 3, params)

    @pytest.mark.parametrize("q, l, u", [(2, 3, 15), (3, 2, 8), (10, 3, 8)])
    def test_extreme_low_coefficients_have_closed_forms(self, q, l, u):
        for params in admissible_ranges(q, l, u).sample(15, seed=21):
            powered = build_cubic(params) ** l
            assert powered.coeffs[0] == params.m0**l
            assert powered.coeffs[1] == -l * params.m1 * params.m0 ** (l - 1)

    @pytest.mark.parametrize("q, l, u", [(2, 3, 15), (3, 2, 8), (10, 3, 8)])
    def test_perturbation_coefficients_stay_small(self, q, l, u):
        # r = t^l - (m3 x^3 + m2 x^2 + m0)^l collects every term touching the
        # negative part; its coefficients are what the admissible m1 range
        # keeps too small to flip any sign
        from digitwitness.intpoly import poly_add, poly_mul, poly_pow

        bound = l * (6 * q) ** l * q ** ((u - 1) * (l - 1))
        for params in admissible_ranges(q, l, u).sample(15, seed=22):
            positive_part = IntPolynomial.from_coeffs(
                [params.m0, 0, params.m2, params.m3]
            )
            minus_one = IntPolynomial.from_coeffs([-1])
            residual = poly_add(
                poly_pow(build_cubic(params), l),
                poly_mul(minus_one, poly_pow(positive_part, l)),
            )
            assert residual.degree <= 3 * l - 2
            assert residual.coeffs[0] == 0
            assert all(abs(c) < bound * params.m1 for c in residual.coeffs)


class TestTranslateShift:
    def test_already_positive(self):
        assert translate_shift(X3) == 0

    def test_cubic_with_negative_linear_term(self):
        p = IntPolynomial.from_coeffs([0, -2, 0, 1])
        assert translate_shift(p) == 2
        assert poly_translate(p, 2) == IntPolynomial.from_coeffs([4, 10, 6, 1])

    def test_perfect_square(self):
        p = IntPolynomial.from_coeffs([1, -2, 1])
        assert translate_shift(p) == 1
        assert poly_translate(p, 1) == IntPolynomial.monomial(2)

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError):
            translate_shift(IntPolynomial.from_coeffs([1, 2, -1]))

    @pytest.mark.parametrize(
        "coeffs",
        [[0, -2, 0, 1], [1, -2, 1], [-7, 0, 0, 0, 3], [0, 1, 0, 0, 2],
         [0, -10**9, 1]],
    )
    def test_minimality(self, coeffs):
        p = IntPolynomial.from_coeffs(coeffs)
        e = translate_shift(p)
        assert all(c >= 0 for c in poly_translate(p, e).coeffs)
        if e > 0:
            assert any(c < 0 for c in poly_translate(p, e - 1).coeffs)


class TestMinK:
    def test_binary_monomial(self):
        assert min_k(2, 3, 15, X3) == 52

    def test_decimal_monomial(self):
        assert min_k(10, 3, 8, X3) == 31

    def test_large_coefficient_pushes_threshold(self):
        # exact comparison: smallest k with 2^k > 10^6 * (4*2^15)^3, which is
        # one tighter than the ceil-log sufficient condition
        p = IntPolynomial.from_coeffs([10**6, 0, 0, 1])
        k = min_k(2, 3, 15, p)
        assert k == 71
        assert 2**k > 10**6 * (4 * 2**15) ** 3 >= 2 ** (k - 1)

    @pytest.mark.parametrize(
        "q, h, u, coeffs",
        [(2, 3, 15, [0, 0, 0, 1]), (10, 3, 8, [0, 0, 0, 1]), (2, 4, 19, [0, 1, 0, 0, 2])],
    )
    def test_exact_threshold_conditions(self, q, h, u, coeffs):
        p = IntPolynomial.from_coeffs(coeffs)
        k = min_k(q, h, u, p)
        bound = max(p.coeffs) * (4 * q**u) ** h
        assert q**k > bound and k > h * u + 2 * h and k > u
        previous = k - 1
        assert (
            q**previous <= bound
            or previous <= h * u + 2 * h
            or previous <= u
        )

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            min_k(2, 3, 15, IntPolynomial.from_coeffs([0, -2, 0, 1]))


def _plan_with_threshold(q, m, g, k_threshold):
    target = CongruenceTarget(q=q, m=m, g=g)
    return ConstructionPlan(
        target=target,
        p=X3,
        e=0,
        p_shifted=X3,
        box=admissible_ranges(q, 3, 15),
        k_threshold=k_threshold,
    )


class TestSelectK:
    def test_window_example_binary(self):
        plan = _plan_with_threshold(2, 3, 0, 51)
        assert select_k(plan, 7) == 53

    def test_window_example_mod_two(self):
        plan = _plan_with_threshold(2, 2, 1, 10)
        assert select_k(plan, 0) == 11

    @pytest.mark.parametrize("q, m", [(2, 3), (2, 5), (3, 5), (9, 3), (10, 7)])
    def test_window_covers_all_residues(self, q, m):
        assert gcd(m, q - 1) == 1
        for offset in (-4, 0, 5, 123):
            window = range(52, 52 + m)
            residues = {(k * (q - 1) + offset) % m for k in window}
            assert residues == set(range(m))


class TestOffset:
    def test_h1_reads_the_cubic_coefficients(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        plan = make_plan(target, IntPolynomial.monomial(1), 15)
        params = CubicParams(m0=2**14, m1=3, m2=2**14 + 9, m3=2**15 - 1, u=15)
        expected = (
            digit_sum(params.m3, 2)
            + digit_sum(params.m2 - 1, 2)
            - digit_sum(params.m1 - 1, 2)
            + digit_sum(params.m0, 2)
        )
        assert digit_sum_offset(plan, params) == expected

    def test_matches_direct_digit_sum_and_is_k_independent(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        plan = make_plan(target, X3, 15)
        box = admissible_ranges(2, 3, 15)
        for params in box.sample(25, seed=3):
            offset = digit_sum_offset(plan, params)
            t = build_cubic(params)
            for k in (52, 53, 60):
                direct = digit_sum(poly_eval(t, 2**k) ** 3, 2)
                assert direct == k * (2 - 1) + offset

    def test_decimal_base_identity(self):
        target = CongruenceTarget(q=10, m=7, g=0)
        plan = make_plan(target, X3, 8)
        box = admissible_ranges(10, 3, 8)
        for params in box.sample(10, seed=4):
            offset = digit_sum_offset(plan, params)
            t = build_cubic(params)
            for k in (31, 33, 40):
                assert digit_sum(poly_eval(t, 10**k) ** 3, 10) == 9 * k + offset

    def test_inadmissible_params_rejected(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        plan = make_plan(target, X3, 15)
        with pytest.raises(ValueError):
            digit_sum_offset(plan, CubicParams(m0=1, m1=1, m2=1, m3=1, u=15))


class TestConstructWitness:
    def test_end_to_end_binary(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        params = CubicParams(m0=2**14, m1=1, m2=2**14, m3=2**14, u=15)
        w = witness_for(make_plan(target, X3, params.u), params)
        assert w.residue == 0
        assert digit_sum(w.n**3, 2) % 3 == 0
        assert w.sq_value == digit_sum(w.n**3, 2)
        assert w.n == poly_eval(build_cubic(params), 2**w.k)

    def test_end_to_end_decimal(self):
        target = CongruenceTarget(q=10, m=7, g=2)
        params = CubicParams(m0=10**7, m1=5, m2=10**7 + 3, m3=10**8 - 1, u=8)
        w = witness_for(make_plan(target, X3, params.u), params)
        assert w.residue == 2 == digit_sum(w.n**3, 10) % 7

    def test_all_targets_hit_within_one_window(self):
        params = CubicParams(m0=2**14 + 5, m1=2, m2=2**14, m3=2**14 + 1, u=15)
        ks = []
        ns = set()
        for g in range(3):
            target = CongruenceTarget(q=2, m=3, g=g)
            w = witness_for(make_plan(target, X3, params.u), params)
            ks.append(w.k)
            ns.add(w.n)
        assert sorted(ks) == [52, 53, 54]
        assert len(ns) == 3

    def test_residue_window_coverage_binary(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        plan = make_plan(target, X3, 15)
        for params in admissible_ranges(2, 3, 15).sample(20, seed=6):
            offset = digit_sum_offset(plan, params)
            t = build_cubic(params)
            residues = {
                digit_sum(poly_eval(t, 2**k) ** 3, 2) % 3 for k in (52, 53, 54)
            }
            assert residues == {0, 1, 2}


class TestConstructFamily:
    def test_limit_and_residues(self):
        target = CongruenceTarget(q=2, m=3, g=1)
        family = list(construct_family(target, X3, u=15, limit=40))
        assert len(family) == 40
        assert all(w.residue == 1 for w in family)
        assert len({w.n for w in family}) == 40

    def test_zero_limit(self):
        target = CongruenceTarget(q=2, m=3, g=1)
        assert list(construct_family(target, X3, u=15, limit=0)) == []

    def test_enumeration_order_is_lexicographic(self):
        target = CongruenceTarget(q=2, m=3, g=1)
        family = list(construct_family(target, X3, u=15, limit=5))
        quads = [(w.params.m3, w.params.m2, w.params.m1, w.params.m0) for w in family]
        assert quads == sorted(quads)
        assert quads[0] == (2**14, 2**14, 1, 2**14)

    def test_default_scale_is_minimum(self):
        target = CongruenceTarget(q=2, m=3, g=1)
        w = next(construct_family(target, X3, limit=1))
        assert w.params.u == 15

    def test_rejects_scale_below_minimum(self):
        target = CongruenceTarget(q=2, m=3, g=1)
        with pytest.raises(ValueError):
            list(construct_family(target, X3, u=14, limit=1))

    def test_full_small_box_distinct_and_bounded(self):
        # h=1 keeps the admissible box small enough to enumerate completely
        q, h, m = 2, 1, 3
        u = min_u(q, h)
        target = CongruenceTarget(q=q, m=m, g=2)
        family = list(construct_family(target, IntPolynomial.monomial(1), u=u))
        assert len(family) == admissible_ranges(q, h, u).size == 65536
        ns = {w.n for w in family}
        assert len(ns) == len(family)
        size_bound = q ** (3 * (2 * h + m)) * q ** (u * (3 * h + 1))
        assert all(n < size_bound for n in ns)

    def test_monomial_size_bound_at_real_scale(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        bound = 2 ** (3 * (2 * 3 + 3)) * 2 ** (15 * (3 * 3 + 1))
        for w in construct_family(target, X3, u=15, limit=60):
            assert w.n < bound


class TestGeneralPolynomials:
    def test_shifted_cubic(self):
        p = IntPolynomial.from_coeffs([0, -2, 0, 1])  # x^3 - 2x
        target = CongruenceTarget(q=2, m=3, g=2)
        family = list(construct_family(target, p, limit=10))
        assert all(w.e == 2 for w in family)
        for w in family:
            assert digit_sum(w.n**3 - 2 * w.n, 2) % 3 == 2

    def test_quartic_without_shift(self):
        p = IntPolynomial.from_coeffs([0, 1, 0, 0, 2])  # 2x^4 + x
        target = CongruenceTarget(q=2, m=3, g=0)
        family = list(construct_family(target, p, limit=5))
        assert all(w.e == 0 for w in family)
        for w in family:
            assert digit_sum(2 * w.n**4 + w.n, 2) % 3 == 0

    @pytest.mark.parametrize(
        "coeffs", [[1, 0, 1, 1], [0, 3, 0, 0, 0, 1], [2, 0, 0, 7]]
    )
    def test_composed_profile_keeps_single_negative(self, coeffs):
        from digitwitness.intpoly import poly_compose, sign_profile

        p = IntPolynomial.from_coeffs(coeffs)
        h = p.degree
        u = min_u(2, h)
        for params in admissible_ranges(2, h, u).sample(10, seed=13):
            composed = poly_compose(p, build_cubic(params))
            profile = sign_profile(composed)
            assert profile == (1, -1) + (1,) * (composed.degree - 1)

    def test_rejects_constant_polynomial(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        with pytest.raises(ValueError):
            make_plan(target, IntPolynomial.from_coeffs([5]), None)


def test_witness_for_is_internally_checked():
    # a plan/params mismatch in scale is caught up front
    target = CongruenceTarget(q=2, m=3, g=0)
    plan = make_plan(target, X3, 15)
    with pytest.raises(ValueError):
        witness_for(plan, CubicParams(m0=2**15, m1=1, m2=2**15, m3=2**15, u=16))
