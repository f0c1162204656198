import dataclasses
import itertools
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitwitness.construction import (
    AdmissibleBox,
    CongruenceTarget,
    ConsistencyError,
    CubicParams,
    admissible_ranges,
    build_cubic,
    compositions,
    construct_family,
    digit_sum_offset,
    m1_divisor,
    make_plan,
    min_u,
    select_k,
    sign_violation,
    splitting_margin,
    translate_shift,
    verify_sign_pattern,
    witness_bits_bound,
    witness_for,
)
from digitwitness.digits import digit_sum
from digitwitness.intpoly import (
    IntPolynomial,
    poly_compose,
    poly_eval,
    poly_translate,
)

X3 = IntPolynomial.monomial(3)


def power(p, l):
    return poly_compose(IntPolynomial.monomial(l), p)


def composed_for(plan, params):
    """p_shifted(t) for one quadruple, composed directly."""
    return poly_compose(plan.p_shifted, build_cubic(params))


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
        "q, h, expected",
        [(2, 3, 15), (10, 3, 8), (10, 1, 4), (2, 1, 6), (2, 4, 19),
         # 1296 = 2h*6^h at h = 3, where the closed form's ilog steps
         (1295, 3, 6), (1296, 3, 5), (2**4000 + 1, 3, 5)],
    )
    def test_frozen_values(self, q, h, expected):
        assert min_u(q, h) == expected

    def test_builds_no_power_of_q(self):
        start = time.perf_counter()
        assert min_u(10**4000, 1024) == 1026
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize(
        "q, h", [(2, 3), (3, 2), (5, 4), (10, 1), (1295, 3), (1296, 3)]
    )
    def test_definition(self, q, h):
        u = min_u(q, h)
        bound = 2 * h * q * (6 * q) ** h
        assert q**u >= bound
        assert q ** (u - 1) < bound


    @pytest.mark.parametrize("q, h", [(1, 3), (2, 0)])
    def test_rejects_base_below_two_and_degree_below_one(self, q, h):
        with pytest.raises(ValueError, match="need q >= 2 and h >= 1"):
            min_u(q, h)
        with pytest.raises(ValueError, match="need q >= 2 and h >= 1"):
            m1_divisor(q, h)


class TestM1Upper:
    @pytest.mark.parametrize(
        "q, h, u, expected", [(2, 3, 15, 3), (2, 3, 16, 6), (10, 3, 8, 15)]
    )
    def test_frozen_values(self, q, h, u, expected):
        assert admissible_ranges(q, h, u).m1_max == expected

    @pytest.mark.parametrize("q, h, u", [(2, 3, 15), (3, 3, 11), (10, 3, 8), (2, 1, 6)])
    def test_strict_maximality(self, q, h, u):
        top = admissible_ranges(q, h, u).m1_max
        denominator = h * q * (6 * q) ** h
        assert top * denominator < q**u
        assert (top + 1) * denominator >= q**u

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty m1 range at q=2, h=3, u=5"):
            admissible_ranges(2, 3, 5)


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
        for p in a:
            box.require(p)

    def test_lcg_recurrence_is_pinned(self):
        # four draws per quadruple in field order, each the next state of
        # state <- (a*state + c) mod 2^64 reduced mod its field's range
        box = admissible_ranges(2, 3, 15)
        states, state = [], 1
        for _ in range(4):
            state = (6364136223846793005 * state + 1442695040888963407) % 2**64
            states.append(state)
        assert next(box.sample(1, seed=1)) == CubicParams(
            m0=box.lo + states[0] % box.side, m1=1 + states[1] % box.m1_max,
            m2=box.lo + states[2] % box.side, m3=box.lo + states[3] % box.side, u=15,
        )


class TestSignViolation:
    @pytest.mark.parametrize(
        "coeffs", [[1, -1, 1], [5, -2, 3, 1], [1, -1, 1, 1, 1, 1, 1]]
    )
    def test_pattern_kept(self, coeffs):
        assert sign_violation(IntPolynomial.from_coeffs(coeffs)) is None

    @pytest.mark.parametrize(
        "coeffs, first",
        [
            ([1, 1, 1, 1], 1),  # positive x^1 coefficient
            ([0, -1, 1, 1], 0),  # zero constant coefficient
            ([1, 0, 1, 1], 1),  # zero x^1 coefficient
            ([1, -1, -1, 1], 2),  # negative coefficient above x^1
            ([-1, -1, 1], 0),  # negative constant coefficient
            ([1, -1], 2),  # degree below 2: x^2 is missing, so zero
            ([5], 1),
        ],
    )
    def test_first_violation(self, coeffs, first):
        assert sign_violation(IntPolynomial.from_coeffs(coeffs)) == first


class TestSignPattern:
    def test_admissible_quadruples_pass(self):
        box = admissible_ranges(2, 3, 15)
        for params in box.sample(50, seed=11):
            assert verify_sign_pattern(box, 3, params) is None
            powered = power(build_cubic(params), 3)
            assert max(map(abs, powered.coeffs)) <= (4 * 2**15) ** 3

    def test_power_one_is_the_cubic_itself(self):
        params = CubicParams(m0=2**14, m1=1, m2=2**14, m3=2**14, u=15)
        first = verify_sign_pattern(admissible_ranges(2, 1, 15), 1, params)
        assert first is None and sign_violation(build_cubic(params)) is None

    def test_out_of_range_m1_is_a_precondition_error(self):
        params = CubicParams(m0=2**14, m1=2**15, m2=2**14, m3=2**14, u=15)
        with pytest.raises(ValueError):
            verify_sign_pattern(admissible_ranges(2, 3, 15), 3, params)

    def test_coefficient_bound_reads_the_untruncated_box(self):
        # q^u is box.hi, so a quadruple at the top of the box passes
        box = admissible_ranges(2, 3, 15)
        top = CubicParams(m0=2**15 - 1, m1=box.m1_max, m2=2**15 - 1, m3=2**15 - 1,
                          u=15)
        assert verify_sign_pattern(box, 3, top) is None

    def test_coefficient_bound_is_part_of_the_verdict(self):
        # t = x^3 + x^2 - 9x + 1 keeps the sign pattern, but |c_1| = 9 > 4*2
        box = AdmissibleBox(u=1, lo=1, hi=2, m1_max=100)
        params = CubicParams(m0=1, m1=9, m2=1, m3=1, u=1)
        assert sign_violation(build_cubic(params)) is None
        assert verify_sign_pattern(box, 1, params) == 1

    @pytest.mark.parametrize("q, l, u", [(2, 3, 15), (3, 2, 8), (10, 3, 8)])
    def test_extreme_low_coefficients_have_closed_forms(self, q, l, u):
        for params in admissible_ranges(q, l, u).sample(15, seed=21):
            powered = power(build_cubic(params), l)
            assert powered.coeffs[0] == params.m0**l
            assert powered.coeffs[1] == -l * params.m1 * params.m0 ** (l - 1)

    @pytest.mark.parametrize("q, l, u", [(2, 3, 15), (3, 2, 8), (10, 3, 8)])
    def test_perturbation_coefficients_stay_small(self, q, l, u):
        # r = t^l - (m3 x^3 + m2 x^2 + m0)^l collects every term touching the
        # negative part; its coefficients are what the admissible m1 range
        # keeps too small to flip any sign
        bound = l * (6 * q) ** l * q ** ((u - 1) * (l - 1))
        for params in admissible_ranges(q, l, u).sample(15, seed=22):
            positive_part = IntPolynomial.from_coeffs(
                [params.m0, 0, params.m2, params.m3]
            )
            full, positive = power(build_cubic(params), l), power(positive_part, l)
            residual = IntPolynomial.from_coeffs(
                a - b for a, b in zip(full.coeffs, positive.coeffs)
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


def _min_k(q, h, u, p_shifted):
    """The smallest usable splitting exponent, h*u + delta + 1."""
    return h * u + splitting_margin(q, p_shifted) + 1


class TestMinK:
    def test_binary_monomial(self):
        assert _min_k(2, 3, 15, X3) == 52

    def test_decimal_monomial(self):
        assert _min_k(10, 3, 8, X3) == 31

    def test_large_coefficient_pushes_threshold(self):
        # exact comparison: smallest k with 2^k > 10^6 * (4*2^15)^3, which is
        # one tighter than the ceil-log sufficient condition
        p = IntPolynomial.from_coeffs([10**6, 0, 0, 1])
        k = _min_k(2, 3, 15, p)
        assert k == 71
        assert 2**k > 10**6 * (4 * 2**15) ** 3 >= 2 ** (k - 1)

    @pytest.mark.parametrize(
        "q, h, u, coeffs",
        [(2, 3, 15, [0, 0, 0, 1]), (10, 3, 8, [0, 0, 0, 1]), (2, 4, 19, [0, 1, 0, 0, 2]),
         (2, 3, 15, [4, 10, 6, 1]), (2, 3, 18, [4, 10, 6, 1]), (2, 3, 15, [5, 0, 0, 1]),
         (10, 3, 8, [10**6, 0, 0, 1]), (3, 8, 25, [0] * 8 + [1])],
    )
    def test_exact_threshold_conditions(self, q, h, u, coeffs):
        # the conditions hold at h*u + delta + 1 and fail at h*u + delta
        p = IntPolynomial.from_coeffs(coeffs)
        k = _min_k(q, h, u, p)
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
            splitting_margin(2, IntPolynomial.from_coeffs([0, -2, 0, 1]))


class TestSplittingMargin:
    @pytest.mark.parametrize(
        "q, p",
        [(2, X3), (10, X3), (3, IntPolynomial.monomial(8)),
         (2, IntPolynomial.from_coeffs([0, -2, 0, 1])),
         (2, IntPolynomial.from_coeffs([0, 1, 0, 0, 2])),
         (10, IntPolynomial.from_coeffs([0, -2, 0, 1])),
         (2, IntPolynomial.from_coeffs([10**6, 0, 0, 1]))],
    )
    def test_margin_does_not_depend_on_the_scale(self, q, p):
        u0 = min_u(q, p.degree)
        plans = [make_plan(CongruenceTarget(q=q, m=7, g=0), p, u)
                 for u in range(u0, u0 + 5)]
        margins = [splitting_margin(q, plan.p_shifted) for plan in plans]
        assert len(set(margins)) == 1
        for plan, delta in zip(plans, margins):
            assert plan.k_threshold == p.degree * plan.box.u + delta

    @pytest.mark.parametrize(
        "coeffs, delta",
        [([0, -2, 0, 1], 9), ([0, 1, 0, 0, 2], 9), ([0, 0, 0, 7], 8), ([5, 0, 0, 1], 8)],
    )
    def test_general_polynomials_at_base_two(self, coeffs, delta):
        # x^3 - 2x, 2x^4 + x, 7x^3 and x^3 + 5 split later than monomials
        p = IntPolynomial.from_coeffs(coeffs)
        plan = make_plan(CongruenceTarget(q=2, m=3, g=0), p)
        assert splitting_margin(2, plan.p_shifted) == delta

    @pytest.mark.parametrize("q", [2, 3, 10, 16])
    @pytest.mark.parametrize("h", [1, 3, 8, 30])
    def test_monomials_keep_2h(self, q, h):
        # q^(2h+1) > 4^h = max(x^h) * 4^h
        assert splitting_margin(q, IntPolynomial.monomial(h)) == 2 * h

    @pytest.mark.parametrize("q", [1, 0])
    def test_rejects_base_below_two(self, q):
        # no power of 1 or 0 passes the bound, so a search by q^j never ends
        with pytest.raises(ValueError, match="base must be >= 2"):
            splitting_margin(q, X3)


def _plan_with_threshold(q, m, g, k_threshold):
    plan = make_plan(CongruenceTarget(q=q, m=m, g=g), X3, 15)
    return dataclasses.replace(plan, k_threshold=k_threshold)


class TestSelectK:
    def test_window_example_binary(self):
        plan = _plan_with_threshold(2, 3, 0, 51)
        assert select_k(plan, 7) == 53

    def test_window_example_mod_two(self):
        plan = _plan_with_threshold(2, 2, 1, 10)
        assert select_k(plan, 0) == 11

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 39).flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.integers(2, 39).filter(lambda m: gcd(m, q - 1) == 1),
            )
        ),
        st.integers(-50, 50),
        st.integers(-10**6, 10**6),
        st.integers(0, 200),
    )
    def test_solves_what_a_window_scan_finds(self, qm, g, offset, k_threshold):
        q, m = qm
        plan = _plan_with_threshold(q, m, g, k_threshold)
        window = range(k_threshold + 1, k_threshold + m + 1)
        hits = [k for k in window if (k * (q - 1) + offset) % m == g % m]
        assert [select_k(plan, offset)] == hits

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
        assert digit_sum_offset(plan, params, composed_for(plan, params)) == expected

    def test_matches_direct_digit_sum_and_is_k_independent(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        plan = make_plan(target, X3, 15)
        box = admissible_ranges(2, 3, 15)
        for params in box.sample(25, seed=3):
            offset = digit_sum_offset(plan, params, composed_for(plan, params))
            t = build_cubic(params)
            for k in (52, 53, 60):
                direct = digit_sum(poly_eval(t, 2**k) ** 3, 2)
                assert direct == k * (2 - 1) + offset

    def test_decimal_base_identity(self):
        target = CongruenceTarget(q=10, m=7, g=0)
        plan = make_plan(target, X3, 8)
        box = admissible_ranges(10, 3, 8)
        for params in box.sample(10, seed=4):
            offset = digit_sum_offset(plan, params, composed_for(plan, params))
            t = build_cubic(params)
            for k in (31, 33, 40):
                assert digit_sum(poly_eval(t, 10**k) ** 3, 10) == 9 * k + offset

    def test_inadmissible_params_rejected(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        plan = make_plan(target, X3, 15)
        params = CubicParams(m0=1, m1=1, m2=1, m3=1, u=15)
        with pytest.raises(ValueError):
            digit_sum_offset(plan, params, composed_for(plan, params))

    def test_lost_sign_pattern_is_a_consistency_error(self):
        plan = make_plan(CongruenceTarget(q=2, m=3, g=0), X3, 15)
        params = plan.box.params_at(0)
        broken = IntPolynomial.from_coeffs([1, -1, 0, 1])
        with pytest.raises(ConsistencyError, match=r"lost the \(\+,-,\+,\.\.\.,\+\) "
                           r"sign pattern for .*: at x\^2$"):
            digit_sum_offset(plan, params, broken)


class TestConstructWitness:
    def test_end_to_end_binary(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        params = CubicParams(m0=2**14, m1=1, m2=2**14, m3=2**14, u=15)
        plan = make_plan(target, X3, params.u)
        w = witness_for(plan, params, composed_for(plan, params))
        assert w.residue == 0
        assert digit_sum(w.n**3, 2) % 3 == 0
        assert w.sq_value == digit_sum(w.n**3, 2)
        assert w.n == poly_eval(build_cubic(params), 2**w.k)

    def test_end_to_end_decimal(self):
        target = CongruenceTarget(q=10, m=7, g=2)
        params = CubicParams(m0=10**7, m1=5, m2=10**7 + 3, m3=10**8 - 1, u=8)
        plan = make_plan(target, X3, params.u)
        w = witness_for(plan, params, composed_for(plan, params))
        assert w.residue == 2 == digit_sum(w.n**3, 10) % 7

    def test_all_targets_hit_within_one_window(self):
        params = CubicParams(m0=2**14 + 5, m1=2, m2=2**14, m3=2**14 + 1, u=15)
        ks = []
        ns = set()
        for g in range(3):
            target = CongruenceTarget(q=2, m=3, g=g)
            plan = make_plan(target, X3, params.u)
            w = witness_for(plan, params, composed_for(plan, params))
            ks.append(w.k)
            ns.add(w.n)
        assert sorted(ks) == [52, 53, 54]
        assert len(ns) == 3

    def test_residue_window_coverage_binary(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        plan = make_plan(target, X3, 15)
        for params in admissible_ranges(2, 3, 15).sample(20, seed=6):
            offset = digit_sum_offset(plan, params, composed_for(plan, params))
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


class TestCompositions:
    # (q, p, u): the binary cube at u=15, whose m0 run (side) is 16384 long;
    # construct-deep's x^8 at q=3; p = x, the shortest walk; and x^3 - 2x at
    # q=10, whose shift e is 2
    PLANS = [
        (2, X3, 15),
        (3, IntPolynomial.monomial(8), None),
        (2, IntPolynomial.monomial(1), None),
        (10, IntPolynomial.from_coeffs([0, -2, 0, 1]), None),
    ]

    @staticmethod
    def check(plan, start, stop):
        got = list(compositions(plan, start, stop))
        assert [params for params, _ in got] == [
            plan.box.params_at(i) for i in range(start, stop)
        ]
        for params, composed in got:
            assert composed == composed_for(plan, params)

    @pytest.mark.parametrize("q, p, u", PLANS)
    def test_straddles_an_m0_wrap(self, q, p, u):
        plan = make_plan(CongruenceTarget(q=q, m=3 if q == 2 else 7, g=0), p, u)
        side = plan.box.side
        self.check(plan, side - 3, side + 5)
        self.check(plan, 2 * side - 1, 2 * side + 12)

    @pytest.mark.parametrize("q, p, u", PLANS)
    def test_starts_mid_run(self, q, p, u):
        plan = make_plan(CongruenceTarget(q=q, m=3 if q == 2 else 7, g=0), p, u)
        self.check(plan, 7, 40)

    def test_runs_shorter_than_h_plus_one(self):
        # runs of 2 and 1 quadruples around a wrap, under 9 seeds at h=8
        plan = make_plan(CongruenceTarget(q=3, m=5, g=2), IntPolynomial.monomial(8))
        side = plan.box.side
        self.check(plan, side - 2, side + 1)
        self.check(plan, 0, 1)
        self.check(plan, 5, 5)

    def test_general_polynomial_with_shift(self):
        p = IntPolynomial.from_coeffs([7, 1, -5, 0, 2])  # 2x^4 - 5x^2 + x + 7
        plan = make_plan(CongruenceTarget(q=10, m=7, g=3), p)
        assert plan.e > 0
        self.check(plan, 0, 30)

    def test_last_quadruples_of_the_box(self):
        plan = make_plan(CongruenceTarget(q=2, m=3, g=0), IntPolynomial.monomial(1))
        size = plan.box.size
        self.check(plan, size - 4, size)

    def test_composes_only_the_seeds(self, monkeypatch):
        plan = make_plan(CongruenceTarget(q=3, m=5, g=2), IntPolynomial.monomial(8))
        side = plan.box.side
        calls = []

        def counted(outer, inner):
            calls.append(inner)
            return poly_compose(outer, inner)

        monkeypatch.setattr("digitwitness.construction.poly_compose", counted)
        for start, stop, seeds in [(0, 1, 1), (0, 100, 9), (side - 2, side + 20, 11)]:
            calls.clear()
            list(compositions(plan, start, stop))
            assert len(calls) == seeds

    def test_a_stepping_fault_is_a_consistency_error(self):
        # the self-check evaluates p at n, so a composed polynomial that keeps
        # the sign pattern but not the quadruple's coefficients cannot pass
        plan = make_plan(CongruenceTarget(q=2, m=3, g=0), X3, 15)
        params = plan.box.params_at(1)
        wrong = composed_for(plan, plan.box.params_at(0))
        with pytest.raises(ConsistencyError):
            witness_for(plan, params, wrong)

class TestWitnessBitsBound:
    # (q, m, p, u): every golden and acceptance construct case, the
    # benchmark's construct-deep plan, and the largest runs the CLI documents
    # as accepted
    CASES = [
        (2, 3, X3, None),
        (2, 3, X3, 15),
        (10, 7, X3, 8),
        (9, 3, X3, 8),
        (10, 7, IntPolynomial.from_coeffs([0, -2, 0, 1]), None),
        (2, 3, IntPolynomial.from_coeffs([0, -2, 0, 1]), None),
        (2, 3, IntPolynomial.from_coeffs([0, 1, 0, 0, 2]), None),
        (3, 5, IntPolynomial.monomial(8), None),
        (10, 7, IntPolynomial.monomial(30), None),
        (2, 3, IntPolynomial.monomial(60), None),
    ]

    @staticmethod
    def largest_n(q, m, p, u):
        # p(n) = p_shifted(t(q^k)) grows with t's positive coefficients and k
        # and falls with m1, so the box's top corner at the window's last k
        # gives the largest n, and p(n), any witness of the plan can have
        plan = make_plan(CongruenceTarget(q=q, m=m, g=0), p, u)
        top = plan.box.hi - 1
        corner = CubicParams(m0=top, m1=1, m2=top, m3=top, u=plan.box.u)
        return poly_eval(build_cubic(corner), q ** (plan.k_threshold + m)) + plan.e

    @classmethod
    def largest_bits(cls, q, m, p, u):
        return poly_eval(p, cls.largest_n(q, m, p, u)).bit_length()

    @staticmethod
    def bound(q, m, p, u):
        # u=None in CASES is make_plan's default, the minimum scale
        return witness_bits_bound(q, m, p, min_u(q, p.degree) if u is None else u)

    @classmethod
    def verify_row_bits(cls, q, m, p, u):
        # what verify compares with the cap before it evaluates p(n)
        size_of_p = sum(map(abs, p.coeffs)).bit_length()
        return size_of_p + p.degree * cls.largest_n(q, m, p, u).bit_length()

    @pytest.mark.parametrize("q, m, p, u", CASES)
    def test_bounds_the_largest_value_of_the_plan(self, q, m, p, u):
        largest, bound = self.largest_bits(q, m, p, u), self.bound(q, m, p, u)
        assert largest <= bound <= 1.25 * largest

    @pytest.mark.parametrize("q, m, p, u", CASES)
    def test_bounds_the_row_size_verify_checks(self, q, m, p, u):
        # so verify never flags a row that construct writes
        assert self.verify_row_bits(q, m, p, u) <= self.bound(q, m, p, u)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(2, 3), (3, 5), (10, 7), (16, 7)]),
        st.lists(st.integers(-60, 60), min_size=1, max_size=4),
        st.integers(1, 9),
    )
    def test_bounds_random_polynomials(self, qm, low, lead):
        # negative coefficients make the shift e, and p_shifted's size,
        # depend on the Cauchy bound
        q, m = qm
        p = IntPolynomial.from_coeffs(low + [lead])
        bound = witness_bits_bound(q, m, p, min_u(q, p.degree))
        assert self.largest_bits(q, m, p, None) <= bound
        assert self.verify_row_bits(q, m, p, None) <= bound

    @pytest.mark.parametrize("q, m, p, u", CASES[:-2])
    def test_bounds_every_constructed_value(self, q, m, p, u):
        for g in range(m):
            target = CongruenceTarget(q=q, m=m, g=g)
            bound = self.bound(q, m, p, u)
            for w in construct_family(target, p, u, limit=20):
                assert poly_eval(p, w.n).bit_length() <= bound

    @pytest.mark.parametrize("q", [1, 0, -3])
    def test_rejects_base_below_two(self, q):
        with pytest.raises(ValueError, match="base must be >= 2"):
            witness_bits_bound(q, 3, X3, 15)

    def test_grows_with_degree_scale_and_modulus(self):
        base = witness_bits_bound(2, 3, X3, 15)
        assert witness_bits_bound(2, 3, X3, 16) > base
        assert witness_bits_bound(2, 3, IntPolynomial.monomial(4), 15) > base
        assert witness_bits_bound(2, 5, X3, 15) > base


class TestLibraryRefusals:
    """make_plan and admissible_ranges refuse oversize inputs before any work,
    so library callers get the CLI's refusals."""

    def test_construct_family_refuses_a_witness_past_the_cap(self):
        start = time.perf_counter()
        family = construct_family(
            CongruenceTarget(2, 3, 1), IntPolynomial.monomial(200), limit=1
        )
        with pytest.raises(ValueError) as info:
            next(family)
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            "p(n) for p = x^200 at q=2, m=3 could exceed the 4194304-bit cap "
            "on one witness"
        )

    def test_admissible_ranges_refuses_a_power_past_the_cap(self):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            admissible_ranges(3, 3, 10**8)
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            "(4q^u)^l at q=3, l=3, u=100000000 could exceed the 4194304-bit cap"
        )


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
        p = IntPolynomial.from_coeffs(coeffs)
        h = p.degree
        u = min_u(2, h)
        for params in admissible_ranges(2, h, u).sample(10, seed=13):
            composed = poly_compose(p, build_cubic(params))
            assert composed.degree == 3 * h
            assert sign_violation(composed) is None

    def test_rejects_constant_polynomial(self):
        target = CongruenceTarget(q=2, m=3, g=0)
        with pytest.raises(ValueError):
            make_plan(target, IntPolynomial.from_coeffs([5]), None)


def test_witness_for_is_internally_checked():
    # a plan/params mismatch in scale is caught up front
    target = CongruenceTarget(q=2, m=3, g=0)
    plan = make_plan(target, X3, 15)
    params = CubicParams(m0=2**15, m1=1, m2=2**15, m3=2**15, u=16)
    with pytest.raises(ValueError):
        witness_for(plan, params, composed_for(plan, params))
