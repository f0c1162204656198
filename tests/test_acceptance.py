"""Acceptance suite: every headline guarantee, run at its stated tolerance.

Each criterion appends one PASS/FAIL line to the shared log; the conftest
hook prints the collected lines in the terminal summary.  All digit-sum and
certification checks are exact; only the density criterion carries a
tolerance (0.02), as configured.
"""

import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from digitwitness import cli
from digitwitness.bounds import certify_lower_bound, explicit_constants
from digitwitness.construction import (
    CongruenceTarget,
    CubicParams,
    admissible_ranges,
    build_cubic,
    construct_family,
    digit_sum_offset,
    make_plan,
)
from digitwitness.digits import digit_sum
from digitwitness.intpoly import IntPolynomial, poly_compose, poly_eval
from digitwitness.oracle import density_table, polynomial_values, verify_witnesses

from boxes import sample, verify_sign_pattern

X2 = IntPolynomial.monomial(2)
X3 = IntPolynomial.monomial(3)


def record(log, name, ok, detail):
    log.append(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {name}: {detail}"


def test_criterion_1_splitting_identities(acceptance_log):
    rng = random.Random(20250810)
    samples = 100_000
    failures = 0
    for _ in range(samples):
        q = rng.randrange(2, 17)
        k = rng.randrange(1, 201)
        a = rng.randrange(1, 10**30)
        b = rng.randrange(1, q**k)
        # s_q(a*q^k + b) = s_q(a) + s_q(b)
        if digit_sum(a, q) + digit_sum(b, q) != digit_sum(a * q**k + b, q):
            failures += 1
        # s_q(a*q^k - b) = s_q(a-1) + k*(q-1) - s_q(b-1)
        split = digit_sum(a - 1, q) + k * (q - 1) - digit_sum(b - 1, q)
        if split != digit_sum(a * q**k - b, q):
            failures += 1
    record(
        acceptance_log,
        "1 splitting identities",
        failures == 0,
        f"{samples} randomized (q,a,b,k) samples, {failures} failures",
    )


def test_criterion_2_sign_pattern_certification(acceptance_log):
    box = admissible_ranges(2, 3, 15)
    bound = (4 * 2**15) ** 3
    failures = 0
    checked = 0
    for params in sample(box, 10_000, seed=424242):
        first = verify_sign_pattern(box, 3, params)
        checked += 1
        powered = poly_compose(X3, build_cubic(params))
        if first is not None or max(map(abs, powered.coeffs)) > bound:
            failures += 1
    # exhaustive pass over a truncated box: first 8 values per range
    values = range(box.lo, box.lo + 8)
    m1_values = range(1, box.m1_max + 1)  # only 3 values, already <= 8
    for m3, m2, m1, m0 in itertools.product(values, values, m1_values, values):
        params = CubicParams(m0=m0, m1=m1, m2=m2, m3=m3, u=15)
        checked += 1
        if verify_sign_pattern(box, 3, params) is not None:
            failures += 1
    record(
        acceptance_log,
        "2 sign-pattern certification",
        failures == 0,
        f"{checked} quadruples at (q=2, l=3, u=15) incl. 8^3*3 exhaustive box, "
        f"{failures} failures",
    )


def test_criterion_3_offset_identity_and_invariance(acceptance_log):
    target = CongruenceTarget(q=2, m=3, g=0)
    plan = make_plan(target, X3, 15)
    box = admissible_ranges(2, 3, 15)
    ok = True
    for params in sample(box, 100, seed=31337):
        composed = poly_compose(plan.p_shifted, build_cubic(params))
        offset = digit_sum_offset(plan, params, composed)
        t = build_cubic(params)
        observed = {
            digit_sum(poly_eval(t, 2**k) ** 3, 2) - k * (2 - 1)
            for k in (52, 53, 54, 60)
        }
        ok = ok and observed == {offset}
    record(
        acceptance_log,
        "3 offset identity and k-invariance",
        ok,
        "100 quadruples at (q=2, h=3, u=15), k in {52,53,54,60}, exact",
    )


def test_criterion_4_residue_coverage_binary(acceptance_log):
    target = CongruenceTarget(q=2, m=3, g=0)
    plan = make_plan(target, X3, 15)
    ok = True
    for params in sample(admissible_ranges(2, 3, 15), 100, seed=31337):
        composed = poly_compose(plan.p_shifted, build_cubic(params))
        offset = digit_sum_offset(plan, params, composed)
        t = build_cubic(params)
        residues = {digit_sum(poly_eval(t, 2**k) ** 3, 2) % 3 for k in (52, 53, 54)}
        ok = ok and residues == {0, 1, 2}
    record(
        acceptance_log,
        "4 residue coverage (q=2, m=3)",
        ok,
        "window k in {52,53,54} hits {0,1,2} for 100 quadruples",
    )


@pytest.mark.xfail(
    reason=(
        "inconsistent instance: gcd(3, 10-1) = 3, so (q=10, m=3) violates the "
        "coprimality the construction requires and k*(q-1) mod 3 is constant "
        "over any window; the target type itself must reject it"
    ),
    raises=ValueError,
    strict=True,
)
def test_criterion_4_residue_coverage_decimal_literal(acceptance_log):
    acceptance_log.append(
        "ACCEPTANCE 4 literal (q=10, m=3): UNATTAINABLE - gcd(3, 9) = 3 breaks "
        "coprimality; covered instead at (q=9, m=3) and (q=10, m=7)"
    )
    CongruenceTarget(q=10, m=3, g=0)


@pytest.mark.parametrize(
    "q, m, window",
    [(9, 3, (31, 32, 33)), (10, 7, tuple(range(31, 38)))],
    ids=["q9-m3", "q10-m7"],
)
def test_criterion_4_residue_coverage_second_base(q, m, window, acceptance_log):
    # nearest gcd-admissible instances to the criterion's (q=10, m=3, u=8):
    # q=9 keeps m=3 and the window {31,32,33}; q=10 keeps the base
    target = CongruenceTarget(q=q, m=m, g=0)
    plan = make_plan(target, X3, 8)
    assert plan.k_threshold + 1 == window[0]
    ok = True
    for params in sample(admissible_ranges(q, 3, 8), 100, seed=31337):
        composed = poly_compose(plan.p_shifted, build_cubic(params))
        offset = digit_sum_offset(plan, params, composed)
        t = build_cubic(params)
        residues = {
            digit_sum(poly_eval(t, q**k) ** 3, q) % m for k in window
        }
        ok = ok and residues == set(range(m))
    record(
        acceptance_log,
        f"4 residue coverage (q={q}, m={m})",
        ok,
        f"window k in {list(window)} covers Z/{m} for 100 quadruples at u=8",
    )


def test_criterion_5_end_to_end_witnesses(acceptance_log, tmp_path):
    all_n = set()
    ok = True
    for g in (0, 1, 2):
        path = tmp_path / f"witnesses_g{g}.jsonl"
        code = cli.main(
            ["construct", "--q", "2", "--m", "3", "--g", str(g), "--poly", "x^3",
             "--limit", "1000", "--out", str(path)]
        )
        ok = ok and code == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        ok = ok and len(rows) == 1000
        ns = {int(row["n"]) for row in rows}
        ok = ok and len(ns) == 1000
        all_n.update(ns)
        verify_out = tmp_path / f"verify_g{g}.jsonl"
        code = cli.main(
            ["verify", "--q", "2", "--m", "3", "--g", str(g), "--poly", "x^3",
             "--in", str(path), "--out", str(verify_out)]
        )
        ok = ok and code == 0
    ok = ok and len(all_n) == 3000
    record(
        acceptance_log,
        "5 end-to-end witnesses via CLI",
        ok,
        "construct+verify 1000 witnesses per g in {0,1,2}, exit 0, 3000 distinct n",
    )


def test_criterion_6_explicit_constants_and_certification(acceptance_log):
    constants = explicit_constants(2, 3, 3)
    ok = constants.u0 == 15 and constants.n0 == 2**27 * 41472**10
    ok = ok and certify_lower_bound(constants, constants.n0).verdict
    ok = ok and certify_lower_bound(constants, constants.n0 * 2**10).verdict
    certified = 0
    for q, m, h in [
        (q, m, h)
        for q in (2, 3, 5, 10)
        for m in (2, 3, 5, 7)
        if gcd(m, q - 1) == 1
        for h in (3, 4, 5)
    ]:
        constants = explicit_constants(q, m, h)
        for step in (0, 1, 2):
            n_limit = constants.n0 * q ** (step * (3 * h + 1))
            report = certify_lower_bound(constants, n_limit)
            ok = ok and report.verdict and report.guaranteed >= report.required
            certified += 1
    record(
        acceptance_log,
        "6 explicit constants and bound certification",
        ok,
        f"u0=15, N0=2^27*41472^10 pinned; {certified} exact certifications "
        f"across the gcd-admissible grid",
    )


def test_criterion_7_general_polynomial_path(acceptance_log):
    cases = [
        (IntPolynomial.from_coeffs([0, -2, 0, 1]), 2),  # x^3 - 2x, shift 2
        (IntPolynomial.from_coeffs([0, 1, 0, 0, 2]), 0),  # 2x^4 + x, no shift
    ]
    ok = True
    for p, expected_shift in cases:
        target = CongruenceTarget(q=2, m=3, g=1)
        family = list(construct_family(target, p, limit=100))
        ok = ok and len(family) == 100
        ok = ok and all(w.e == expected_shift for w in family)
        ok = ok and verify_witnesses(family, 2, 3, 1, p) == {}
        ok = ok and len({w.n for w in family}) == 100
    record(
        acceptance_log,
        "7 general polynomial path",
        ok,
        "100 witnesses each for x^3-2x (e=2) and 2x^4+x (e=0), all verified "
        "against the original polynomial, all distinct",
    )


def test_criterion_8_density_echo(acceptance_log):
    tolerance = Fraction(1, 50)
    table = density_table(2, 3, X2, 10**6)
    dev_binary = max(abs(d - Fraction(1, 3)) for d in table.densities)
    parity = density_table(3, 2, X2, 10**6)
    ok = dev_binary <= tolerance and parity.max_deviation <= tolerance
    record(
        acceptance_log,
        "8 empirical density echo",
        ok,
        f"N=10^6: max deviation {float(dev_binary):.4f} from 1/3 at (q=2,m=3) "
        f"and {float(parity.max_deviation):.4f} from Q(g,2)/2 at (q=3,m=2), "
        f"tolerance 0.02",
    )


def test_criterion_9_oracle_self_consistency(acceptance_log):
    serial = density_table(2, 3, X3, 10**6, workers=1).counts[0]
    parallel = density_table(2, 3, X3, 10**6, workers=8).counts[0]
    prefix = list(polynomial_values(X3, 0, 10**4))
    horner = [poly_eval(X3, n) for n in range(10**4)]
    ok = serial == parallel and prefix == horner
    record(
        acceptance_log,
        "9 oracle self-consistency",
        ok,
        f"8-worker count {parallel} == 1-worker count {serial} at N=10^6; "
        f"finite differences match Horner on the first 10^4 values",
    )
