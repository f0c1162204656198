"""Constructive witnesses for digit-sum congruences of polynomial values.

Given a base q and modulus m with gcd(m, q-1) = 1, this package builds
explicit integers n with s_q(p(n)) = g (mod m) for any polynomial p of
degree >= 1 with positive leading coefficient, certifies the explicit
lower bound on how many such n exist below N, and cross-checks everything
against brute-force enumeration.
"""

from .bounds import (
    BoundsReport,
    ExplicitConstants,
    certify_lower_bound,
    explicit_constants,
)
from .construction import (
    AdmissibleBox,
    CongruenceTarget,
    ConsistencyError,
    ConstructionPlan,
    CubicParams,
    Witness,
    admissible_ranges,
    build_cubic,
    compositions,
    construct_family,
    digit_sum_offset,
    m1_divisor,
    m1_upper,
    make_plan,
    min_u,
    select_k,
    sign_violation,
    splitting_margin,
    translate_shift,
    verify_sign_pattern,
    witness_for,
)
from .digits import digit_sum, expand
from .intpoly import (
    IntPolynomial,
    difference_walk,
    poly_compose,
    poly_eval,
    poly_translate,
)
from .oracle import DensityTable, density_table, polynomial_values, verify_witnesses

__version__ = "0.1.0"
