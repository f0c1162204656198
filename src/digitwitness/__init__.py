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
    GuaranteedCount,
    certify_lower_bound,
    explicit_constants,
    guaranteed_count,
)
from .construction import (
    AdmissibleBox,
    CongruenceTarget,
    ConsistencyError,
    ConstructionPlan,
    CubicParams,
    SignPatternReport,
    Witness,
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
from .digits import digit_sum, expand
from .intpoly import (
    IntPolynomial,
    max_abs_coeff,
    poly_add,
    poly_compose,
    poly_eval,
    poly_mul,
    poly_pow,
    poly_translate,
    sign_profile,
)
from .oracle import (
    ComparisonReport,
    DensityTable,
    compare_to_main_term,
    density_table,
    polynomial_residue_count,
    polynomial_values,
    verify_witnesses,
)

__version__ = "0.1.0"
