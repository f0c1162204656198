"""Test helpers that draw and check quadruples of an admissible box.

`sample` draws seeded quadruples, so a test's quadruples reproduce anywhere,
and `verify_sign_pattern` checks one quadruple's t^l the direct way, through
the product `construct` runs.  construction.sign_lemma_proof proves the same
lemma for every quadruple at every scale; these walk boxes to test it.
"""

from typing import Iterator, Optional

from digitwitness.construction import (
    AdmissibleBox,
    ConsistencyError,
    CubicParams,
    build_cubic,
    sign_violation,
)
from digitwitness.intpoly import IntPolynomial, poly_compose


def sample(box: AdmissibleBox, count: int, seed: int) -> Iterator[CubicParams]:
    """`count` seeded-random quadruples of `box`, reproducible anywhere.

    A pinned 64-bit LCG, state <- (6364136223846793005 * state +
    1442695040888963407) mod 2^64 from state = seed mod 2^64, makes four
    draws per quadruple in field order (m0, m1, m2, m3), each the new
    state mod the field's range (side, m1_max, side, side).
    """
    mask = (1 << 64) - 1
    side = box.side
    state, ranges = seed & mask, (side, box.m1_max, side, side)
    for _ in range(count):
        draws = []
        for n in ranges:
            state = (6364136223846793005 * state + 1442695040888963407) & mask
            draws.append(state % n)
        i0, i1, i2, i3 = draws
        yield box.params_at(((i3 * side + i2) * box.m1_max + i1) * side + i0)


def verify_sign_pattern(
    box: AdmissibleBox, l: int, params: CubicParams
) -> Optional[int]:
    """First exponent at which t^l, composed as x^l(t) by construct's product,
    breaks the lemma, or None: first the single-negative-coefficient pattern
    (sign_violation), then |c_i| <= (4*q^u)^l with q^u = box.hi.

    `box` is the admissible box for degree l at scale params.u; a quadruple
    outside it is rejected (ValueError), not reported as a failure.
    """
    box.require(params)
    powered = poly_compose(IntPolynomial.monomial(l), build_cubic(params))
    # closed forms for the two lowest coefficients of t^l; a mismatch means
    # the polynomial arithmetic itself is broken
    if powered.coeffs[0] != params.m0**l:
        raise ConsistencyError(f"constant coefficient of t^{l} is not m0^{l}")
    if powered.coeffs[1] != -l * params.m1 * params.m0 ** (l - 1):
        raise ConsistencyError(f"linear coefficient of t^{l} is not -{l}*m1*m0^{l - 1}")
    first = sign_violation(powered)
    if first is None:
        bound = (4 * box.hi) ** l
        first = next((i for i, c in enumerate(powered.coeffs) if abs(c) > bound), None)
    return first
