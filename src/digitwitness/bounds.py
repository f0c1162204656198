"""Explicit constants and exact certification of the witness-count lower bound.

For monomials x^h the guaranteed number of witnesses below N is certified
against C * N^(4/(3h+1)) for explicit C and N0.  Nothing here restates the
construction: u0 is `construction.min_u`, delta `splitting_margin` of x^h
(2h for every monomial), D = h*q*(6q)^h `m1_divisor`, and the guaranteed
count is the size of construct's box at the bracketed scale.  No plan is
made, as certify never builds the witnesses construct's cap is about.  C
involves a fractional power of q; it is carried as the one integer c_den
with C = c_den^(-1/(3h+1)), so a link x >= C * N^(4/(3h+1)) is decided as
x^(3h+1) * c_den >= N^4 in exact integers.  No floating point touches any
verdict.
"""

from __future__ import annotations

from fractions import Fraction

from .construction import (
    CongruenceTarget,
    ConsistencyError,
    admissible_ranges,
    m1_divisor,
    min_u,
    splitting_margin,
)
from .digits import decimal_str, ilog
from .intpoly import IntPolynomial

# Largest N, in bits, that certify_lower_bound (and any --N value) takes:
# certifying an N of 2^16 bits takes about half a second, 2^20 bits minutes.
N_BITS_CAP = 1 << 16


def nth_root_floor(x: int, n: int) -> int:
    """Largest r with r**n <= x, by integer Newton iteration."""
    if x < 0:
        raise ValueError(f"expected x >= 0, got {x}")
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    if x == 0:
        return 0
    r = 1 << -(-x.bit_length() // n)
    while True:
        y = ((n - 1) * r + x // r ** (n - 1)) // n
        if y >= r:
            break
        r = y
    while r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


class ExplicitConstants:
    """u0, shift = q^(3(delta+m)), N0 and c_den for x^h at base q, modulus m."""

    __slots__ = ("q", "h", "u0", "shift", "n0", "c_den")

    def __init__(self, q: int, h: int, u0: int, shift: int, n0: int, c_den: int):
        self.q, self.h, self.u0, self.shift, self.n0, self.c_den = (
            q, h, u0, shift, n0, c_den
        )


def explicit_constants(q: int, m: int, h: int) -> ExplicitConstants:
    """N0 and C in closed form for x^h, in exact integers.

    With u0 = min_u, delta the splitting margin of x^h, D = h*q*(6q)^h:

        N0 = q^(3(delta+m)) * (2qD)^(3h+1)
        C  = 1 / (16q^4 D * q^(12(delta+m)/(3h+1)))

    C is carried as c_den = (16q^4 D)^(3h+1) * q^(12(delta+m)), the integer
    with C = c_den^(-1/(3h+1)).
    """
    if h < 1:
        raise ValueError(f"need h >= 1, got h={h}")
    # N0 = q^(3(delta+m)) * (2qD)^(3h+1) with delta >= 2h and 2qD > 8^h has
    # more bits than this bound; past the cap no N that certify_lower_bound
    # accepts reaches it, so it is not built
    if 3 * (q.bit_length() - 1) * (2 * h + m) + 3 * h * (3 * h + 1) >= N_BITS_CAP:
        raise ValueError(
            f"N0 at q={q}, m={m}, h={h} is above the {N_BITS_CAP}-bit "
            f"cap on N, so every accepted N is below N0"
        )
    CongruenceTarget(q, m, 0)  # refuses q < 2, m < 2 and gcd(m, q-1) > 1
    u0, d, root = min_u(q, h), m1_divisor(q, h), 3 * h + 1
    delta = splitting_margin(q, IntPolynomial.monomial(h))
    shift = q ** (3 * (delta + m))
    n0, c_den = shift * (2 * q * d) ** root, (16 * q**4 * d) ** root * shift**4
    return ExplicitConstants(q, h, u0, shift, n0, c_den)


class BoundsReport:
    """One certification run: all inequality links, decided exactly."""

    __slots__ = ("u", "guaranteed", "estimate", "required", "verdict")

    def __init__(
        self, u: int, guaranteed: int, estimate: Fraction, required: int, verdict: bool
    ):
        self.u, self.guaranteed, self.estimate = u, guaranteed, estimate
        self.required, self.verdict = required, verdict


def certify_lower_bound(constants: ExplicitConstants, n_limit: int) -> BoundsReport:
    """Certify guaranteed-count >= C * N^(4/(3h+1)) for N0 <= N < 2^N_BITS_CAP.

    Finds the unique scale u with shift * q^(u(3h+1)) <= N < shift *
    q^((u+1)(3h+1)), takes the size of construct's box at that u, checks it
    against the (1-1/q)^3 q^(4u) / (2D) floor the derivation of C rests on,
    and compares it against the least integer r with r^(3h+1) * c_den >= N^4,
    the smallest integer at or above C * N^(4/(3h+1)) (the `required` field).
    """
    q, h = constants.q, constants.h
    if n_limit.bit_length() > N_BITS_CAP:
        raise ValueError(f"N is above the {N_BITS_CAP}-bit cap")
    if n_limit < constants.n0:
        raise ValueError(
            f"N={decimal_str(n_limit)} is below N0={decimal_str(constants.n0)}"
        )
    root = 3 * h + 1
    u = ilog(q**root, n_limit // constants.shift)
    if u < constants.u0:
        raise ConsistencyError(f"bracketed u={u} below u0={constants.u0}")
    guaranteed = admissible_ranges(q, h, u).size
    estimate = Fraction((q - 1) ** 3 * q ** (4 * u), q**3 * 2 * m1_divisor(q, h))
    if guaranteed < estimate:
        raise ConsistencyError(
            f"enumeration count {decimal_str(guaranteed)} fell below its own floor"
        )
    # r^root * c_den >= N^4 exactly when r^root > (N^4 - 1) // c_den
    required = nth_root_floor((n_limit**4 - 1) // constants.c_den, root) + 1
    return BoundsReport(u, guaranteed, estimate, required, guaranteed >= required)
