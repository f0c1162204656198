"""Explicit constants and exact certification of the witness-count lower bound.

For monomials x^h the guaranteed number of witnesses below N is certified
against C * N^(4/(3h+1)) for explicit C and N0.  Nothing here restates the
construction: u0 and delta are read from construct's own plan for x^h (the
scale of its box and its splitting margin), D = h*q*(6q)^h is
`construction.m1_divisor`, and the guaranteed count is the size of
construct's box at the bracketed scale.  For every monomial delta = 2h.  The
constant C involves a fractional power of q, so it is carried as
(num/den)^(1/root) and every inequality is decided by raising both sides to
the root power and comparing exact integers.  No floating point touches any
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .construction import (
    CongruenceTarget,
    ConsistencyError,
    admissible_ranges,
    m1_divisor,
    make_plan,
)
from .digits import decimal_str
from .intpoly import IntPolynomial


def nth_root_floor(x: int, n: int) -> int:
    """Largest r with r**n <= x, by integer Newton iteration."""
    if x < 0:
        raise ValueError(f"expected x >= 0, got {x}")
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    if x == 0:
        return 0
    if n == 1:
        return x
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


@dataclass(frozen=True)
class RootRational:
    """The nonnegative real (num/den) ** (1/root), compared exactly."""

    num: int
    den: int
    root: int

    def __post_init__(self):
        if self.num < 0 or self.den <= 0 or self.root < 1:
            raise ValueError(f"invalid root-rational {self}")

    def ceil(self) -> int:
        """Smallest integer >= value."""
        r = nth_root_floor(self.num // self.den, self.root)
        while r**self.root * self.den < self.num:
            r += 1
        while r > 0 and (r - 1) ** self.root * self.den >= self.num:
            r -= 1
        return r


@dataclass(frozen=True)
class ExplicitConstants:
    """u0, delta, N0 and C for the monomial x^h at base q, modulus m."""

    q: int
    m: int
    h: int
    u0: int
    delta: int
    n0: int
    c: RootRational


def explicit_constants(q: int, m: int, h: int) -> ExplicitConstants:
    """N0 and C in closed form over construct's plan for x^h, in exact integers.

    With u0 and delta the plan's scale and splitting margin, D = h*q*(6q)^h:

        N0 = q^(3(delta+m)) * (2qD)^(3h+1)
        C  = 1 / (16q^4 D * q^(12(delta+m)/(3h+1)))

    C is returned as (1/den)^(1/(3h+1)) with den = (16q^4 D)^(3h+1)
    * q^(12(delta+m)).
    """
    plan = make_plan(CongruenceTarget(q, m, 0), IntPolynomial.monomial(h))
    u0, delta = plan.box.u, plan.delta
    d = m1_divisor(q, h)
    root = 3 * h + 1
    shift = q ** (3 * (delta + m))
    n0 = shift * (2 * q * d) ** root
    c = RootRational(1, (16 * q**4 * d) ** root * shift**4, root)
    return ExplicitConstants(q=q, m=m, h=h, u0=u0, delta=delta, n0=n0, c=c)


@dataclass(frozen=True)
class BoundsReport:
    """One certification run: all inequality links, decided exactly."""

    constants: ExplicitConstants
    n_limit: int
    u: int
    guaranteed: int
    estimate: Fraction
    required: int
    verdict: bool


def bracket_scale(constants: ExplicitConstants, n_limit: int) -> int:
    """The unique u with q^(3(delta+m)) * q^(u(3h+1)) <= N < ... * q^((u+1)(3h+1))."""
    q = constants.q
    shift = q ** (3 * (constants.delta + constants.m))
    if n_limit < shift:
        raise ValueError(f"N={decimal_str(n_limit)} too small to bracket")
    base = q ** (3 * constants.h + 1)
    x = n_limit // shift
    u, power = 0, 1
    while power * base <= x:
        power *= base
        u += 1
    return u


def certify_lower_bound(constants: ExplicitConstants, n_limit: int) -> BoundsReport:
    """Certify guaranteed-count >= C * N^(4/(3h+1)) for a concrete N >= N0.

    Finds the scale u bracketing N, takes the size of construct's box at that
    u, checks it against the (1-1/q)^3 q^(4u) / (2D) floor the derivation of
    C rests on, and compares it against the smallest integer at or above
    C * N^(4/(3h+1)) (the `required` field), computed by integer root
    extraction.
    """
    q, h, c = constants.q, constants.h, constants.c
    if n_limit < constants.n0:
        raise ValueError(
            f"N={decimal_str(n_limit)} is below N0={decimal_str(constants.n0)}"
        )
    u = bracket_scale(constants, n_limit)
    if u < constants.u0:
        raise ConsistencyError(f"bracketed u={u} below u0={constants.u0}")
    guaranteed = admissible_ranges(q, h, u).size
    estimate = Fraction((q - 1) ** 3 * q ** (4 * u), q**3 * 2 * m1_divisor(q, h))
    if guaranteed < estimate:
        raise ConsistencyError(
            f"enumeration count {decimal_str(guaranteed)} fell below its own floor"
        )
    required = RootRational(c.num * n_limit**4, c.den, c.root).ceil()
    return BoundsReport(
        constants=constants,
        n_limit=n_limit,
        u=u,
        guaranteed=guaranteed,
        estimate=estimate,
        required=required,
        verdict=guaranteed >= required,
    )
