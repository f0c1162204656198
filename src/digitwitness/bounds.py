"""Explicit constants and exact certification of the witness-count lower bound.

For monomials x^h the guaranteed number of witnesses below N is certified
against C * N^(4/(3h+1)) for explicit C and N0.  The constant C involves a
fractional power of q, so it is carried as (num/den)^(1/root) and every
inequality is decided by raising both sides to the root power and comparing
exact integers.  No floating point touches any verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .construction import ConsistencyError, admissible_ranges, min_u


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
    """u0, N0 and C for the monomial x^h at base q, modulus m."""

    q: int
    m: int
    h: int
    u0: int
    n0: int
    c: RootRational


def _check_instance(q: int, m: int, h: int) -> None:
    if q < 2 or m < 2:
        raise ValueError(f"need q, m >= 2, got q={q}, m={m}")
    if h < 1:
        raise ValueError(f"need h >= 1, got h={h}")
    if gcd(m, q - 1) != 1:
        raise ValueError(f"m and q-1 must be coprime, got m={m}, q={q}")


def explicit_constants(q: int, m: int, h: int) -> ExplicitConstants:
    """The closed-form u0, N0, C, evaluated with exact integers.

        u0 = smallest u with q^u >= 2hq(6q)^h
        N0 = q^(3(2h+m)) * (2hq^2(6q)^h)^(3h+1)
        C  = 1 / (16hq^5(6q)^h * q^((24h+12m)/(3h+1)))

    C is returned as (1/den)^(1/(3h+1)) with den = (16hq^5(6q)^h)^(3h+1)
    * q^(24h+12m).
    """
    _check_instance(q, m, h)
    u0 = min_u(q, h)
    root = 3 * h + 1
    n0 = q ** (3 * (2 * h + m)) * (2 * h * q**2 * (6 * q) ** h) ** root
    linear_factor = 16 * h * q**5 * (6 * q) ** h
    c = RootRational(1, linear_factor**root * q ** (24 * h + 12 * m), root)
    return ExplicitConstants(q=q, m=m, h=h, u0=u0, n0=n0, c=c)


@dataclass(frozen=True)
class GuaranteedCount:
    """Exact family size at scale u, with the weaker closed-form floor."""

    exact: int
    estimate: Fraction


def guaranteed_count(q: int, h: int, u: int) -> GuaranteedCount:
    """Family size (q^u - q^(u-1))^3 * m1_max and the (1-1/q)^3 q^4u floor.

    The floor is (1-1/q)^3 * q^(4u) / (2hq(6q)^h) as an exact rational; the
    enumeration size always dominates it for u at or above the minimum scale.
    """
    if u < min_u(q, h):
        raise ValueError(f"u={u} below minimum scale {min_u(q, h)}")
    exact = admissible_ranges(q, h, u).size
    estimate = Fraction(
        (q - 1) ** 3 * q ** (4 * u), q**3 * (2 * h * q * (6 * q) ** h)
    )
    if exact < estimate:
        raise ConsistencyError(
            f"enumeration count {exact} fell below its own floor {estimate}"
        )
    return GuaranteedCount(exact=exact, estimate=estimate)


@dataclass(frozen=True)
class BoundsReport:
    """One certification run: all inequality links, decided exactly."""

    q: int
    m: int
    h: int
    u0: int
    n0: int
    c: RootRational
    n_limit: int
    u: int
    guaranteed: int
    estimate: Fraction
    required: int
    verdict: bool


def bracket_scale(q: int, m: int, h: int, n_limit: int) -> int:
    """The unique u with q^(3(2h+m)) * q^(u(3h+1)) <= N < ... * q^((u+1)(3h+1))."""
    shift = q ** (3 * (2 * h + m))
    if n_limit < shift:
        raise ValueError(f"N={n_limit} too small to bracket")
    base = q ** (3 * h + 1)
    x = n_limit // shift
    u, power = 0, 1
    while power * base <= x:
        power *= base
        u += 1
    return u


def certify_lower_bound(q: int, m: int, h: int, n_limit: int) -> BoundsReport:
    """Certify guaranteed-count >= C * N^(4/(3h+1)) for a concrete N >= N0.

    Finds the scale u bracketing N, takes the exact family size at that u,
    and compares it against the smallest integer at or above C * N^(4/(3h+1))
    (the `required` field), computed by integer root extraction.
    """
    constants = explicit_constants(q, m, h)
    if n_limit < constants.n0:
        raise ValueError(f"N={n_limit} is below N0={constants.n0}")
    u = bracket_scale(q, m, h, n_limit)
    if u < constants.u0:
        raise ConsistencyError(f"bracketed u={u} below u0={constants.u0}")
    count = guaranteed_count(q, h, u)
    required = RootRational(
        constants.c.num * n_limit**4, constants.c.den, constants.c.root
    ).ceil()
    return BoundsReport(
        q=q,
        m=m,
        h=h,
        u0=constants.u0,
        n0=constants.n0,
        c=constants.c,
        n_limit=n_limit,
        u=u,
        guaranteed=count.exact,
        estimate=count.estimate,
        required=required,
        verdict=count.exact >= required,
    )
