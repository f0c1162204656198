"""Constructive witnesses for s_q(p(n)) = g (mod m).

The engine behind the whole package.  A scaled cubic

    t(x) = m3*x^3 + m2*x^2 - m1*x + m0

with the four parameters drawn from the admissible box

    q^(u-1) <= m0, m2, m3 < q^u,      1 <= m1 < q^u / (h*q*(6q)^h)

has the property that every power t(x)^l (and more generally p(t(x)) for any
p with nonnegative coefficients and positive leading coefficient) keeps a
single negative coefficient, at x^1, with everything else positive.  Feeding
x = q^k for k past an exact threshold separates the coefficients into
non-interfering base-q blocks, so the digit sum of p(t(q^k)) collapses to

    k*(q-1) + offset(params)

where the offset does not depend on k.  Because gcd(m, q-1) = 1, sliding k
through m consecutive values sweeps every residue class mod m, and one k in
the window hits the requested class g.  Each admissible quadruple therefore
yields one explicit witness n = t(q^k) + e with s_q(p(n)) = g (mod m), where
e is the translation making p's coefficients nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional

from .digits import digit_sum
from .intpoly import (
    IntPolynomial,
    max_abs_coeff,
    poly_compose,
    poly_eval,
    poly_translate,
    sign_profile,
)


class ConsistencyError(RuntimeError):
    """An internal invariant of the construction failed: implementation bug."""


@dataclass(frozen=True)
class CongruenceTarget:
    """A problem instance: hit digit-sum residue g mod m in base q."""

    q: int
    m: int
    g: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"base q must be >= 2, got {self.q}")
        if self.m < 2:
            raise ValueError(f"modulus m must be >= 2, got {self.m}")
        if gcd(self.m, self.q - 1) != 1:
            raise ValueError(
                f"m and q-1 must be coprime, got gcd({self.m}, {self.q - 1}) = "
                f"{gcd(self.m, self.q - 1)}"
            )
        object.__setattr__(self, "g", self.g % self.m)


@dataclass(frozen=True)
class CubicParams:
    """The quadruple defining the cubic, plus its scale exponent u."""

    m0: int
    m1: int
    m2: int
    m3: int
    u: int

    def __post_init__(self):
        for name in ("m0", "m1", "m2", "m3", "u"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


class Lcg64:
    """64-bit linear congruential generator, fixed for reproducible grids.

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    each draw returning the new state; `below(n)` reduces it mod n.  The
    recurrence is pinned so seeded runs can be replayed elsewhere.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next(self) -> int:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return self.state

    def below(self, n: int) -> int:
        return self.next() % n


def min_u(q: int, h: int) -> int:
    """Smallest scale exponent u with q^u >= 2*h*q*(6q)^h, by exact powering."""
    if q < 2:
        raise ValueError(f"base q must be >= 2, got {q}")
    if h < 1:
        raise ValueError(f"degree h must be >= 1, got {h}")
    bound = 2 * h * q * (6 * q) ** h
    u, power = 1, q
    while power < bound:
        power *= q
        u += 1
    return u


def m1_upper(q: int, h: int, u: int) -> int:
    """Largest m1 with m1 * (h*q*(6q)^h) < q^u (the inequality is strict)."""
    if q < 2 or h < 1:
        raise ValueError(f"need q >= 2 and h >= 1, got q={q}, h={h}")
    top = (q**u - 1) // (h * q * (6 * q) ** h)
    if top < 1:
        raise ValueError(
            f"empty m1 range at q={q}, h={h}, u={u}; scale u is too small"
        )
    return top


@dataclass(frozen=True)
class AdmissibleBox:
    """Integer parameter ranges for degree h at scale u.

    m0, m2, m3 run over [lo, hi) and m1 over [1, m1_max]; quadruples are
    indexed lexicographically by (m3, m2, m1, m0) ascending.
    """

    u: int
    lo: int
    hi: int
    m1_max: int

    @property
    def side(self) -> int:
        return self.hi - self.lo

    @property
    def size(self) -> int:
        return self.side**3 * self.m1_max

    def contains(self, params: CubicParams) -> bool:
        return (
            params.u == self.u
            and all(self.lo <= v < self.hi for v in (params.m0, params.m2, params.m3))
            and 1 <= params.m1 <= self.m1_max
        )

    def require(self, params: CubicParams) -> None:
        if not self.contains(params):
            raise ValueError(
                f"params {params} outside admissible box "
                f"[{self.lo}, {self.hi}) ^ 3 x [1, {self.m1_max}] at u={self.u}"
            )

    def params_at(self, index: int) -> CubicParams:
        """The index-th quadruple in lexicographic (m3, m2, m1, m0) order."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside [0, {self.size})")
        index, i0 = divmod(index, self.side)
        index, i1 = divmod(index, self.m1_max)
        i3, i2 = divmod(index, self.side)
        return CubicParams(
            m0=self.lo + i0, m1=1 + i1, m2=self.lo + i2, m3=self.lo + i3, u=self.u
        )

    def sample(self, count: int, seed: int) -> Iterator[CubicParams]:
        """`count` seeded-random quadruples; four Lcg64 draws each, in field order."""
        rng = Lcg64(seed)
        for _ in range(count):
            m0 = self.lo + rng.below(self.side)
            m1 = 1 + rng.below(self.m1_max)
            m2 = self.lo + rng.below(self.side)
            m3 = self.lo + rng.below(self.side)
            yield CubicParams(m0=m0, m1=m1, m2=m2, m3=m3, u=self.u)


def admissible_ranges(q: int, h: int, u: int) -> AdmissibleBox:
    if u < 1:
        raise ValueError(f"scale u must be >= 1, got {u}")
    return AdmissibleBox(u=u, lo=q ** (u - 1), hi=q**u, m1_max=m1_upper(q, h, u))


def build_cubic(params: CubicParams) -> IntPolynomial:
    """The cubic m3*x^3 + m2*x^2 - m1*x + m0."""
    return IntPolynomial.from_coeffs(
        [params.m0, -params.m1, params.m2, params.m3]
    )


@dataclass(frozen=True)
class SignPatternReport:
    """Outcome of checking one quadruple's power for the (+,-,+,...,+) pattern."""

    profile: tuple[int, ...]
    max_abs: int
    first_violation: Optional[int]
    ok: bool


def expected_profile(degree: int) -> tuple[int, ...]:
    """Sign pattern required of composed polynomials: + at 0, - at 1, + above."""
    if degree < 2:
        raise ValueError(f"need degree >= 2, got {degree}")
    return (1, -1) + (1,) * (degree - 1)


def verify_sign_pattern(q: int, l: int, params: CubicParams) -> SignPatternReport:
    """Check that t^l has the single-negative-coefficient pattern.

    Also checks the exact coefficient bound |c_i| <= (4*q^u)^l.  Parameters
    must lie in the admissible box for degree l at scale params.u; out-of-range
    quadruples are rejected (ValueError), not reported as failures.
    """
    admissible_ranges(q, l, params.u).require(params)
    powered = build_cubic(params) ** l
    # closed forms for the two lowest coefficients of t^l; a mismatch means
    # the polynomial arithmetic itself is broken
    if powered.coeffs[0] != params.m0**l:
        raise ConsistencyError(f"constant coefficient of t^{l} is not m0^{l}")
    if powered.coeffs[1] != -l * params.m1 * params.m0 ** (l - 1):
        raise ConsistencyError(
            f"linear coefficient of t^{l} is not -{l}*m1*m0^{l - 1}"
        )
    profile = sign_profile(powered)
    want = expected_profile(3 * l)
    first_violation = next(
        (i for i, (got, exp) in enumerate(zip(profile, want)) if got != exp), None
    )
    if len(profile) != len(want) and first_violation is None:
        first_violation = min(len(profile), len(want))
    max_abs = max_abs_coeff(powered)
    ok = first_violation is None and max_abs <= (4 * q**params.u) ** l
    return SignPatternReport(
        profile=profile, max_abs=max_abs, first_violation=first_violation, ok=ok
    )


def translate_shift(p: IntPolynomial) -> int:
    """Smallest e >= 0 such that p(x + e) has no negative coefficient.

    Requires a positive leading coefficient.  If p(x + e) has no negative
    coefficient, neither has p(x + e + d) for d >= 0, so e is found by
    doubling and then bisecting: O(log e) translations.  Callers are
    responsible for p mapping nonnegative integers to nonnegative integers.
    """
    if p.is_zero() or p.coeffs[-1] <= 0:
        raise ValueError("polynomial must have a positive leading coefficient")

    def nonnegative_at(e: int) -> bool:
        return all(c >= 0 for c in poly_translate(p, e).coeffs)

    lo, hi = -1, 0  # lo fails (or is -1) and hi passes, once doubling stops
    while not nonnegative_at(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if nonnegative_at(mid):
            hi = mid
        else:
            lo = mid
    return hi


def min_k(q: int, h: int, u: int, p_shifted: IntPolynomial) -> int:
    """Smallest usable splitting exponent k, by exact integer comparison.

    k must satisfy q^k > (max coefficient of p_shifted) * (4*q^u)^h together
    with k > h*u + 2*h and k > u; the first condition keeps every coefficient
    of p_shifted(t(q^k)) inside its own base-q block.
    """
    if p_shifted.is_zero() or any(c < 0 for c in p_shifted.coeffs):
        raise ValueError("expected nonnegative coefficients with positive leading")
    bound = max(p_shifted.coeffs) * (4 * q**u) ** h
    k = max(h * u + 2 * h, u) + 1
    power = q**k
    while power <= bound:
        power *= q
        k += 1
    return k


@dataclass(frozen=True)
class ConstructionPlan:
    """Everything about a target and polynomial that is quadruple-independent.

    `box` is the admissible box for p's degree at scale u: the family the plan
    enumerates, one witness per quadruple, and the one place its ranges and
    order are fixed.  Valid splitting exponents are exactly those strictly
    above k_threshold; the residue window scanned by select_k is
    [k_threshold + 1, k_threshold + m].
    """

    target: CongruenceTarget
    p: IntPolynomial
    e: int
    p_shifted: IntPolynomial
    box: AdmissibleBox
    k_threshold: int


def make_plan(
    target: CongruenceTarget, p: IntPolynomial, u: Optional[int] = None
) -> ConstructionPlan:
    h = p.degree
    if h < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {h}")
    if u is None:
        u = min_u(target.q, h)
    elif u < min_u(target.q, h):
        raise ValueError(
            f"u={u} is below the minimum scale {min_u(target.q, h)} "
            f"for q={target.q}, h={h}"
        )
    e = translate_shift(p)
    p_shifted = poly_translate(p, e)
    k_threshold = min_k(target.q, h, u, p_shifted) - 1
    return ConstructionPlan(
        target=target,
        p=p,
        e=e,
        p_shifted=p_shifted,
        box=admissible_ranges(target.q, h, u),
        k_threshold=k_threshold,
    )


def digit_sum_offset(plan: ConstructionPlan, params: CubicParams) -> int:
    """The k-independent part of s_q(p_shifted(t(q^k))).

    With c_i the coefficients of P = p_shifted(t(x)), the splitting identities
    telescope the digit sum of P(q^k) into k*(q-1) plus

        sum_{i>=3} s_q(c_i) + s_q(c_2 - 1) - s_q(|c_1| - 1) + s_q(c_0),

    which is what this returns.  May be negative.
    """
    q = plan.target.q
    plan.box.require(params)
    composed = poly_compose(plan.p_shifted, build_cubic(params))
    profile = sign_profile(composed)
    if profile != expected_profile(composed.degree):
        raise ConsistencyError(
            f"composed polynomial lost the (+,-,+,...,+) sign pattern for "
            f"{params}: profile {profile}"
        )
    coeffs = composed.coeffs
    offset = digit_sum(coeffs[0], q) + digit_sum(coeffs[2] - 1, q)
    offset -= digit_sum(-coeffs[1] - 1, q)
    for c in coeffs[3:]:
        offset += digit_sum(c, q)
    return offset


def select_k(plan: ConstructionPlan, offset: int) -> int:
    """The unique k in the residue window hitting the target class.

    Scans the m consecutive exponents after the plan threshold; exactly one
    satisfies k*(q-1) + offset = g (mod m) because gcd(m, q-1) = 1.
    """
    target = plan.target
    window = range(plan.k_threshold + 1, plan.k_threshold + target.m + 1)
    hits = [
        k for k in window if (k * (target.q - 1) + offset) % target.m == target.g
    ]
    if len(hits) != 1:
        raise ConsistencyError(
            f"expected exactly one k in {window}, found {hits}; "
            f"residue window failed to cover Z/{target.m}"
        )
    return hits[0]


@dataclass(frozen=True)
class Witness:
    """An explicit n with s_q(p(n)) = g (mod m), plus its provenance."""

    n: int
    k: int
    params: CubicParams
    offset: int
    sq_value: int
    residue: int
    e: int


def witness_for(plan: ConstructionPlan, params: CubicParams) -> Witness:
    """Run the construction for one quadruple and recheck it from scratch.

    The returned witness has already had s_q(p(n)) recomputed by direct
    evaluation and digit expansion; a mismatch with the predicted
    k*(q-1) + offset raises ConsistencyError.
    """
    target = plan.target
    q = target.q
    offset = digit_sum_offset(plan, params)
    k = select_k(plan, offset)
    n = poly_eval(build_cubic(params), q**k) + plan.e
    sq_value = digit_sum(poly_eval(plan.p, n), q)
    if sq_value != k * (q - 1) + offset:
        raise ConsistencyError(
            f"digit sum {sq_value} != k*(q-1) + offset = {k * (q - 1) + offset} "
            f"for {params}, k={k}"
        )
    residue = sq_value % target.m
    if residue != target.g:
        raise ConsistencyError(
            f"residue {residue} != target {target.g} for {params}, k={k}"
        )
    return Witness(
        n=n,
        k=k,
        params=params,
        offset=offset,
        sq_value=sq_value,
        residue=residue,
        e=plan.e,
    )


def construct_family(
    target: CongruenceTarget,
    p: IntPolynomial,
    u: Optional[int] = None,
    limit: Optional[int] = None,
) -> Iterator[Witness]:
    """Witnesses for the first `limit` quadruples of the plan's box, in order.

    One witness per quadruple, in `AdmissibleBox.params_at` order; with
    limit=None the entire box is enumerated (astronomical at realistic
    scales -- pass a limit).  Witnesses from distinct quadruples have
    distinct n; consumers assert this on collected output (see
    oracle.verify_witnesses) so the stream itself stays memoryless.
    """
    plan = make_plan(target, p, u)
    box = plan.box
    count = box.size if limit is None else min(limit, box.size)
    for index in range(count):
        yield witness_for(plan, box.params_at(index))
