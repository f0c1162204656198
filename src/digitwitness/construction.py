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
e is the translation making p's coefficients nonnegative.  Lemma's t^l and
construct's p_shifted(t) come from the one product, intpoly.poly_compose,
and pass the one sign test, sign_violation.

Consecutive quadruples in params_at order differ only in m0, and every
coefficient of p_shifted(t(x)) is a polynomial of degree <= h in m0, so
`compositions` steps them with intpoly.difference_walk.  witness_for's
self-check evaluates p at n directly, never from the stepped coefficients.
Before any work, make_plan refuses a plan whose p(n) (witness_bits_bound),
and admissible_ranges a box whose (4q^u)^h, could pass digits.VALUE_BITS_CAP.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional

from .digits import VALUE_BITS_CAP, digit_sum, ilog, log2_bracket
from .intpoly import (
    IntPolynomial,
    difference_walk,
    poly_compose,
    poly_eval,
    poly_translate,
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


def m1_divisor(q: int, h: int) -> int:
    """D = h*q*(6q)^h, the divisor of the m1 range: m1 * D < q^u.

    The minimum scale is the least u with q^u >= 2D, and the bounds module
    builds N0, C and its count floor on D.
    """
    if q < 2 or h < 1:
        raise ValueError(f"need q >= 2 and h >= 1, got q={q}, h={h}")
    return h * q * (6 * q) ** h


def min_u(q: int, h: int) -> int:
    """Least u with q^u >= 2*m1_divisor(q, h) = 2h*6^h * q^(h+1); builds no q^u."""
    if q < 2 or h < 1:
        raise ValueError(f"need q >= 2 and h >= 1, got q={q}, h={h}")
    return h + 2 + ilog(q, 2 * h * 6**h - 1)


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

    def require(self, params: CubicParams) -> None:
        if not (
            params.u == self.u
            and all(self.lo <= v < self.hi for v in (params.m0, params.m2, params.m3))
            and 1 <= params.m1 <= self.m1_max
        ):
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
        """`count` seeded-random quadruples, reproducible anywhere.

        A pinned 64-bit LCG, state <- (6364136223846793005 * state +
        1442695040888963407) mod 2^64 from state = seed mod 2^64, makes four
        draws per quadruple in field order (m0, m1, m2, m3), each the new
        state mod the field's range (side, m1_max, side, side).
        """
        mask = (1 << 64) - 1
        state, ranges = seed & mask, (self.side, self.m1_max, self.side, self.side)
        for _ in range(count):
            draws = []
            for n in ranges:
                state = (6364136223846793005 * state + 1442695040888963407) & mask
                draws.append(state % n)
            i0, i1, i2, i3 = draws
            yield CubicParams(m0=self.lo + i0, m1=1 + i1, m2=self.lo + i2,
                              m3=self.lo + i3, u=self.u)


def admissible_ranges(q: int, h: int, u: int) -> AdmissibleBox:
    if u < 1:
        raise ValueError(f"scale u must be >= 1, got {u}")
    # q^16 <= 2^b, so (4q^u)^h has at most h*(2 + ceil(b*u/16)) + 1 bits
    _, b = log2_bracket(q)
    if h * (2 + -(-b * u // 16)) >= VALUE_BITS_CAP:
        cap = f"{VALUE_BITS_CAP}-bit cap"
        raise ValueError(f"(4q^u)^l at q={q}, l={h}, u={u} could exceed the {cap}")
    # the largest m1 with m1 * m1_divisor(q, h) < q^u (the inequality is strict)
    m1_max = (q**u - 1) // m1_divisor(q, h)
    if m1_max < 1:
        raise ValueError(
            f"empty m1 range at q={q}, h={h}, u={u}; scale u is too small"
        )
    return AdmissibleBox(u=u, lo=q ** (u - 1), hi=q**u, m1_max=m1_max)


def build_cubic(params: CubicParams) -> IntPolynomial:
    """The cubic m3*x^3 + m2*x^2 - m1*x + m0."""
    return IntPolynomial.from_coeffs(
        [params.m0, -params.m1, params.m2, params.m3]
    )


def sign_violation(p: IntPolynomial) -> Optional[int]:
    """First exponent breaking the (+,-,+,...,+) pattern, or None if p keeps it.

    The pattern is - at x^1 and + at every other exponent up to the degree,
    which is at least 2; a zero coefficient breaks it.
    """
    coeffs = p.coeffs + (0,) * (3 - len(p.coeffs))
    wrong = (i for i, c in enumerate(coeffs) if c == 0 or (c < 0) != (i == 1))
    return next(wrong, None)


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


def splitting_margin(q: int, p_shifted: IntPolynomial) -> int:
    """The margin delta of the plan's splitting exponents, exactly.

    With h = p_shifted.degree, every k > h*u + delta splits p_shifted(t(q^k))
    into base-q blocks: the conditions q^k > max(p_shifted) * (4*q^u)^h and
    k > h*u + 2*h lose their common factor q^(h*u), so delta is the largest
    j >= 2*h with q^j <= max(p_shifted) * 4^h (2*h when there is none),
    whatever u is.
    """
    if p_shifted.is_zero() or any(c < 0 for c in p_shifted.coeffs):
        raise ValueError("expected nonnegative coefficients with positive leading")
    h = p_shifted.degree
    return max(2 * h, ilog(q, max(p_shifted.coeffs) << 2 * h))


@dataclass(frozen=True)
class ConstructionPlan:
    """Everything about a target and polynomial that is quadruple-independent.

    `box` is the admissible box for p's degree at scale u: the family the plan
    enumerates, one witness per quadruple, and the one place its ranges and
    order are fixed.  Valid splitting exponents are exactly those strictly
    above k_threshold = h*u + delta (see splitting_margin); select_k picks
    its k from the residue window [k_threshold + 1, k_threshold + m].
    """

    target: CongruenceTarget
    p: IntPolynomial
    e: int
    p_shifted: IntPolynomial
    box: AdmissibleBox
    k_threshold: int


def _degree(p: IntPolynomial) -> int:
    """The degree of p, which a plan needs to be at least 1."""
    if p.degree < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {p.degree}")
    return p.degree


def make_plan(
    target: CongruenceTarget, p: IntPolynomial, u: Optional[int] = None
) -> ConstructionPlan:
    q, m, h = target.q, target.m, _degree(p)
    least = min_u(q, h)
    u = least if u is None else u
    if witness_bits_bound(q, m, p, u) > VALUE_BITS_CAP:
        cap = f"{VALUE_BITS_CAP}-bit cap on one witness"
        raise ValueError(f"p(n) for p = {p} at q={q}, m={m} could exceed the {cap}")
    if u < least:
        raise ValueError(f"u={u} is below the minimum scale {least} for q={q}, h={h}")
    e = translate_shift(p)
    p_shifted = poly_translate(p, e)
    return ConstructionPlan(
        target=target,
        p=p,
        e=e,
        p_shifted=p_shifted,
        box=admissible_ranges(q, h, u),
        k_threshold=h * u + splitting_margin(q, p_shifted),
    )


def witness_bits_bound(q: int, m: int, p: IntPolynomial, u: int) -> int:
    """An upper bound on bits(p(n)) over the witnesses of a plan for p at scale u.

    Bit lengths only, and no power of q above q^16, so it is cheap at any
    degree and scale.  With (a, b) = log2_bracket(q), the shift e is at most
    c + 1, c the largest |coefficient| below the leading one (Cauchy's root
    bound, for every derivative of p), so P = p_shifted has max(P) <= P(1) =
    p(1 + e) <= A*(c + 2)^h, A the sum of |coefficients|.
    splitting_margin is below the first j > 2h with j*log2 q >= bits(P(1)) +
    2h, so every k is below h*u + j + m; t(q^k) < 3q^(u+3k), and p(n) =
    P(t(q^k)) <= P(1)*t^h.  The same terms bound bits(A) + h*bits(n), as
    n = t + e <= t*(c + 2).
    """
    h, coeffs = _degree(p), p.coeffs
    a, b = log2_bracket(q)
    c = max(map(abs, coeffs[:-1]), default=0)
    p1_bits = sum(map(abs, coeffs)).bit_length() + h * (c + 2).bit_length()
    j = max(2 * h + 1, -(-16 * (p1_bits + 2 * h) // a))
    k = h * u + j + m - 1
    return p1_bits + h * (2 + -(-b * (u + 3 * k) // 16))


def compositions(
    plan: ConstructionPlan, start: int, stop: int
) -> Iterator[tuple[CubicParams, IntPolynomial]]:
    """(params, p_shifted(t)) for the quadruples at indices [start, stop) of
    plan.box, in order.

    Each run of consecutive indices that share (m1, m2, m3) is seeded by
    poly_compose at its first min(h + 1, run) quadruples, so no quadruple
    outside the range is built, and its coefficient columns are stepped
    along m0 by one difference_walk each.
    """
    box, h = plan.box, plan.p_shifted.degree
    index = start
    while index < stop:
        end = min(stop, index - index % box.side + box.side)
        seeds = [
            poly_compose(plan.p_shifted, build_cubic(box.params_at(i))).coeffs
            for i in range(index, min(end, index + h + 1))
        ]
        # the leading coefficient, lead(p)*m3^h, is never zero, so every
        # stepped tuple is already a normalised coefficient tuple
        columns = zip(*map(difference_walk, zip(*seeds)))
        for i, coeffs in zip(range(index, end), columns):
            yield box.params_at(i), IntPolynomial(coeffs)
        index = end


def digit_sum_offset(
    plan: ConstructionPlan, params: CubicParams, composed: IntPolynomial
) -> int:
    """The k-independent part of s_q(p_shifted(t(q^k))), from composed =
    p_shifted(t(x)) for t = build_cubic(params).

    With c_i the coefficients of composed, the splitting identities
    telescope the digit sum of composed(q^k) into k*(q-1) plus

        sum_{i>=3} s_q(c_i) + s_q(c_2 - 1) - s_q(|c_1| - 1) + s_q(c_0),

    which is what this returns.  May be negative.
    """
    q = plan.target.q
    plan.box.require(params)
    violation = sign_violation(composed)
    if violation is not None:
        raise ConsistencyError(
            f"composed polynomial lost the (+,-,+,...,+) sign pattern for "
            f"{params}: at x^{violation}"
        )
    coeffs = composed.coeffs
    offset = digit_sum(coeffs[0], q) + digit_sum(coeffs[2] - 1, q)
    offset -= digit_sum(-coeffs[1] - 1, q)
    for c in coeffs[3:]:
        offset += digit_sum(c, q)
    return offset


def select_k(plan: ConstructionPlan, offset: int) -> int:
    """The unique k in the residue window hitting the target class.

    With f = k_threshold + 1 the first exponent of the window, k = f + r
    where r*(q-1) = g - offset - f*(q-1) (mod m); q - 1 is invertible mod m
    because gcd(m, q-1) = 1.  witness_for rechecks the residue.
    """
    q, m, g = plan.target.q, plan.target.m, plan.target.g
    first = plan.k_threshold + 1
    return first + (g - offset - first * (q - 1)) * pow(q - 1, -1, m) % m


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


def witness_for(
    plan: ConstructionPlan, params: CubicParams, composed: IntPolynomial
) -> Witness:
    """Run the construction for one quadruple and recheck it from scratch.

    composed is p_shifted(t(x)) for t = build_cubic(params), as
    `compositions` yields it.  The returned witness has already had
    s_q(p(n)) recomputed by direct evaluation of p at n and digit expansion,
    which never reads composed; a mismatch with the predicted
    k*(q-1) + offset raises ConsistencyError.
    """
    target = plan.target
    q = target.q
    offset = digit_sum_offset(plan, params, composed)
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
    size = plan.box.size
    count = size if limit is None else min(limit, size)
    for params, composed in compositions(plan, 0, count):
        yield witness_for(plan, params, composed)
