"""Brute-force ground truth for digit-sum residue counts and witness checking.

Everything here is deliberately independent of the construction: counts come
from enumerating [0, N) and tallying digit sums through `digits`, and witness
verification re-evaluates p(n) from scratch, in one pass over any iterable,
returning only the problems of the witnesses that fail.  Enumeration
advances p(n) with an exact finite-difference table (h additions per step);
per-n Horner evaluation is kept around as the dumber cross-check path.

[0, N) is cut into fixed-size chunks that `parallel.chunked_map` tallies,
across processes when there are several workers (never more processes than
chunks), and merges in order.  Memory is bounded by the chunks in flight,
and since tallies are exact integers the counts are identical for any
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Iterable, Iterator, Sequence

from .construction import Witness, build_cubic
from .digits import digit_sum, digit_sum_counts
from .intpoly import IntPolynomial, poly_eval
from .parallel import chunked_map

# Values of n per tally chunk: about 0.1 s of work for a result of m ints.
_TALLY_CHUNK = 1 << 16


def polynomial_values(p: IntPolynomial, start: int, stop: int) -> Iterator[int]:
    """Yield p(start), p(start+1), ..., p(stop-1) by finite differences."""
    if stop <= start:
        return
    h = max(p.degree, 0)
    diffs = [poly_eval(p, start + i) for i in range(h + 1)]
    for level in range(1, h + 1):
        for idx in range(h, level - 1, -1):
            diffs[idx] -= diffs[idx - 1]
    for _ in range(stop - start):
        yield diffs[0]
        for i in range(h):
            diffs[i] += diffs[i + 1]


def tally_range(
    q: int, m: int, coeffs: Sequence[int], start: int, stop: int
) -> list[int]:
    """Per-residue counts of s_q(p(n)) mod m for n in [start, stop)."""
    p = IntPolynomial.from_coeffs(coeffs)
    return digit_sum_counts(polynomial_values(p, start, stop), q, m)


@dataclass(frozen=True)
class DensityTable:
    """Residue tallies of s_q(p(n)) mod m over [0, N), with exact densities."""

    q: int
    m: int
    p: IntPolynomial
    n_limit: int
    counts: tuple[int, ...]
    densities: tuple[Fraction, ...]

    def __post_init__(self):
        if sum(self.counts) != self.n_limit:
            raise ValueError("counts must sum to N")
        if sum(self.densities, Fraction(0)) != 1:
            raise ValueError("densities must sum to 1")


def density_table(
    q: int, m: int, p: IntPolynomial, n_limit: int, workers: int = 1
) -> DensityTable:
    """Tally s_q(p(n)) mod m over [0, N) by direct enumeration.

    No coprimality is assumed here; p must be nonnegative on [0, N).
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if n_limit < 1:
        raise ValueError(f"N must be >= 1, got {n_limit}")
    counts = [0] * m
    tally = partial(tally_range, q, m, p.coeffs)
    for part in chunked_map(tally, n_limit, workers, _TALLY_CHUNK):
        for r, c in enumerate(part):
            counts[r] += c
    return DensityTable(
        q=q,
        m=m,
        p=p,
        n_limit=n_limit,
        counts=tuple(counts),
        densities=tuple(Fraction(c, n_limit) for c in counts),
    )


def polynomial_residue_count(d: int, g: int, p: IntPolynomial) -> int:
    """#{0 <= n < d : p(n) = g (mod d)}, the main-term correction factor."""
    if d < 1:
        raise ValueError(f"modulus must be >= 1, got {d}")
    g %= d
    return sum(1 for n in range(d) if poly_eval(p, n) % d == g)


@dataclass(frozen=True)
class ComparisonRow:
    residue: int
    count: int
    density: Fraction
    prediction: Fraction
    deviation: Fraction


@dataclass(frozen=True)
class ComparisonReport:
    """Observed densities next to the equidistribution main term Q*(g,d)/m."""

    d: int
    rows: tuple[ComparisonRow, ...]

    @property
    def max_deviation(self) -> Fraction:
        return max(row.deviation for row in self.rows)


def compare_to_main_term(table: DensityTable) -> ComparisonReport:
    d = gcd(table.m, table.q - 1)
    rows = []
    for residue, (count, density) in enumerate(zip(table.counts, table.densities)):
        prediction = Fraction(
            polynomial_residue_count(d, residue, table.p), table.m
        )
        rows.append(
            ComparisonRow(
                residue=residue,
                count=count,
                density=density,
                prediction=prediction,
                deviation=abs(density - prediction),
            )
        )
    return ComparisonReport(d=d, rows=tuple(rows))


def verify_witnesses(
    witnesses: Iterable[Witness], q: int, m: int, g: int, p: IntPolynomial
) -> dict[int, list[str]]:
    """Recheck every witness from first principles, in one pass.

    Each witness has s_q(p(n)) recomputed by direct evaluation and digit
    expansion, its provenance (n rebuilt from the quadruple and k) replayed,
    and its residue compared against g; duplicate n across the collection are
    also flagged.  Returns the problems of each failing index, in order; the
    dict is empty when every witness passes.  Only the map of n seen so far
    grows with the input, and the work per witness is bounded by its size:
    n is not rebuilt when k < 1 (no construction picks such a k), or when
    2^(k*(bits(q)-1)) <= q^k reaches 2^max(bits(m1), bits(n - e)): then
    x = q^k exceeds m1 and |n - e|, so t(x) = x*(m3*x^2 + m2*x - m1) + m0 > x
    > |n - e| and t(x) + e != n.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    g %= m
    failures: dict[int, list[str]] = {}
    seen: dict[int, int] = {}
    for index, w in enumerate(witnesses):
        problems = []
        size = max(w.params.m1.bit_length(), abs(w.n - w.e).bit_length())
        if w.k < 1 or w.k * (q.bit_length() - 1) >= size:
            problems.append(f"k {w.k} cannot rebuild n from its quadruple")
        else:
            rebuilt = poly_eval(build_cubic(w.params), q**w.k) + w.e
            if rebuilt != w.n:
                problems.append(f"n does not match its quadruple: {rebuilt} != {w.n}")
        if w.sq_value != w.k * (q - 1) + w.offset:
            problems.append(
                f"sq {w.sq_value} inconsistent with k*(q-1)+offset "
                f"{w.k * (q - 1) + w.offset}"
            )
        value = poly_eval(p, w.n)
        if value < 0:
            problems.append(f"p(n) = {value} is negative")
        else:
            recomputed = digit_sum(value, q)
            if recomputed != w.sq_value:
                problems.append(f"recomputed digit sum {recomputed} != {w.sq_value}")
            if recomputed % m != g:
                problems.append(f"digit sum residue {recomputed % m} != target {g}")
        if w.residue != g:
            problems.append(f"declared residue {w.residue} != target {g}")
        if w.n in seen:
            problems.append(f"duplicate n, first seen at index {seen[w.n]}")
        else:
            seen[w.n] = index
        if problems:
            failures[index] = problems
    return failures
