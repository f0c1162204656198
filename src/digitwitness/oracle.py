"""Brute-force ground truth for digit-sum residue counts and witness checking.

Everything here is deliberately independent of the construction: counts come
from enumerating [0, N) and tallying digit sums through `digits`, and witness
verification re-evaluates p(n) from scratch and rebuilds n = t(q^k) + e from
its own statement of the cubic t (construction.build_cubic is never called),
in one pass over any iterable, returning only the problems of the witnesses
that fail.  Enumeration advances p(n) by intpoly.difference_walk, the stepper
construct also runs along m0 (h additions per step, run in C by
itertools.accumulate), and `digits.digit_sum_counts` tallies the values a
chunk at a time.

[0, N) is cut into fixed-size chunks that `parallel.chunked_map` tallies,
across processes when there are several workers (never more processes than
chunks), and merges in order; it also refuses fewer than one worker.  Memory
is bounded by the chunks in flight, and since tallies are exact integers the
counts are identical for any worker count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import islice
from math import gcd
from typing import Iterable, Iterator

from .construction import Witness
from .digits import (
    VALUE_BITS_CAP,
    decimal_str,
    digit_sum,
    digit_sum_counts,
    log2_bracket,
)
from .intpoly import IntPolynomial, difference_walk, poly_eval
from .parallel import chunked_map

# Values of n per tally chunk: at x^2 and q=2 about 0.012 s of work for a
# result of m ints.
_TALLY_CHUNK = 1 << 16

# Largest density modulus.  The table holds three Fractions per residue and
# every chunk a list of m counts: m = 2^16 at N = 1000 takes 2.4 s and 40 MiB,
# m = 3*10^6 took 100 s and 983 MiB.
_MODULUS_CAP = 1 << 16


def polynomial_values(p: IntPolynomial, start: int, stop: int) -> Iterator[int]:
    """p(start), p(start+1), ..., p(stop-1), stepped by intpoly.difference_walk
    from the first min(h + 1, stop - start) of them."""
    count = min(max(p.degree, 0) + 1, stop - start)
    seeds = [poly_eval(p, start + i) for i in range(count)]
    if not seeds:
        return iter(())
    return islice(difference_walk(seeds), stop - start)


def tally_range(q: int, m: int, p: IntPolynomial, start: int, stop: int) -> list[int]:
    """Per-residue counts of s_q(p(n)) mod m for n in [start, stop)."""
    return digit_sum_counts(polynomial_values(p, start, stop), q, m)


class DensityTable:
    """Residue tallies of s_q(p(n)) mod m over [0, N), with exact densities
    and the equidistribution main term Q*(g,d)/m next to each."""

    __slots__ = ("n_limit", "counts", "predictions")

    def __init__(
        self, n_limit: int, counts: tuple[int, ...], predictions: tuple[Fraction, ...]
    ):
        if sum(counts) != n_limit:
            raise ValueError("counts must sum to N")
        self.n_limit, self.counts, self.predictions = n_limit, counts, predictions

    @property
    def densities(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.n_limit) for c in self.counts)

    @property
    def deviations(self) -> tuple[Fraction, ...]:
        return tuple(abs(d - p) for d, p in zip(self.densities, self.predictions))

    @property
    def max_deviation(self) -> Fraction:
        return max(self.deviations)


def density_table(
    q: int, m: int, p: IntPolynomial, n_limit: int, workers: int = 1
) -> DensityTable:
    """Tally s_q(p(n)) mod m over [0, N) by direct enumeration.

    No coprimality is assumed here; p must be nonnegative on [0, N).  The
    prediction for residue g is Q*(g,d)/m, with d = gcd(m, q-1) and
    Q*(g,d) = #{0 <= n < d : p(n) = g (mod d)}.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    if m > _MODULUS_CAP:
        raise ValueError(f"modulus {m} is above the cap {_MODULUS_CAP}")
    if n_limit < 1:
        raise ValueError(f"N must be >= 1, got {n_limit}")
    counts = [0] * m
    tally = partial(tally_range, q, m, p)
    for part in chunked_map(tally, n_limit, workers, _TALLY_CHUNK):
        for r, c in enumerate(part):
            counts[r] += c
    d = gcd(m, q - 1)
    residues = [poly_eval(p, n) % d for n in range(d)]
    return DensityTable(
        n_limit=n_limit,
        counts=tuple(counts),
        predictions=tuple(Fraction(residues.count(g % d), m) for g in range(m)),
    )


def verify_witnesses(
    witnesses: Iterable[Witness], q: int, m: int, g: int, p: IntPolynomial
) -> dict[int, list[str]]:
    """Recheck every witness from first principles, in one pass.

    Each witness has s_q(p(n)) recomputed by direct evaluation and digit
    expansion, its provenance (n rebuilt from the quadruple and k) replayed,
    and its residue compared against g; duplicate n across the collection are
    also flagged.  Returns the problems of each failing index, in order; the
    dict is empty when every witness passes.  Only the map of n seen so far
    grows with the input, and the work per witness is bounded by its size
    and by VALUE_BITS_CAP: n is not rebuilt when k < 1 (no construction
    picks such a k), or when 2^(k*(bits(q)-1)) <= q^k reaches
    2^max(bits(m1), bits(n - e)): then x = q^k exceeds m1 and |n - e|, so
    t(x) = x*(m3*x^2 + m2*x - m1) + m0 > x > |n - e| and t(x) + e != n.  Nor
    is it rebuilt when M + 5 + 3*floor(b*k/16), with M the largest bits(m_i)
    and q^16 <= 2^b, passes the cap, as |t(q^k)| <= 4*2^M * q^(3k) could
    then pass it.  And p(n) is not evaluated when bits(A) + h*bits(n), A the
    sum of p's |coefficients|, passes the cap, as |p(n)| <= A*|n|^h could
    then pass it; construct never writes such a row (witness_bits_bound
    bounds this sum).
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    g %= m
    size_of_p = sum(map(abs, p.coeffs)).bit_length()
    _, b = log2_bracket(q)
    failures: dict[int, list[str]] = {}
    seen: dict[int, int] = {}
    for index, w in enumerate(witnesses):
        problems = []
        params = w.params
        size = max(params.m1.bit_length(), abs(w.n - w.e).bit_length())
        if w.k < 1 or w.k * (q.bit_length() - 1) >= size:
            problems.append(f"k {w.k} cannot rebuild n from its quadruple")
        # the m_i are positive, so their OR has the bits of the largest
        elif ((params.m0 | params.m1 | params.m2 | params.m3).bit_length() + 5
              + 3 * (b * w.k // 16) > VALUE_BITS_CAP):
            problems.append(
                f"n rebuilt at k {w.k} could exceed the {VALUE_BITS_CAP}-bit cap"
            )
        else:
            # t(x) stated here again, not read from construction: a checker
            # shares no arithmetic with the code it checks
            x = q**w.k
            t = ((params.m3 * x + params.m2) * x - params.m1) * x + params.m0
            rebuilt = t + w.e
            if rebuilt != w.n:
                problems.append(
                    f"n does not match its quadruple: the rebuilt n has "
                    f"{rebuilt.bit_length()} bits, n has {w.n.bit_length()} and "
                    f"their difference {(rebuilt - w.n).bit_length()}"
                )
        if w.sq_value != w.k * (q - 1) + w.offset:
            problems.append(
                f"sq {w.sq_value} inconsistent with k*(q-1)+offset "
                f"{decimal_str(w.k * (q - 1) + w.offset)}"
            )
        if size_of_p + p.degree * w.n.bit_length() > VALUE_BITS_CAP:
            problems.append(f"p(n) could exceed the {VALUE_BITS_CAP}-bit cap")
        elif (value := poly_eval(p, w.n)) < 0:
            problems.append(f"p(n) = {decimal_str(value)} is negative")
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
