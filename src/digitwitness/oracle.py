"""Brute-force ground truth for digit-sum residue counts and witness checking.

Everything here is deliberately independent of the construction: counts come
from enumerating [0, N) and tallying digit sums through `digits`, and witness
verification re-evaluates p(n) from scratch and rebuilds n = t(q^k) + e from
its own statement of the cubic t and of the admissible box (neither
construction.build_cubic nor admissible_ranges is called), in one pass over
any iterable, returning only the problems of the witnesses that fail.
Duplicate n are found without a map of every n: rows in the order construct
writes them are pairwise distinct by L4, as the base-q^k digits of t(q^k)
are the quadruple, so each costs one byte (its k), and only the other rows'
n are mapped.  Enumeration advances p(n) by
intpoly.difference_walk, the stepper construct also runs along m0 (h
additions per step, run in C by itertools.accumulate), and
`digits.digit_sum_counts` tallies the values a chunk at a time.

[0, N) is cut into fixed-size chunks that `parallel.chunked_map` tallies,
across processes when there are several workers (never more processes than
chunks), and merges in order; it also refuses fewer than one worker.  Memory
is bounded by one chunk per worker, and since tallies are exact integers the
counts are identical for any worker count.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import islice
from math import gcd
from typing import Iterable, Iterator, Optional

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


# verify_witnesses keeps a chain row's k as one byte, k - k_base, with
# k_base = max(u, k0 - _K_BELOW) for the chain's first k0.  A construct
# file's k lie in one window of m values, so at m <= _K_BELOW all fit.
_K_BELOW = 128


def _chain_index(
    runs: list[tuple[int, ...]], offsets: bytearray, k_base: int,
    m3: int, m2: int, m1: int, m0: int, k: int,
) -> Optional[int]:
    """The index of the chain row with quadruple (m0, m1, m2, m3) and k, or
    None; offsets holds each row's k - k_base.

    runs is ordered by (m3, m2, m1, m0); a run (m3, m2, m1, first m0, first
    index, first byte) holds the rows up to the next run's first byte, whose
    m0 and index step by 1.  The probe ending in m0 + 1 sorts after every run
    that starts at or before m0, since a tuple sorts after its own prefix.
    """
    at = bisect_right(runs, (m3, m2, m1, m0 + 1)) - 1
    if at < 0:
        return None
    run = runs[at]
    end = runs[at + 1][5] if at + 1 < len(runs) else len(offsets)
    byte = run[5] + m0 - run[3]
    if run[:3] != (m3, m2, m1) or byte >= end or offsets[byte] != k - k_base:
        return None
    return run[4] + m0 - run[3]


def _l4_decode(
    d: int, q: int, u: int, k_from: int, k_to: int
) -> Optional[tuple[int, int, int, int, int]]:
    """(m3, m2, m1, m0, k) with d = t(q^k) and k in [k_from, k_to], k_from
    >= u, if d could be t(q^k) for a quadruple with q^(u-1) <= m0, m2, m3 <
    q^u and 1 <= m1 < q^u; else None.

    For such a quadruple the base-q^k digits of d, lowest first, are
    (m0, q^k - m1, m2 - 1, m3), and d lies in [q^(u-1+3k), q^(u+3k)), which
    is disjoint for distinct k (L4).  So k is bisected on the top digit
    d // q^(3k), which falls as k grows and is in [q^(u-1), q^u) at that k
    alone, and the quadruple is read from the digits.  The other digits are
    not range-checked: a chain row with t(q^k) = d has exactly these, and a
    quadruple outside the box is no chain row's.
    """
    hi = q**u
    lo = hi // q
    while k_from <= k_to:
        k = (k_from + k_to) // 2
        x = q**k
        rest, m0 = divmod(d, x)
        rest, x_less_m1 = divmod(rest, x)
        m3, m2_less_1 = divmod(rest, x)
        if m3 >= hi:
            k_from = k + 1
        elif m3 < lo:
            k_to = k - 1
        else:
            return m3, m2_less_1 + 1, x - x_less_m1, m0, k
    return None


def verify_witnesses(
    witnesses: Iterable[Witness], q: int, m: int, g: int, p: IntPolynomial
) -> dict[int, list[str]]:
    """Recheck every witness from first principles, in one pass.

    Each witness has s_q(p(n)) recomputed by direct evaluation and digit
    expansion, its provenance replayed (its quadruple in the admissible box
    of its own u, q^(u-1) <= m0, m2, m3 < q^u, 1 <= m1 and m1*D < q^u with
    D = h*q*(6q)^h for p of degree h, and n rebuilt from the quadruple and
    k), and its residue compared against g; duplicate n across the
    collection are also flagged, each with the index where its n first
    appeared.  Returns the problems of each failing index, in order; the
    dict is empty when every witness passes.

    Distinctness is proved by L4, not kept in a map of every n.  For
    q^(u-1) <= m0, m2, m3 < q^u, 1 <= m1 < q^u and k >= u, the base-q^k
    digits of t(q^k), lowest first, are (m0, q^k - m1, m2 - 1, m3), and
    t(q^k) lies in [q^(u-1+3k), q^(u+3k)), disjoint for distinct k: distinct
    (quadruple, k) give distinct n.  The chain is the rows whose rebuilt n
    matches, with the e and box of the chain's first row, k >= u within a
    byte of that row's k (_K_BELOW), and (m3, m2, m1, m0) strictly after the
    last chain row's.  Its rows are pairwise distinct and cost one byte
    each, their k, in runs of consecutive m0 and index; at m <= _K_BELOW a
    construct file's rows, at any worker count, all are.  Every other row is
    loose: its n is looked up in the chain, by its own quadruple and k when
    it matched in the chain's box and e, else by decoding n - e
    (_l4_decode) only at the k that bits(n - e) and the chain's rows admit,
    so a decoded n - e has at most (u + 3k)*b/16 + 1 bits at the chain's
    largest k; and in a map from n to first index, which keeps each loose n
    not seen before and is the only state that grows by more than a byte
    per row.  The index reported is the first of the two hits, as a map of
    every n reports it.

    The work per witness is bounded by its size and by VALUE_BITS_CAP.  A
    box is built only at a u with (u-1)*(bits(q)-1) < bits(max(m0, m2, m3)),
    as q^(u-1) exceeds the quadruple at any other u, and D only when
    h*(bits(6q)-1) < bits(q^u), as m1*D would otherwise pass q^u; the last
    u's box is kept, so a file of one u builds one box.  n is
    not rebuilt when k < 1 (no construction picks such a k), or when
    2^(k*(bits(q)-1)) <= q^k reaches 2^max(bits(m1), bits(n - e)): then
    x = q^k exceeds m1 and |n - e|, so t(x) = x*(m3*x^2 + m2*x - m1) + m0 >
    x > |n - e| and t(x) + e != n.  Nor is it rebuilt when
    M + 5 + 3*floor(b*k/16), with M the largest bits(m_i) and q^16 <= 2^b,
    passes the cap, as |t(q^k)| <= 4*2^M * q^(3k) could then pass it.  And
    p(n) is not evaluated when bits(A) + h*bits(n), A the sum of p's
    |coefficients|, passes the cap, as |p(n)| <= A*|n|^h could then pass
    it; construct never writes such a row (witness_bits_bound bounds this
    sum).
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    g %= m
    size_of_p = sum(map(abs, p.coeffs)).bit_length()
    h = p.degree
    a, b = log2_bracket(q)
    failures: dict[int, list[str]] = {}
    loose: dict[int, int] = {}
    runs: list[tuple[int, ...]] = []
    offsets = bytearray()
    # the chain's e, u, box [lo, hi), k_base, least and largest byte of k,
    # and the run its next row would continue
    e0 = u0 = None
    lo = hi = k_base = low = high = 0
    # the box of the last u built: [box_lo, box_hi) and m1 <= box_m1
    box_u = box_lo = box_hi = box_m1 = 0
    next_index = next_m0 = run_m1 = run_m2 = run_m3 = -1
    for index, w in enumerate(witnesses):
        problems = []
        params, n, k = w.params, w.n, w.k
        m0, m1, m2, m3, u = params.m0, params.m1, params.m2, params.m3, params.u
        # q^(u-1) >= 2^((u-1)*(bits(q)-1)) exceeds m0, m2 and m3 at a u that
        # fails this test, so q^u is built only near the quadruple's scale
        if u != box_u and ((u - 1) * (q.bit_length() - 1)
                           < (m0 | m2 | m3).bit_length()):
            box_u, box_hi = u, q**u
            box_lo = box_hi // q
            # D = h*q*(6q)^h >= 2^(h*(bits(6q)-1)), and no box has h < 1
            box_m1 = ((box_hi - 1) // (h * q * (6 * q) ** h) if h >= 1
                      and h * ((6 * q).bit_length() - 1) < box_hi.bit_length() else 0)
        in_box = (u == box_u and box_lo <= m0 < box_hi and box_lo <= m2 < box_hi
                  and box_lo <= m3 < box_hi and 1 <= m1 <= box_m1)
        if not in_box:
            problems.append(f"quadruple outside the admissible box at u {u}")
        matched = False
        size = max(m1.bit_length(), abs(n - w.e).bit_length())
        if k < 1 or k * (q.bit_length() - 1) >= size:
            problems.append(f"k {k} cannot rebuild n from its quadruple")
        # the m_i are positive, so their OR has the bits of the largest
        elif ((m0 | m1 | m2 | m3).bit_length() + 5
              + 3 * (b * k // 16) > VALUE_BITS_CAP):
            problems.append(
                f"n rebuilt at k {k} could exceed the {VALUE_BITS_CAP}-bit cap"
            )
        else:
            # t(x) stated here again, not read from construction: a checker
            # shares no arithmetic with the code it checks
            x = q**k
            rebuilt = ((m3 * x + m2) * x - m1) * x + m0 + w.e
            matched = rebuilt == n
            if not matched:
                problems.append(
                    f"n does not match its quadruple: the rebuilt n has "
                    f"{rebuilt.bit_length()} bits, n has {n.bit_length()} and "
                    f"their difference {(rebuilt - n).bit_length()}"
                )
        if w.sq_value != k * (q - 1) + w.offset:
            problems.append(
                f"sq {w.sq_value} inconsistent with k*(q-1)+offset "
                f"{decimal_str(k * (q - 1) + w.offset)}"
            )
        if size_of_p + h * n.bit_length() > VALUE_BITS_CAP:
            problems.append(f"p(n) could exceed the {VALUE_BITS_CAP}-bit cap")
        elif (value := poly_eval(p, n)) < 0:
            problems.append(f"p(n) = {decimal_str(value)} is negative")
        else:
            recomputed = digit_sum(value, q)
            if recomputed != w.sq_value:
                problems.append(f"recomputed digit sum {recomputed} != {w.sq_value}")
            if recomputed % m != g:
                problems.append(f"digit sum residue {recomputed % m} != target {g}")
        if w.residue != g:
            problems.append(f"declared residue {w.residue} != target {g}")
        # the common row continues the chain's last run
        joined = (
            matched and index == next_index and m0 == next_m0 and m0 < hi
            and m1 == run_m1 and m2 == run_m2 and m3 == run_m3
            and w.e == e0 and 0 <= (byte := k - k_base) < 256
        )
        if not joined:
            if matched and e0 is None and in_box and u <= k:
                # a matching row in its own box starts the chain
                e0, u0, lo, hi = w.e, u, box_lo, box_hi
                k_base = max(u0, k - _K_BELOW)
                low = high = k - k_base
            boxed = lo <= m0 < hi and lo <= m2 < hi and lo <= m3 < hi and m1 < hi
            joined = (
                matched and w.e == e0 and boxed and 0 <= (byte := k - k_base) < 256
                and (m3, m2, m1, m0) > (run_m3, run_m2, run_m1, next_m0 - 1)
            )
            if joined:
                runs.append((m3, m2, m1, m0, index, len(offsets)))
                run_m1, run_m2, run_m3 = m1, m2, m3
        if joined:
            offsets.append(byte)
            next_index, next_m0 = index + 1, m0 + 1
            if byte < low:
                low = byte
            elif byte > high:
                high = byte
            # a chain row's n differs from every other chain row's
            first = loose.get(n) if loose else None
        else:
            first = loose.get(n)
            found = None
            if matched and w.e == e0 and boxed and k >= u0:
                found = m3, m2, m1, m0, k
            elif e0 is not None and (d := n - e0) > 0:
                # 2^(bits-1) <= d < 2^bits and 2^a <= q^16 <= 2^b leave the k
                # with (u-1+3k)*a < 16*bits < (u+3k)*b + 16
                bits = d.bit_length()
                k_from = max(k_base + low, -((u0 + (15 - 16 * bits) // b) // 3))
                k_to = min(k_base + high, ((16 * bits - 1) // a + 1 - u0) // 3)
                if k_from <= k_to:
                    found = _l4_decode(d, q, u0, k_from, k_to)
            if found is not None:
                hit = _chain_index(runs, offsets, k_base, *found)
                if hit is not None and (first is None or hit < first):
                    first = hit
            if first is None:
                loose[n] = index
        if first is not None:
            problems.append(f"duplicate n, first seen at index {first}")
        if problems:
            failures[index] = problems
    return failures
