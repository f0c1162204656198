"""Exact base-q digit expansions, digit sums, and power-gap splitting identities.

Digits are stored least-significant first; a value of 0 expands to the empty
list.  All arithmetic is arbitrary precision.  The two splitting identities
(`split_add`, `split_sub`) decompose s_q across a gap of k base-q positions:

    s_q(a*q^k + b) = s_q(a) + s_q(b)                      (1 <= b < q^k)
    s_q(a*q^k - b) = s_q(a-1) + k*(q-1) - s_q(b-1)        (1 <= b < q^k)

This module is the one digit-sum engine: `digit_sum` (one value) and
`digit_sum_counts` (residue tallies over many values) both work by repeated
division in blocks of digits, with a per-base lookup table for the low block.
Every base has a table; above `_TABLE_CAP` the block is a single digit, which
is its own digit sum.  The identities stay independently testable against it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# Largest low-block value: blocks of digits are summed via a lookup table of
# at most this many entries, built once per base.
_TABLE_CAP = 1 << 16

_tables: dict[int, tuple[Sequence[int], int]] = {}


def _require_base(q: int) -> None:
    if q < 2:
        raise ValueError(f"base must be >= 2, got {q}")


def _require_nonnegative(n: int) -> None:
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")


def _sum_table(q: int) -> tuple[Sequence[int], int]:
    """(table, block): table[r] = s_q(r) for every r below block.

    block is the largest power of q up to _TABLE_CAP, or q itself above it.
    """
    if q > _TABLE_CAP:
        return range(q), q
    cached = _tables.get(q)
    if cached is not None:
        return cached
    block = q
    while block * q <= _TABLE_CAP:
        block *= q
    table = [0] * block
    for i in range(1, block):
        table[i] = table[i // q] + i % q
    _tables[q] = (table, block)
    return table, block


def expand(n: int, q: int) -> list[int]:
    """Base-q digits of n, least significant first (empty for n = 0)."""
    _require_base(q)
    _require_nonnegative(n)
    digits: list[int] = []
    while n:
        n, r = divmod(n, q)
        digits.append(r)
    return digits


def digit_value(digits: list[int], q: int) -> int:
    """Inverse of `expand`: the integer with the given base-q digits."""
    _require_base(q)
    value = 0
    for d in reversed(digits):
        value = value * q + d
    return value


def digit_sum(n: int, q: int) -> int:
    """Sum of the base-q digits of n."""
    _require_base(q)
    _require_nonnegative(n)
    table, block = _sum_table(q)
    total = 0
    while n:
        n, r = divmod(n, block)
        total += table[r]
    return total


def digit_sum_counts(values: Iterable[int], q: int, m: int) -> list[int]:
    """counts[r] = how many of the values have s_q(value) = r (mod m)."""
    _require_base(q)
    table, block = _sum_table(q)
    counts = [0] * m
    for value in values:
        if value < 0:
            raise ValueError(f"polynomial takes negative value {value}")
        s = 0
        while value:
            value, r = divmod(value, block)
            s += table[r]
        counts[s % m] += 1
    return counts


def _check_split_args(a: int, b: int, k: int, q: int) -> None:
    _require_base(q)
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 1 <= b < q**k:
        raise ValueError(f"b must lie in [1, q^k - 1], got b={b} with q^k={q**k}")


def split_add(a: int, b: int, k: int, q: int) -> int:
    """s_q(a*q^k + b) computed without forming the sum, as s_q(a) + s_q(b)."""
    _check_split_args(a, b, k, q)
    return digit_sum(a, q) + digit_sum(b, q)


def split_sub(a: int, b: int, k: int, q: int) -> int:
    """s_q(a*q^k - b) computed from the borrow pattern across the gap.

    Subtracting b from a*q^k turns the low k positions into the base-q
    complement of b, which is where the k*(q-1) term comes from.
    """
    _check_split_args(a, b, k, q)
    return digit_sum(a - 1, q) + k * (q - 1) - digit_sum(b - 1, q)
