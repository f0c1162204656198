"""Exact base-q digit expansions and digit sums.

Digits are stored least-significant first; a value of 0 expands to the empty
list.  All arithmetic is arbitrary precision.

This module is the one digit-sum engine: `digit_sum` (one value) and
`digit_sum_counts` (residue tallies over many values) both work by repeated
division in blocks of digits, with a per-base lookup table for the low block.
Every base has a table; above `_TABLE_CAP` the block is a single digit, which
is its own digit sum.

Two power-gap splitting identities decompose s_q across a gap of k base-q
positions, for a >= 1, k >= 1 and 1 <= b < q^k:

    s_q(a*q^k + b) = s_q(a) + s_q(b)
    s_q(a*q^k - b) = s_q(a-1) + k*(q-1) - s_q(b-1)

In the second, subtracting b from a*q^k turns the low k positions into the
base-q complement of b, which is where the k*(q-1) term comes from.
`construction.digit_sum_offset` rests on both; the tests check them against
`digit_sum` directly.
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


# Values below 2^_STR_BITS have at most 3914 decimal digits, within the
# 4300 that Python's int-to-str conversion allows by default.
_STR_BITS = 13000


def decimal_str(n: int) -> str:
    """n in decimal, also past Python's int-to-str digit limit.

    Larger values are split by a power of 10 into parts that str() accepts;
    the limit itself is left as it is.
    """
    if n < 0:
        return "-" + decimal_str(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    width = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(n, 10**width)
    return decimal_str(high) + decimal_str(low).zfill(width)


def expand(n: int, q: int) -> list[int]:
    """Base-q digits of n, least significant first (empty for n = 0)."""
    _require_base(q)
    _require_nonnegative(n)
    digits: list[int] = []
    while n:
        n, r = divmod(n, q)
        digits.append(r)
    return digits


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
