"""Exact base-q digit expansions and digit sums.

Digits are stored least-significant first; a value of 0 expands to the empty
list.  All arithmetic is arbitrary precision.

This module is the one digit-sum engine: `digit_sum` (one value) and
`digit_sum_counts` (residue tallies over many values) share `_digit_sum`,
which dispatches on the base and the size of the value:

- q = 2: `int.bit_count`.
- Values of at most `_SPLIT_BITS` bits: repeated division by a block of
  digits, with a per-base lookup table for the low block.  Above
  `_TABLE_CAP` the block is a single digit, which is its own digit sum.
- Larger values: one division by the largest block^(2^i) up to the value,
  and the same dispatch on both parts (the divide-and-conquer radix
  conversion of Brent and Zimmermann, *Modern Computer Arithmetic*, section
  1.7, cut down to a digit sum).  The low part stands for 2^i blocks of
  digits, some of them leading zeros that the division drops; zeros add
  nothing to a digit sum, so neither part is ever padded back to its full
  width.  The powers are cached per base, like the tables.  Each split is
  one CPython `divmod`, which is schoolbook division, so T(n) = 2T(n/2) +
  O(n^2): the cost is quadratic, a constant factor below block division.
  Base-3 sums of 1, 2 and 4 Mbit values take 1.2, 4.9 and 19 s (2-vCPU VM,
  Python 3.11.7).

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

from bisect import bisect_right
from typing import Iterable, Sequence

# Largest low-block value: blocks of digits are summed via a lookup table of
# at most this many entries, built once per base.
_TABLE_CAP = 1 << 16

_tables: dict[int, tuple[Sequence[int], int]] = {}

# Values of at most this many bits are summed block by block; larger ones are
# split by block^(2^i) first.  At 8.6 and 100 kbit in bases 3 and 10, cutoffs
# from 500 to 1000 bits timed alike within noise (2-vCPU VM, Python 3.11.7).
_SPLIT_BITS = 768

# _powers[q] = [block, block^2, block^4, ...] for the block of _sum_table(q),
# extended as larger values arrive.
_powers: dict[int, list[int]] = {}


def _require_base(q: int) -> None:
    if q < 2:
        raise ValueError(f"base must be >= 2, got {q}")


def _require_nonnegative(n: int) -> None:
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")


def _sum_table(q: int) -> tuple[Sequence[int], int]:
    """(table, block): table[r] = s_q(r) for every r below block.

    block is the largest power of q up to _TABLE_CAP, or q itself above it
    and at q = 2, where _digit_sum reads no table.
    """
    if q > _TABLE_CAP or q == 2:
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
    if n.bit_length() <= _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + decimal_str(-n)
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
    return _digit_sum(n, q, *_sum_table(q))


def digit_sum_counts(values: Iterable[int], q: int, m: int) -> list[int]:
    """counts[r] = how many of the values have s_q(value) = r (mod m)."""
    _require_base(q)
    table, block = _sum_table(q)
    counts = [0] * m
    for value in values:
        if value < 0:
            raise ValueError(f"polynomial takes negative value {value}")
        counts[_digit_sum(value, q, table, block) % m] += 1
    return counts


def _digit_sum(n: int, q: int, table: Sequence[int], block: int) -> int:
    """s_q(n) for n >= 0, where (table, block) = _sum_table(q)."""
    if q == 2:
        return n.bit_count()
    # a value past _SPLIT_BITS bits is below block only in a base above
    # 2^_SPLIT_BITS, where it is a single digit
    if n.bit_length() > _SPLIT_BITS and n >= block:
        powers = _powers.setdefault(q, [block])
        while powers[-1] <= n:
            powers.append(powers[-1] * powers[-1])
        # the largest block^(2^i) <= n; both parts are below it
        high, low = divmod(n, powers[bisect_right(powers, n) - 1])
        return _digit_sum(high, q, table, block) + _digit_sum(low, q, table, block)
    total = 0
    while n:
        n, r = divmod(n, block)
        total += table[r]
    return total
