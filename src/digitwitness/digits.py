"""Exact base-q digit expansions and digit sums.

Digits are stored least-significant first; a value of 0 expands to the empty
list.  All arithmetic is arbitrary precision.

This module is the one digit-sum engine, the one decimal converter and the
one place powers of q are measured: `ilog(q, x)` is the largest e with
q^e <= x (construct's minimum scale and splitting margin, certify's
bracketed scale, the half-block below), and `log2_bracket(q)` brackets
log2 q by the bits of q^16 for size caps checked before any large power.
`digit_sum` (one value) and `digit_sum_counts` (residue tallies over many
values) call one summing function per base, `_summer(q)`, which chooses how
to sum in base q once per process:

- q = 2: `int.bit_count`.
- Any other base: a function over a per-base lookup table of q^j entries,
  for the largest j with the block q^(2j) below `_DIGIT_CAP`, one CPython
  digit.  Each block is one `divmod` by a single-digit divisor, and its
  digit sum is two lookups, table[r // q^j] + table[r % q^j].  Where j is
  1, or no j >= 1 fits (q^2 >= `_DIGIT_CAP`, and the block q^2 is wider
  than one digit), the half-block is q itself and the table is range(q): a
  single digit is its own digit sum, and no list of q entries is built.
  Values of at most `_SPLIT_BITS` bits are divided by the block
  repeatedly; a larger value is first split by `_split` at the largest
  block^(2^i) up to it, and both parts are summed the same way.  The low
  part stands for 2^i blocks of digits, some of them leading zeros that the
  division drops; zeros add nothing to a digit sum, so neither part is ever
  padded back to its full width.

`_split` is the divide-and-conquer radix conversion of Brent and Zimmermann,
*Modern Computer Arithmetic*, section 1.7: n = high*root^(2^i) + low over a
ladder root, root^2, root^4, ... that is cached per root.  One ladder serves
three conversions: digit sums (rooted at the block), `decimal_str`
(rooted at 10, past the 4300 digits `str()` writes by default) and
`decimal_int` (the same ladder of 10, past the 4300 digits `int()` reads).
A split of digit sums and `decimal_str` is one CPython `divmod`, which is
schoolbook division, so T(n) = 2T(n/2) + O(n^2): both are quadratic, a
constant factor below digit-by-digit work.  Base-3 sums of 1, 2 and 4 Mbit
values take 1.2, 4.9 and 19 s, and `decimal_str` of 1 Mbit 1.3 s (2-vCPU
VM, Python 3.11.7).  A join of `decimal_int` is one product, which is
Karatsuba, so it is O(n^1.59) and runs well below `int()`.

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

import sys
from collections import Counter
from functools import cache
from itertools import islice
from typing import Callable, Iterable

# One CPython digit: 2^30 on 64-bit builds.  _summer's blocks q^(2j) stay
# below it, so each divmod by a block takes CPython's single-digit division
# path.  At q = 3 that is blocks of 3^18 and a table of 3^9 = 19683 entries;
# at q = 5, 5^12 and 5^6; at q = 10, 10^8 and 10^4.
_DIGIT_CAP = 1 << sys.int_info.bits_per_digit

# Values of at most this many bits are summed block by block; larger ones are
# split by block^(2^i) first.  At 8.6 and 100 kbit in bases 3 and 10, cutoffs
# from 500 to 1000 bits timed alike within noise (2-vCPU VM, Python 3.11.7).
_SPLIT_BITS = 768

# Values per chunk of digit_sum_counts.  On density of x^2 at q=2, m=3 and
# N = 10^6, chunks of 2^10, 2^13 and 2^16 values ran equally fast within
# noise, and the process peaked at 19.5, 20.1 and 22.7 MiB, against 19.4
# MiB for a tally one value at a time (2-vCPU VM, Python 3.11.7).
_COUNT_CHUNK = 1 << 10

# _powers[root] = [root, root^2, root^4, ...], the ladder of _split, grown as
# larger values arrive.  Roots are the blocks of _summer and 10.
_powers: dict[int, list[int]] = {}

# Largest value, in bits, that construct lets one witness's p(n) reach,
# admissible_ranges lets (4q^u)^l reach and verify lets one row's p(n) reach,
# by an upper bound computed before anything is built.  The base-3 digit sum
# of a 4-Mbit value takes about 20 s, so the cap bounds the work of one
# witness or row; x^60 at q=2 (a 2.5-Mbit p(n)) runs in 1.5 s.
VALUE_BITS_CAP = 1 << 22

# Python's int() and str() refuse decimal strings of more than 4300 digits
# by default (CVE-2020-10735: the conversion is quadratic).  The limit can be
# lowered to 640 (PYTHONINTMAXSTRDIGITS, -X int_max_str_digits) or lifted (0).
# STR_DIGITS, the most digits converted here in one int() or str() call, is
# the limit as this module is imported, and never above 4300: past that the
# ladder is faster.  A limit set later by sys.set_int_max_str_digits is not
# followed.
_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
STR_DIGITS = min(_limit, 4300) if _limit else 4300

# Most digits decimal_int reads by default, past STR_DIGITS: the digit count
# of a VALUE_BITS_CAP-bit value (log10 2 < 0.30103), 1262612 digits.  Reading
# that many takes 1.3-1.6 s, int() with the limit lifted 13.7 s (2-vCPU VM,
# Python 3.11.7).
_DECIMAL_DIGITS_CAP = -(-VALUE_BITS_CAP * 30103 // 100000)


def _require_base(q: int) -> None:
    if q < 2:
        raise ValueError(f"base must be >= 2, got {q}")


def _require_nonnegative(n: int) -> None:
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")


def ilog(base: int, x: int) -> int:
    """The largest e >= 0 with base^e <= x, for base >= 2 and x >= 1."""
    _require_base(base)
    if x < 1:
        raise ValueError(f"expected x >= 1, got {x}")
    e, power = 0, base
    while power <= x:
        power *= base
        e += 1
    return e


def log2_bracket(q: int) -> tuple[int, int]:
    """(a, b) with 2^a <= q^16 <= 2^b, so log2 q lies in [a/16, b/16]."""
    _require_base(q)
    q16 = q**16
    return q16.bit_length() - 1, (q16 - 1).bit_length()


def _power(root: int, i: int) -> int:
    """root^(2^i), from the ladder _powers[root]."""
    powers = _powers.setdefault(root, [root])
    while len(powers) <= i:
        powers.append(powers[-1] * powers[-1])
    return powers[i]


def _split(n: int, root: int) -> tuple[int, int, int]:
    """(high, low, i) with n = high*root^(2^i) + low and 0 <= low < root^(2^i),
    where root^(2^i) is the largest ladder power up to n (n >= root)."""
    # root^(2^i) < 2^(bits(root)*2^i), so this i has root^(2^i) <= n
    i = max(0, ((n.bit_length() - 1) // root.bit_length()).bit_length() - 1)
    while _power(root, i + 1) <= n:
        i += 1
    high, low = divmod(n, _power(root, i))
    return high, low, i


def decimal_str(n: int) -> str:
    """n in decimal, also past Python's int-to-str digit limit.

    Larger values are split by the ladder of 10 into parts that str()
    accepts; the limit itself is left as it is.
    """
    # 2^3 < 10, so a value of 3d bits has at most d digits
    if n.bit_length() <= 3 * STR_DIGITS:
        return str(n)
    if n < 0:
        return "-" + decimal_str(-n)
    high, low, i = _split(n, 10)
    return decimal_str(high) + decimal_str(low).zfill(1 << i)


def decimal_int(
    s: str, name: str = "a decimal string", limit: int = _DECIMAL_DIGITS_CAP
) -> int:
    """The value of s, an optional "-" followed by ASCII digits, also past
    Python's str-to-int digit limit; a refusal calls s `name`.

    s may have at most `limit` digits after its "-", counted before any
    other work, as int() and json count them: the long default for witness
    n and the quadruple and for --N literals, STR_DIGITS for every other
    number.  s must match -?[0-9]+ at every length: int() alone would also
    read "1_000", "+5", surrounding spaces and non-ASCII digits.  A string
    of at most STR_DIGITS characters goes to int(); a longer one is cut by
    the ladder of 10 into parts that int() accepts.  The limit itself is
    left as it is.
    """
    digits = s.removeprefix("-")
    if len(digits) > limit:
        raise ValueError(
            f"{name} of {len(digits)} digits is longer than the {limit}-digit cap"
        )
    if not (digits.isascii() and digits.isdigit()):
        shown = repr(s) if len(s) <= 24 else f"{s[:20]!r}..."
        raise ValueError(
            f"{name} must be ASCII digits after an optional '-', got {shown}"
        )
    if len(s) <= STR_DIGITS:
        return int(s)
    if s[0] == "-":
        return -decimal_int(digits)
    # cut 2^i digits from the right, 2^i below the length, as decimal_str cuts
    i = (len(s) - 1).bit_length() - 1
    width = 1 << i
    return decimal_int(s[:-width]) * _power(10, i) + decimal_int(s[-width:])


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
    return _summer(q)(n)


def digit_sum_counts(values: Iterable[int], q: int, m: int) -> list[int]:
    """counts[r] = how many of the values have s_q(value) = r (mod m).

    The values are read _COUNT_CHUNK at a time, and each chunk's digit sums
    are tallied by one Counter, so at q = 2 the whole tally runs in C.
    """
    _require_base(q)
    total = _summer(q)
    counts = [0] * m
    values = iter(values)
    while chunk := list(islice(values, _COUNT_CHUNK)):
        if min(chunk) < 0:
            value = next(v for v in chunk if v < 0)
            raise ValueError(f"polynomial takes negative value {value}")
        for s, c in Counter(map(total, chunk)).items():
            counts[s % m] += c
    return counts


@cache
def _summer(q: int) -> Callable[[int], int]:
    """The function n -> s_q(n) for n >= 0, in base q >= 2."""
    if q == 2:
        return int.bit_count
    # half = q^j for the largest j >= 1 with the block half^2 below one digit
    half = q ** max(1, ilog(q * q, _DIGIT_CAP - 1))
    block = half * half
    if half == q:
        table = range(q)  # a digit is its own sum; q may be too large for a list
    else:
        # table[r] = s_q(r) for every r below half
        table = [0] * half
        for i in range(1, half):
            table[i] = table[i // q] + i % q

    # table, block and half are defaults, so they are locals: faster than
    # closure cells
    def total(n: int, table=table, block=block, half=half) -> int:
        # a value past _SPLIT_BITS bits is below block only in a base above
        # 2^(_SPLIT_BITS/2), where it is at most two digits
        if n.bit_length() > _SPLIT_BITS and n >= block:
            high, low, _ = _split(n, block)
            return total(high) + total(low)
        s = 0
        while n:
            n, r = divmod(n, block)
            s += table[r // half] + table[r % half]
        return s

    return total
