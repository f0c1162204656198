"""Exact arithmetic on integer-coefficient polynomials.

Coefficients are stored densely, lowest degree first, with no trailing
zeros; the zero polynomial has an empty coefficient tuple.  Everything is
plain ``int`` arithmetic, so evaluation points and coefficients may be
thousands of digits long.  `poly_compose` is the one polynomial product:
translation, construct's p_shifted(t) and the lemma proof's powers all run
its loop.
`difference_walk` is the one stepper: density's values p(n) and construct's
composed coefficients along m0 both advance by its finite differences, whose
additions run in C through nested `itertools.accumulate`.
`poly_eval` runs Horner's rule over the nonzero coefficients only, so a
sparse p such as x^8 costs one power of x instead of a product per degree.

`IntPolynomial` is a plain `__slots__` class, not a dataclass: construct
builds one per witness, and its `__init__` is one assignment.  Two
polynomials are equal when their coefficient tuples are.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Iterable, Iterator, Sequence

from .digits import decimal_str


class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` multiplies x**i.

    `coeffs` must already be normalised (a tuple with no trailing zero);
    `from_coeffs` normalises any iterable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        out = list(coeffs)
        while out and out[-1] == 0:
            out.pop()
        return cls(tuple(out))

    @classmethod
    def monomial(cls, degree: int) -> "IntPolynomial":
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        return cls.from_coeffs([0] * degree + [1])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                term = decimal_str(mag)
            else:
                x = "x" if i == 1 else f"x^{i}"
                term = x if mag == 1 else f"{decimal_str(mag)}{x}"
            parts.append(f"{sign}{term}" if not parts else f" {sign} {term}")
        return "".join(parts)


def poly_compose(outer: IntPolynomial, inner: IntPolynomial) -> IntPolynomial:
    """outer(inner(x)) by Horner's rule over outer's coefficients.

    The accumulator is a plain list, multiplied by inner and shifted by the
    next coefficient of outer at each step; one IntPolynomial is built at
    the end.
    """
    b = inner.coeffs
    acc: list[int] = []
    for c in reversed(outer.coeffs):
        out = [0] * (len(acc) + len(b) - 1) if acc and b else [0]
        for i, a in enumerate(acc):
            if a:
                for j, bj in enumerate(b):
                    out[i + j] += a * bj
        out[0] += c
        acc = out
    return IntPolynomial.from_coeffs(acc)


def poly_eval(p: IntPolynomial, x: int) -> int:
    """p(x) by Horner's rule over the nonzero coefficients.

    A run of zero coefficients is crossed by one multiplication by x**gap
    (by x itself when gap is 1), so x^8 costs the three squarings of x**8.
    """
    value, gap = 0, 0
    for c in reversed(p.coeffs):
        gap += 1
        if c:
            value = value * (x if gap == 1 else x**gap) + c
            gap = 0
    return value * x**gap if gap else value


def difference_walk(values: Sequence[int]) -> Iterator[int]:
    """f(0), f(1), ... without end, f the polynomial of degree < len(values)
    with f(i) = values[i]; values must not be empty.

    The values become a forward-difference table once.  Each level below
    the top difference is then one itertools.accumulate over the level
    above it, so each later value costs len(values) - 1 exact additions,
    all run in C.
    """
    diffs = list(values)
    if not diffs:
        raise ValueError("values must not be empty")
    h = len(diffs) - 1
    for level in range(1, h + 1):
        for idx in range(h, level - 1, -1):
            diffs[idx] -= diffs[idx - 1]
    walk: Iterator[int] = repeat(diffs[h])
    for d in reversed(diffs[:h]):
        walk = accumulate(walk, initial=d)
    return walk


def poly_translate(p: IntPolynomial, e: int) -> IntPolynomial:
    """p(x + e), exactly."""
    return poly_compose(p, IntPolynomial.from_coeffs([e, 1]))
