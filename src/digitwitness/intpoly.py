"""Exact arithmetic on integer-coefficient polynomials.

Coefficients are stored densely, lowest degree first, with no trailing
zeros; the zero polynomial has an empty coefficient tuple.  Everything is
plain ``int`` arithmetic, so evaluation points and coefficients may be
thousands of digits long.  `poly_compose` is the one polynomial product:
translation, construct's p_shifted(t) and lemma's t^l all run its loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` multiplies x**i."""

    coeffs: tuple[int, ...]

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

    def is_zero(self) -> bool:
        return not self.coeffs

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
                term = str(mag)
            else:
                x = "x" if i == 1 else f"x^{i}"
                term = x if mag == 1 else f"{mag}{x}"
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
    value = 0
    for c in reversed(p.coeffs):
        value = value * x + c
    return value


def poly_translate(p: IntPolynomial, e: int) -> IntPolynomial:
    """p(x + e), exactly."""
    return poly_compose(p, IntPolynomial.from_coeffs([e, 1]))


def max_abs_coeff(p: IntPolynomial) -> int:
    return max((abs(c) for c in p.coeffs), default=0)
