"""Exact arithmetic on integer-coefficient polynomials.

Coefficients are stored densely, lowest degree first, with no trailing
zeros; the zero polynomial has an empty coefficient tuple.  Everything is
plain ``int`` arithmetic, so evaluation points and coefficients may be
thousands of digits long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def _normalize(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` multiplies x**i."""

    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "IntPolynomial":
        return cls(_normalize(coeffs))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntPolynomial":
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        return cls.from_coeffs([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __pow__(self, exponent: int) -> "IntPolynomial":
        return poly_pow(self, exponent)

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


ZERO = IntPolynomial(())
ONE = IntPolynomial((1,))


def poly_add(p: IntPolynomial, r: IntPolynomial) -> IntPolynomial:
    a, b = p.coeffs, r.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return IntPolynomial(_normalize(out))


def poly_mul(p: IntPolynomial, r: IntPolynomial) -> IntPolynomial:
    a, b = p.coeffs, r.coeffs
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        if ci == 0:
            continue
        for j, cj in enumerate(b):
            out[i + j] += ci * cj
    return IntPolynomial(_normalize(out))


def poly_pow(p: IntPolynomial, l: int) -> IntPolynomial:
    """p**l by binary exponentiation over poly_mul."""
    if l < 0:
        raise ValueError(f"exponent must be >= 0, got {l}")
    result = ONE
    base = p
    while l:
        if l & 1:
            result = poly_mul(result, base)
        l >>= 1
        if l:
            base = poly_mul(base, base)
    return result


def poly_compose(outer: IntPolynomial, inner: IntPolynomial) -> IntPolynomial:
    """outer(inner(x)) by Horner accumulation over outer's coefficients."""
    result = ZERO
    for c in reversed(outer.coeffs):
        result = poly_add(poly_mul(result, inner), IntPolynomial.from_coeffs([c]))
    return result


def poly_eval(p: IntPolynomial, x: int) -> int:
    value = 0
    for c in reversed(p.coeffs):
        value = value * x + c
    return value


def poly_translate(p: IntPolynomial, e: int) -> IntPolynomial:
    """p(x + e), exactly."""
    return poly_compose(p, IntPolynomial.from_coeffs([e, 1]))


def sign_profile(p: IntPolynomial) -> tuple[int, ...]:
    """Per-exponent sign of each stored coefficient: -1, 0, or +1."""
    return tuple((c > 0) - (c < 0) for c in p.coeffs)


def max_abs_coeff(p: IntPolynomial) -> int:
    return max((abs(c) for c in p.coeffs), default=0)
