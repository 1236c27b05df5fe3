"""Exact integer-coefficient polynomial arithmetic.

A polynomial is a dense tuple of arbitrary-precision coefficients, index i
holding the coefficient of x^i.  Values are immutable and every operation is
pure and exact; nothing here rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import NonIntegralQuotient, ZeroPolynomialError


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial a_0 + a_1 x + ... + a_k x^k.

    Trailing zero coefficients are stripped on construction, so for a nonzero
    polynomial degree() == len(coeffs) - 1.  The zero polynomial is stored as
    the empty tuple and reports degree -1, the distinguished case.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def evaluate(self, x: int) -> int:
        """Horner evaluation; exact for arbitrary-precision integer x."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate

    def root_bound(self) -> int:
        """Cauchy bound: every complex root x has |x| < 2 + max|a_i| // |a_k| (0 if constant)."""
        if self.degree() < 1:
            return 0
        return 2 + max(abs(c) for c in self.coeffs[:-1]) // abs(self.coeffs[-1])

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        """gcd(a_1, ..., a_k); the constant term is deliberately excluded."""
        if self.degree() < 1:
            raise ZeroPolynomialError("content needs degree >= 1")
        return math.gcd(*[abs(c) for c in self.coeffs[1:]])

    def coeff_stats(self) -> tuple[int, int]:
        """(leading coefficient b, sum of absolute values of coefficients J)."""
        if self.is_zero():
            raise ZeroPolynomialError("zero polynomial has no coefficient stats")
        return self.coeffs[-1], sum(abs(c) for c in self.coeffs)

    def shift_scale_divide(self, r: int, d: int, lam: int) -> "IntPoly":
        """Expand h(r + d x) / lam exactly.

        The coefficient of x^i is  (1/lam) * sum_{j >= i} a_j C(j, i) r^{j-i} d^i.
        Raises NonIntegralQuotient(i) when lam fails to divide the i-th
        expanded coefficient, signalling an invalid (r, d, lam) for this h.
        """
        if d < 1 or lam < 1:
            raise ValueError("shift_scale_divide needs d >= 1 and lam >= 1")
        k = self.degree()
        out = []
        for i in range(k + 1):
            num = sum(
                self.coeffs[j] * math.comb(j, i) * r ** (j - i)
                for j in range(i, k + 1)
            ) * d**i
            q, rem = divmod(num, lam)
            if rem:
                raise NonIntegralQuotient(i, num, lam)
            out.append(q)
        return IntPoly(out)

    def neg(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"
