"""Exact arithmetic in Q(zeta) where zeta = e^(i*pi/3), a primitive 6th root of unity.

Elements are stored on the basis {1, zeta} with the reduction zeta^2 = zeta - 1
(minimal polynomial x^2 - x + 1), applied in `Scalar.__mul__` alone.
Coefficients are exact rationals, so every operation in the package is exact;
there is no floating point anywhere.

Scalars are coefficients of algebra elements and results such as the
invariant, never matrix entries or vector coordinates: every matrix and
vector the package computes with is integral and handled in `intspan`, and
the `hecke` checks are integer identities of T_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Scalar:
    """a + b*zeta with rational a, b and zeta^2 = zeta - 1."""

    a: Fraction
    b: Fraction

    @staticmethod
    def of(a, b=0) -> Scalar:
        return Scalar(Fraction(a), Fraction(b))

    def __add__(self, other: Scalar) -> Scalar:
        return Scalar(self.a + other.a, self.b + other.b)

    def __sub__(self, other: Scalar) -> Scalar:
        return Scalar(self.a - other.a, self.b - other.b)

    def __neg__(self) -> Scalar:
        return Scalar(-self.a, -self.b)

    def __mul__(self, other: Scalar) -> Scalar:
        # (a + b z)(c + d z) = ac + (ad + bc) z + bd z^2, and z^2 = z - 1
        bd = self.b * other.b
        return Scalar(self.a * other.a - bd, self.a * other.b + self.b * other.a + bd)

    def conj(self) -> Scalar:
        # conj(zeta) = 1 - zeta
        return Scalar(self.a + self.b, -self.b)

    def norm_sq(self) -> Fraction:
        """z * conj(z) = a^2 + ab + b^2; the squared complex modulus."""
        return self.a * self.a + self.a * self.b + self.b * self.b

    def inverse(self) -> Scalar:
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        c = self.conj()
        return Scalar(c.a / n, c.b / n)

    def __truediv__(self, other: Scalar) -> Scalar:
        return self * other.inverse()

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __pow__(self, k: int) -> Scalar:
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def to_json(self) -> list[str]:
        """Pair of fraction strings ["p/q", "r/s"] for report files."""
        return [str(self.a), str(self.b)]

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*z"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*z"


ZERO = Scalar.of(0)
ONE = Scalar.of(1)
ZETA = Scalar.of(0, 1)

_ZETA_POWERS = tuple(ZETA**k for k in range(6))


def qpow(k: int) -> Scalar:
    """zeta^k for any integer k, reduced mod zeta^6 = 1."""
    return _ZETA_POWERS[k % 6]

