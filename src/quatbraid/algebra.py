"""The 2^(2n-2)-dimensional sign algebra on generators u_1..u_{n-1}, v_1..v_{n-1}.

Defining relations:

    u_i^2 = v_i^2 = -1
    u_i v_j = -v_j u_i   if |i - j| <= 1
    u_i v_j =  v_j u_i   if |i - j| >= 2
    u_i u_j =  u_j u_i,   v_i v_j = v_j v_i

Every monomial has the normal form +/- u_1^e1 .. u_{n-1}^e{n-1} v_1^n1 .. v_{n-1}^n{n-1},
so a basis word is a pair of (n-1)-bit masks (eps, nu), at index eps 2^(n-1) + nu.
A product XORs the masks, hence the indices, and its sign is (-1)^(A+B+C)
(`sign_bits`, on masks or on mask arrays) with

    A = #{(i,j) : |i-j| <= 1, v_i in left factor, u_j in right factor}
    B = #{i : u_i in both factors}          (u_i^2 = -1)
    C = #{i : v_i in both factors}          (v_i^2 = -1)

{+-1, +-u_i, +-v_i, +-u_i v_i} is a copy of the quaternion group for each i.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from quatbraid import gf2
from quatbraid.scalar import ONE, Scalar, ZERO


@dataclass(frozen=True)
class Word:
    """Normal-form basis monomial: bitmask of u-exponents and of v-exponents."""

    n: int
    eps: int
    nu: int

    def __post_init__(self):
        mask = (1 << (self.n - 1)) - 1
        if self.eps & ~mask or self.nu & ~mask:
            raise ValueError(f"exponent mask out of range for n={self.n}")

    @property
    def index(self) -> int:
        """Position in the dense enumeration eps * 2^(n-1) + nu."""
        return (self.eps << (self.n - 1)) | self.nu

    @staticmethod
    def from_index(n: int, idx: int) -> Word:
        if not 0 <= idx < word_count(n):
            raise ValueError(f"word index {idx} out of range for n={n}")
        return Word(n, *index_masks(n, idx))

    @staticmethod
    def identity(n: int) -> Word:
        return Word(n, 0, 0)

    def is_identity(self) -> bool:
        return self.eps == 0 and self.nu == 0

    def __str__(self) -> str:
        if self.is_identity():
            return "1"
        parts = []
        for i in range(self.n - 1):
            if (self.eps >> i) & 1:
                parts.append(f"u{i + 1}")
        for i in range(self.n - 1):
            if (self.nu >> i) & 1:
                parts.append(f"v{i + 1}")
        return "".join(parts)


def word_count(n: int) -> int:
    return 1 << (2 * n - 2)


def index_masks(n: int, idx):
    """(eps, nu) of the word at index idx; idx is an int or an integer array."""
    mask = (1 << (n - 1)) - 1
    return (idx >> (n - 1)) & mask, idx & mask


@functools.lru_cache(maxsize=None)
def quad_words(n: int, i: int) -> tuple[Word, Word, Word, Word]:
    """The four words 1, u_i, v_i, u_i v_i of T_i = 1 + u_i + v_i + u_i v_i."""
    bit = 1 << (i - 1)
    return Word(n, 0, 0), Word(n, bit, 0), Word(n, 0, bit), Word(n, bit, bit)


def _window(bits):
    """Bit i set iff bits has an odd number of entries among {i-1, i, i+1}."""
    return (bits << 1) ^ bits ^ (bits >> 1)


def sign_bits(eps1, nu1, eps2, nu2):
    """The bits of A, B and C above, whose count is odd exactly when word 1 times
    word 2 has sign -1; on ints, or elementwise on integer arrays."""
    return (nu1 & _window(eps2)) ^ (eps1 & eps2) ^ (nu1 & nu2)


def mul_words(w1: Word, w2: Word) -> tuple[int, Word]:
    """Product of two basis words: (+1 or -1, normal-form word)."""
    if w1.n != w2.n:
        raise ValueError(f"strand mismatch: {w1.n} != {w2.n}")
    odd = sign_bits(w1.eps, w1.nu, w2.eps, w2.nu).bit_count() & 1
    return -1 if odd else 1, Word(w1.n, w1.eps ^ w2.eps, w1.nu ^ w2.nu)


class AlgebraElement:
    """Sparse linear combination of Words with Q(zeta) coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Word, Scalar] | None = None):
        self.n = n
        self.terms: dict[Word, Scalar] = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    self.terms[w] = c

    @staticmethod
    def one(n: int) -> AlgebraElement:
        return AlgebraElement(n, {Word.identity(n): ONE})

    @staticmethod
    def scalar(n: int, c: Scalar) -> AlgebraElement:
        return AlgebraElement(n, {Word.identity(n): c})

    def _check(self, other: AlgebraElement):
        if self.n != other.n:
            raise ValueError(f"strand mismatch: {self.n} != {other.n}")

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, ZERO) + c
        return AlgebraElement(self.n, terms)

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, ZERO) - c
        return AlgebraElement(self.n, terms)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.n, {w: -c for w, c in self.terms.items()})

    def scale(self, c: Scalar) -> AlgebraElement:
        return AlgebraElement(self.n, {w: c * t for w, t in self.terms.items()})

    def __mul__(self, other: AlgebraElement) -> AlgebraElement:
        self._check(other)
        acc: dict[Word, Scalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                sign, w = mul_words(w1, w2)
                c = c1 * c2
                if sign < 0:
                    c = -c
                prev = acc.get(w)
                acc[w] = c if prev is None else prev + c
        return AlgebraElement(self.n, acc)

    def trace(self) -> Scalar:
        """Coefficient of the identity word (the faithful trace of the algebra)."""
        return self.terms.get(Word.identity(self.n), ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement) or self.n != other.n:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("AlgebraElement is unhashable")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: w.index):
            c = self.terms[w]
            parts.append(f"({c})" if w.is_identity() else f"({c}) {w}")
        return " + ".join(parts)

    __repr__ = __str__


def _central_masks(n: int) -> list[int]:
    """All solutions of the window system: mask commutes with every generator.

    A word's v-mask must satisfy, for every j, an even number of v_i with
    |i - j| <= 1 (so the word commutes with u_j); same system for the u-mask
    against the v_j.  Boundary rows are the two-term sums, interior rows the
    three-term windows.
    """
    m = n - 1
    rows = [_window(1 << j) & ((1 << m) - 1) for j in range(m)]
    basis = gf2.nullspace(rows, m)
    sols = [0]
    for vec in basis:
        sols += [s ^ vec for s in sols]
    return sorted(sols)


def center(n: int) -> list[Word]:
    """Basis of the center: all words whose both masks solve the window system."""
    if n < 2:
        raise ValueError("need n >= 2")
    sols = _central_masks(n)
    return [Word(n, e, v) for e in sols for v in sols]
