"""Conjugation action of the braid generators as signed permutations of words.

Conjugating any basis word by s_i yields plus or minus a single basis word, so
each generator acts on the 2^(2n-2) words by a signed permutation.  Closing
the generated set under multiplication gives the image of the braid group
modulo the central kernel of the action; its order and the order of its own
center are what the finiteness statement predicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quatbraid.algebra import AlgebraElement, Word, center, word_count
from quatbraid.hecke import braid_generator, braid_generator_inverse
from quatbraid.scalar import ONE, ZERO, Scalar, exact_determinant


class NotASignedWordError(RuntimeError):
    """A conjugate failed to be +/- a single basis word (would falsify finiteness)."""


@dataclass(frozen=True)
class SignedPermutation:
    """Permutation of word indices with a sign per point."""

    n: int
    perm: np.ndarray   # intp, shape (4^(n-1),)
    signs: np.ndarray  # int8 in {+1,-1}, shape (4^(n-1),)

    @staticmethod
    def identity(n: int) -> SignedPermutation:
        size = word_count(n)
        return SignedPermutation(n, np.arange(size, dtype=np.intp), np.ones(size, dtype=np.int8))

    def compose(self, other: SignedPermutation) -> SignedPermutation:
        """self after other: x -> self(other(x)), signs multiplying along the way."""
        if self.n != other.n:
            raise ValueError("strand mismatch")
        perm = self.perm[other.perm]
        signs = other.signs * self.signs[other.perm]
        return SignedPermutation(self.n, perm, signs)

    def inverse(self) -> SignedPermutation:
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm), dtype=np.intp)
        return SignedPermutation(self.n, inv, self.signs[inv])

    def is_identity(self) -> bool:
        size = len(self.perm)
        return bool(
            np.array_equal(self.perm, np.arange(size, dtype=np.intp))
            and np.all(self.signs == 1)
        )

    def key(self) -> bytes:
        return self.perm.astype(np.uint32).tobytes() + np.packbits(self.signs < 0).tobytes()

    def order(self) -> int:
        k = 1
        acc = self
        while not acc.is_identity():
            acc = acc.compose(self)
            k += 1
            if k > 10**6:
                raise RuntimeError("runaway order computation")
        return k

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return self.n == other.n and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def conjugation_action(i: int, n: int) -> SignedPermutation:
    """Signed permutation w -> s_i^-1 w s_i on the word basis."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    s = braid_generator(n, i)
    s_inv = braid_generator_inverse(n, i)
    size = word_count(n)
    perm = np.empty(size, dtype=np.intp)
    signs = np.empty(size, dtype=np.int8)
    for idx in range(size):
        w = Word.from_index(n, idx)
        img = s_inv * AlgebraElement.from_word(w) * s
        if len(img.terms) != 1:
            raise NotASignedWordError(f"conjugate of {w} has {len(img.terms)} terms")
        (target, coeff), = img.terms.items()
        if coeff == ONE:
            sg = 1
        elif coeff == -ONE:
            sg = -1
        else:
            raise NotASignedWordError(f"conjugate of {w} has coefficient {coeff}")
        perm[idx] = target.index
        signs[idx] = sg
    return SignedPermutation(n, perm, signs)


class EnumerationCapExceeded(RuntimeError):
    def __init__(self, cap: int, partial: int):
        super().__init__(f"group enumeration exceeded cap {cap} (saw {partial} elements)")
        self.cap = cap
        self.partial = partial


def _mulclose(gens: list[SignedPermutation], cap: int) -> dict[bytes, SignedPermutation]:
    els = {g.key(): g for g in gens}
    ident = SignedPermutation.identity(gens[0].n)
    els.setdefault(ident.key(), ident)
    frontier = list(els.values())
    while frontier:
        new_frontier = []
        for b in frontier:
            for g in gens:
                c = g.compose(b)
                k = c.key()
                if k not in els:
                    els[k] = c
                    new_frontier.append(c)
                    if len(els) > cap:
                        raise EnumerationCapExceeded(cap, len(els))
        frontier = new_frontier
    return els


def enumerate_group(n: int, max_elements: int = 2_000_000) -> dict:
    """BFS closure of the conjugation image; order, projective order, diagnostics.

    The projective order divides out the center of the enumerated permutation
    group itself (elements commuting with every generator).  Central kernel
    information for the full group is reported separately: the action kills
    scalars always, plus the nontrivial central words when there are any.
    """
    if not 2 <= n <= 5:
        raise ValueError("supported range is 2 <= n <= 5")
    actions = [conjugation_action(i, n) for i in range(1, n)]
    gens = actions + [a.inverse() for a in actions]
    els = _mulclose(gens, max_elements)

    order = len(els)
    central = 0
    for el in els.values():
        if all(el.compose(a) == a.compose(el) for a in actions):
            central += 1
    projective_order = order // central
    return {
        "n": n,
        "imageOrder": order,
        "centerOrder": central,
        "projectiveOrder": projective_order,
        "generatorOrders": [a.order() for a in actions],
        "centralWordCount": len(center(n)),
        "formulaEstimate": order_formula_estimate(n),
        "conclusive": True,
    }


def order_formula_estimate(n: int) -> int:
    """(1/3) * 2^((n-1)(n-2)/2) * prod_{i=1}^{n-1} (2^i - (-1)^i), rounded."""
    prod = 1
    for i in range(1, n):
        prod *= 2**i - (-1) ** i
    return (2 ** ((n - 1) * (n - 2) // 2) * prod) // 3


def left_regular_matrix(i: int, n: int) -> list[list[Scalar]]:
    """Matrix of left multiplication by s_i on the word basis."""
    size = word_count(n)
    s = braid_generator(n, i)
    mat = [[ZERO] * size for _ in range(size)]
    for col in range(size):
        prod = s * AlgebraElement.from_word(Word.from_index(n, col))
        for w, c in prod.terms.items():
            mat[w.index][col] = c
    return mat


def left_regular_determinant(i: int, n: int) -> Scalar:
    """det of left multiplication by s_i; a 6th root of unity."""
    if n > 4:
        raise ValueError("left-regular determinant supported for n <= 4")
    return exact_determinant(left_regular_matrix(i, n))
