"""Braid words, their image in the sign algebra, and the closed-braid invariant.

A braid word on n strands is a sequence of nonzero integers: letter +i is the
i-th positive crossing, -i its inverse.  The invariant of the closure is

    I(beta) = 2^(n-1) * zeta^(-2e) * Tr(image of beta)

where e is the exponent sum.  The per-strand factor 2 and per-crossing factor
zeta^-2 are forced by Markov invariance: a positive (negative) stabilization
multiplies the trace by (zeta-1)/2 (by (1-zeta)/(2 zeta)), and the product of
those two multipliers is 1/4 while appending a crossing shifts e by one.  The
normalization makes I(unknot) = 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from quatbraid.algebra import AlgebraElement
from quatbraid.hecke import braid_generator, braid_generator_inverse
from quatbraid.scalar import Scalar, qpow


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.strands < 1:
            raise ValueError(f"need at least one strand, got {self.strands}")
        for a in self.letters:
            if a == 0 or abs(a) > self.strands - 1:
                raise ValueError(f"letter {a} invalid on {self.strands} strands")

    @property
    def exponent_sum(self) -> int:
        return sum(1 if a > 0 else -1 for a in self.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.strands, tuple(-a for a in reversed(self.letters)))

    def conjugate_by(self, gamma: BraidWord) -> BraidWord:
        if gamma.strands != self.strands:
            raise ValueError("conjugator must live on the same strand count")
        return BraidWord(self.strands, gamma.letters + self.letters + gamma.inverse().letters)

    def stabilize(self, sign: int = 1) -> BraidWord:
        """Add a strand and append sigma_n^(+/-1); the closure is unchanged."""
        n = self.strands + 1
        return BraidWord(n, self.letters + ((n - 1) if sign > 0 else -(n - 1),))


def evaluate(beta: BraidWord) -> AlgebraElement:
    """Image of the braid word in the sign algebra (product of generators)."""
    n = beta.strands
    out = AlgebraElement.one(n)
    for a in beta.letters:
        g = braid_generator(n, a) if a > 0 else braid_generator_inverse(n, -a)
        out = out * g
    return out


def invariant(beta: BraidWord) -> Scalar:
    e = beta.exponent_sum
    tr = evaluate(beta).trace()
    return tr.scale(2 ** (beta.strands - 1)) * qpow(-2 * e)


def random_braid(rng: random.Random, max_strands: int = 5, max_length: int = 12) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(0, max_length)
    letters = tuple(rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length))
    return BraidWord(n, letters)


def markov_move_test(beta: BraidWord, trials: int = 20, seed: int = 0) -> dict:
    """Exact invariance of I under random conjugations and both stabilizations."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    base = invariant(beta)
    failures = []
    for t in range(trials):
        glen = rng.randint(1, 6)
        gamma = BraidWord(
            beta.strands,
            tuple(
                rng.choice([-1, 1]) * rng.randint(1, max(beta.strands - 1, 1))
                for _ in range(glen)
            )
            if beta.strands >= 2
            else (),
        )
        conj = beta.conjugate_by(gamma)
        if invariant(conj) != base:
            failures.append({"move": "conjugation", "trial": t, "gamma": list(gamma.letters)})
    for sign in (1, -1):
        if invariant(beta.stabilize(sign)) != base:
            failures.append({"move": "stabilization", "sign": sign})
    return {
        "strands": beta.strands,
        "word": list(beta.letters),
        "invariant": base.to_json(),
        "trials": trials,
        "seed": seed,
        "pass": not failures,
        "failures": failures,
    }
