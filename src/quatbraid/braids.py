"""Braid words, their image in the sign algebra, and the closed-braid invariant.

A braid word on n strands is a sequence of nonzero integers: letter +i is the
i-th positive crossing, -i its inverse.  The invariant of the closure is

    I(beta) = 2^(n-1) * zeta^(-2e) * Tr(image of beta)

where e is the exponent sum.  The per-strand factor 2 and per-crossing factor
zeta^-2 are forced by Markov invariance: a positive (negative) stabilization
multiplies the trace by (zeta-1)/2 (by (1-zeta)/(2 zeta)), and the product of
those two multipliers is 1/4 while appending a crossing shifts e by one.  The
normalization makes I(unknot) = 1.

`invariant` never leaves the integers.  s_i = c T_i and s_i^-1 = c' (2 - T_i)
with T_i = 1 + u_i + v_i + u_i v_i integral, c = zeta^2/2 and c' = zeta^4/2.
A word with p positive and m negative letters (L = p + m, e = p - m) has
image c^p c'^m P, P the integer product of its T_i and 2 - T_i, and the phase
cancels: zeta^(-2e) c^p c'^m = zeta^(6m) / 2^L = 2^-L.  So

    I(beta) = 2^(n-1-L) Tr(P) = 2^(n-1-L+k) t,

where `intspan.t_word_trace` returns Tr(P) = 2^k t (t odd), applying each letter by
`intspan.letter`, the package's one integer form of a letter.  The product
lives on the strands the word braids, relabelled to 1..; each further strand
is a split unknot and contributes its factor 2 through n.  Within those, each
letter runs in the strand-prefix algebra A_m (m - 1 the largest |letter| so
far), whose words are the block of the larger algebra's words with no bit at or
above m - 1, where the larger tables restrict to the A_m ones.  So a
stabilization's last letter alone runs on the added strand's 4 times larger vector.
A stabilization of beta is beta's word and that one letter, so
`markov_move_test` builds beta's `intspan.t_word_state` once and extends it by
each stabilizing letter alone.

`closed_form` is the suite's second route to the same value:

    I(beta) = (-1)^(c-1) (-2)^nu,

with c = `components`, the cycles of the letters' transpositions, and
nu = `cover.burau_nullity`, the F4-nullity of B(w) - I for the reduced Burau
matrix at a cube root of unity w (row vectors, letter matrices multiplied left
to right, -t = t, sigma_i^-1 the F4 inverse; when 3 | n, stabilized once
first, since det(I - B(t)) = [n]_t Delta(t) (Birman 1974) and [n]_w = 0).  It
has the shape of Lickorish-Millett's V_L(e^(i pi/3)) (1986).  It is a finding
the tests pin on random words, not a theorem proved here.  `evaluate`, the
image as an `AlgebraElement` over Q(zeta), is a third route that only the
tests run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from quatbraid import cover, intspan
from quatbraid.algebra import AlgebraElement
from quatbraid.hecke import braid_generator, braid_generator_inverse
from quatbraid.scalar import Scalar

# The most strands a word may braid (largest minus smallest |letter|, plus 2):
# `invariant` works on vectors of at most 4^(n-1) entries with ~1 MB of table per
# generator at 8; the -i tables share the sources of +i and add 0.5 MB of signs
# each.  A letter runs in the smallest strand prefix m <= n that holds the vector,
# so the tables of every m <= n are cached, less than a third more than n's alone.
MAX_BRAIDED_STRANDS = 8
# The most strands in all: the unlink on n strands has normSq 4^(n-1), which at
# 4096 prints in 2466 digits, inside Python's 4300-digit int-to-str limit.
MAX_STRANDS = 4096


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        # Letters come as tuples or lists, never generators: tuple() of a
        # generator over-allocates and leaves a block on CPython's tuple free
        # lists each call, so memory grows over many braids.
        object.__setattr__(self, "letters", tuple(self.letters))
        if type(self.strands) is not int or self.strands < 1:
            raise ValueError(f"need a positive integer strand count, got {self.strands!r}")
        for a in self.letters:
            if type(a) is not int or a == 0 or abs(a) > self.strands - 1:
                raise ValueError(f"letter {a!r} invalid on {self.strands} strands")

    @property
    def exponent_sum(self) -> int:
        return sum(1 if a > 0 else -1 for a in self.letters)

    def inverse(self) -> BraidWord:
        return BraidWord(self.strands, [-a for a in reversed(self.letters)])

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


def braided_span(beta: BraidWord) -> tuple[int, int]:
    """(shift, braided): with each |letter| less shift, the word braids strands 1..braided."""
    if beta.strands > MAX_STRANDS:
        raise ValueError(f"the invariant supports at most {MAX_STRANDS} strands, got {beta.strands}")
    used = set(map(abs, beta.letters))
    low = min(used, default=1)
    braided = max(used, default=0) - low + 2
    if braided > MAX_BRAIDED_STRANDS:
        raise ValueError(
            f"the word braids {braided} strands; the invariant supports at most {MAX_BRAIDED_STRANDS}"
        )
    return low - 1, braided


def invariant(beta: BraidWord) -> Scalar:
    """I(beta) = 2^(n-1) zeta^(-2e) Tr(image of beta), exactly, over the integers."""
    return _word_state(beta)[1]


def _relabel(letters, shift: int) -> list[int]:
    """The letters with each |letter| less shift."""
    return [a - shift if a > 0 else a + shift for a in letters]


def _from_trace(beta: BraidWord, trace: tuple[int, int]) -> Scalar:
    """I(beta) = 2^(n-1-L+k) t from (t, k), the `intspan.t_word_trace` of its relabelled word."""
    t, k = trace
    e = beta.strands - 1 - len(beta.letters) + k
    return Scalar.of(t << e if e >= 0 else Fraction(t, 1 << -e))


def _word_state(beta: BraidWord) -> tuple[tuple, Scalar]:
    """beta's `intspan.t_word_state`, of its letters relabelled as in `invariant`, and I(beta) read off it."""
    shift, braided = braided_span(beta)
    state = intspan.t_word_state(braided, _relabel(beta.letters, shift))
    return state, _from_trace(beta, intspan.t_word_trace(braided, [], state))


def _stabilized(beta: BraidWord, sign: int, state: tuple) -> Scalar:
    """I(beta.stabilize(sign)) from beta's state (`_word_state`).

    The stabilized word is beta's word and one letter, relabelled by the same
    shift (for an empty beta the state is the empty word's at any shift), so
    its trace is the state extended by that letter alone.  `braided_span`
    still checks the stabilized word, so it raises where `invariant` would.
    """
    stab = beta.stabilize(sign)
    shift, braided = braided_span(stab)
    return _from_trace(stab, intspan.t_word_trace(braided, _relabel(stab.letters[-1:], shift), state))


def components(beta: BraidWord) -> int:
    """The number of components of the closure: the cycles of the letters' transpositions."""
    perm = list(range(beta.strands))
    for a in beta.letters:
        i = abs(a)
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    seen, cycles = [False] * beta.strands, 0
    for start in range(beta.strands):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j], j = True, perm[j]
    return cycles


def closed_form(beta: BraidWord) -> Scalar:
    """(-1)^(c-1) (-2)^nu, c = `components`, nu = `cover.burau_nullity`: equal to
    `invariant` on every braid tried (a finding the tests pin, not a theorem)."""
    return Scalar.of((-1) ** (components(beta) - 1) * (-2) ** cover.burau_nullity(beta))


def random_braid(rng: random.Random, max_strands: int = 5, max_length: int = 12) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(0, max_length)
    return BraidWord(n, [rng.choice([-1, 1]) * rng.randint(1, n - 1) for _ in range(length)])


def markov_move_test(beta: BraidWord, trials: int = 20, seed: int = 0) -> dict:
    """Exact invariance of I under random conjugations and both stabilizations.

    beta's T-word state is built once (`_word_state`): it gives I(beta), and each stabilization
    extends it by its one letter (`_stabilized`)."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    state, base = _word_state(beta)
    failures = []
    for t in range(trials):
        glen = rng.randint(1, 6) if beta.strands >= 2 else 0  # one strand has no letters
        letters = [rng.choice([-1, 1]) * rng.randint(1, beta.strands - 1) for _ in range(glen)]
        gamma = BraidWord(beta.strands, letters)
        conj = beta.conjugate_by(gamma)
        if invariant(conj) != base:
            failures.append({"move": "conjugation", "trial": t, "gamma": list(gamma.letters)})
    for sign in (1, -1):
        if _stabilized(beta, sign, state) != base:
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
