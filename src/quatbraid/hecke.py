"""Braid generators inside the sign algebra and the checks that pin them down.

The generator attached to position i is

    s_i = (-1/(2 zeta)) (1 + u_i + v_i + u_i v_i) = (zeta^2/2) T_i

with inverse (zeta^4/2)(2 - T_i) and idempotent f_i = (zeta - s_i)/(1 + zeta),
built here over Q(zeta) as the tests' reference.  The checks of the braid,
quadratic and idempotent relations take each relation times a constant, so
that only 2 s_i, 2 s_i^-1 and F_i = 2(1 + zeta) f_i = 2 zeta - 2 s_i occur.
They apply the integer letters T_i and 2 - T_i of `intspan.letter` to Z[zeta]
vectors: int64 arrays v of shape (2, 4^(n-1)) holding v[0] + zeta v[1] on the
word basis.  The Markov property reduces to two integer identities,
Tr(T_{n-1} b) = Tr(b) = Tr(b T_{n-1}) on the words b of the first n-2
positions (derived at `verify_markov`), checked on integer unit rows.
The dimension of the subalgebra the s_i generate comes from exact span
closure over the integers: the Q(zeta)-dimension of a span of rational
vectors is their Q-rank.  The s_1 conjugation check reads `image_group`'s table.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from quatbraid import intspan
from quatbraid.algebra import AlgebraElement, Word, quad_words, word_count
from quatbraid.scalar import ONE, Scalar, ZETA, times_zeta

# s_i = S_COEFF T_i and s_i^-1 = _SINV_COEFF (1 - u_i - v_i - u_i v_i), with
# S_COEFF = -1/(2 zeta) = (zeta - 1)/2 and _SINV_COEFF = -zeta/2
S_COEFF = Scalar.of(Fraction(-1, 2), Fraction(1, 2))
_SINV_COEFF = Scalar.of(0, Fraction(-1, 2))
MAX_DIMENSION_N = 6  # the largest n subalgebra_dimension supports


def _quad_span(n: int, i: int, coeff: Scalar, signs: tuple[int, int, int, int]) -> AlgebraElement:
    """coeff * (a + b*u_i + c*v_i + d*u_i v_i) with a..d in {+1,-1}."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    return AlgebraElement(
        n, {w: coeff if sg > 0 else -coeff for w, sg in zip(quad_words(n, i), signs)}
    )


def braid_generator(n: int, i: int) -> AlgebraElement:
    return _quad_span(n, i, S_COEFF, (1, 1, 1, 1))


def braid_generator_inverse(n: int, i: int) -> AlgebraElement:
    return _quad_span(n, i, _SINV_COEFF, (1, -1, -1, -1))


def idempotent(n: int, i: int) -> AlgebraElement:
    """f_i = (zeta - s_i)/(1 + zeta); satisfies f_i^2 = f_i."""
    q = ZETA
    s = braid_generator(n, i)
    num = AlgebraElement.scalar(n, q) - s
    return num.scale((ONE + q).inverse())


# --- the checks, on Z[zeta] vectors ------------------------------------------

def _zeta(v, k: int = 1):
    """zeta^k v: the one rule `times_zeta` applied k times to the pair, then one array."""
    a, b = v
    for _ in range(k):
        a, b = times_zeta(a, b)
    return np.array((a, b))


def _generators(n: int, i: int):
    """The maps v -> v (2 s_i) = zeta^2 v T_i, v (2 s_i^-1) = zeta^4 v (2 - T_i) and v F_i."""
    letter = functools.partial(intspan.letter, n=n)
    return (lambda v: _zeta(letter(v, a=i), 2), lambda v: _zeta(letter(v, a=-i), 4),
            lambda v: 2 * _zeta(v) - _zeta(letter(v, a=i), 2))


def _words(n: int, indices: list[int]):
    """The basis words at indices as one stack of vectors, shape (2, len(indices), 4^(n-1))."""
    stack = np.zeros((2, len(indices), word_count(n)), dtype=np.int64)
    stack[0, np.arange(len(indices)), indices] = 1
    return stack


def _entry(relation: str, indices, ok) -> dict:
    return {"relation": relation, "indices": list(indices), "pass": bool(ok)}


def verify_relations(n: int) -> list[dict]:
    """Check the braid, quadratic and idempotent relations exactly.

    Returns one report entry per relation instance; failures are entries with
    pass=False, never exceptions.  Scaled by 8: B1, B2, cube; by 4: E1, inverse;
    by 4(1+zeta)^2: H1; by 8(1+zeta)^3: H3, where f_i has coefficient zeta/(1+zeta)^2.
    At n = 2 only E1, inverse, cube and H1 occur.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    s, s_inv, f = zip(*(_generators(n, i) for i in range(1, n)))
    one, far = _words(n, [0])[:, 0], [(i, j) for i in range(n - 1) for j in range(i + 2, n - 1)]
    report = []

    def prod(*factors):
        return functools.reduce(lambda v, g: g(v), factors, one)

    def check(relation, indices, lhs, rhs):
        report.append(_entry(relation, indices, np.array_equal(lhs, rhs)))

    for i in range(n - 2):
        check("B1", (i + 1,), prod(s[i], s[i + 1], s[i]), prod(s[i + 1], s[i], s[i + 1]))
    for i, j in far:
        check("B2", (i + 1, j + 1), prod(s[i], s[j]), prod(s[j], s[i]))
    for i in range(n - 1):
        quad = s[i](one) - 2 * _zeta(one)
        check("E1", (i + 1,), s[i](quad) + 2 * quad, 0 * one)
        check("inverse", (i + 1,), prod(s[i], s_inv[i]), 4 * one)
        check("cube=-1", (i + 1,), prod(s[i], s[i], s[i]), -8 * one)
    for i in range(n - 1):
        check("H1", (i + 1,), prod(f[i], f[i]), 2 * (f[i](one) + _zeta(f[i](one))))
    for i, j in far:
        check("H2", (i + 1, j + 1), prod(f[i], f[j]), prod(f[j], f[i]))
    for i in range(n - 2):
        check("H3", (i + 1,), prod(f[i], f[i + 1], f[i]) - 4 * _zeta(f[i](one)),
              prod(f[i + 1], f[i], f[i + 1]) - 4 * _zeta(f[i + 1](one)))
    return report


def verify_conjugation_table(n: int) -> list[dict]:
    """Match the codes of `image_group.conjugation_action(1, n)`, the table the BFS reads,
    against the closed-form table for nearby generators.  Like enumerate_group, raises
    NotASignedWordError if a conjugate is not a signed word (only with a corrupt T_1)."""
    from quatbraid import image_group  # not at the top: image_group imports S_COEFF from here
    if n < 3:
        raise ValueError("need n >= 3")
    codes = image_group.conjugation_action(1, n).codes

    def w(eps, nu):  # the index of the word with these u- and v-masks
        return Word(n, eps, nu).index

    # (name, x, s_1^-1 x s_1 up to sign, that sign)
    expected = [
        ("u1", w(1, 0), w(1, 1), 1),          # -> u1 v1
        ("v1", w(0, 1), w(1, 0), 1),          # -> u1
        ("u2", w(2, 0), w(2, 1), 1),          # -> u2 v1
        ("v2", w(0, 2), w(1, 3), -1),         # -> -u1 v1 v2
    ]
    if n >= 4:
        expected += [("u3", w(4, 0), w(4, 0), 1), ("v3", w(0, 4), w(0, 4), 1)]
    return [_entry("conjugation", [name], codes[x] == 2 * image + (sign < 0)) for name, x, image, sign in expected]


def markov_scaling_constants() -> tuple[Scalar, Scalar]:
    """Trace multipliers for appending s_{n-1} resp. its inverse: ((q-1)/2, (1-q)/(2q))."""
    q = ZETA
    half = Scalar.of(Fraction(1, 2))
    return (q - ONE) * half, (ONE - q) * half / q


def verify_markov(n: int) -> list[dict]:
    """The Markov property of the trace as Tr(T b) = Tr(b) = Tr(b T), with T = T_{n-1}
    and s = s_{n-1} = (zeta^2/2) T, for every word b in the first n-2 positions.

    Tr is the coefficient of the unit, at index 0.  F = 2(1 + zeta) f_{n-1} =
    2 zeta - zeta^2 T, so Tr(f_{n-1} b) = (1/2) Tr(b), times 2(1 + zeta), reads
    Tr(F b) = (1 + zeta) Tr(b), i.e. zeta^2 Tr(T b) = (zeta - 1) Tr(b); as
    zeta^2 = zeta - 1 it holds exactly when Tr(T b) = Tr(b) (`markov-span`).
    The constants z+- of `markov_scaling_constants` have 2 z+ = zeta - 1 = zeta^2
    and 2 z- = -zeta = zeta^4, so Tr(b (2 s)) = zeta^2 Tr(b T) = 2 z+ Tr(b) and
    Tr(b (2 s^-1)) = zeta^4 (2 Tr(b) - Tr(b T)) = 2 z- Tr(b) both hold exactly
    when Tr(b T) = Tr(b) (`markov-scaling`).  Both sides are linear in b, so the
    words (unit rows, intspan.BLOCK_ROWS to one `letter` call) stand for the whole sub-strand algebra.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    sub = range(1 << (n - 2))
    words, step = [Word(n, e, v).index for e in sub for v in sub], intspan.BLOCK_ROWS
    blocks = [_words(n, words[k:k + step])[0] for k in range(0, len(words), step)]

    def fixed(left: bool) -> bool:
        return all(np.array_equal(intspan.letter(rows, n, n - 1, left)[:, 0], rows[:, 0]) for rows in blocks)

    return [_entry("markov-span", [len(words)], fixed(True)), _entry("markov-scaling", ["z+", "z-"], fixed(False))]


# --- exact span closure -----------------------------------------------------

def subalgebra_dimension(n: int) -> int:
    """Dimension of the unital subalgebra generated by the braid generators.

    The closure runs over the integers and is exact.  s_i = c T_i with the
    unit c = -1/(2 zeta) and T_i = 1 + u_i + v_i + u_i v_i, so a product of
    generators is a unit times a product of T's, and the Q(zeta)-span of the
    s-words equals the Q(zeta)-span of the T-words.  Those have integer
    coordinates on the word basis, and a set of rational vectors has the same
    rank over Q(zeta) as over Q (Gaussian elimination never leaves the field
    of the entries).  So the dimension is the Q-rank of the T-words, which
    `intspan.t_word_rank` computes round by round with batched elimination over
    Z, entries below 2^31 and matrix products below 2^62 (else OverflowError).
    """
    if not 2 <= n <= MAX_DIMENSION_N:
        raise ValueError(f"supported range is 2 <= n <= {MAX_DIMENSION_N}")
    return intspan.t_word_rank(n)
