"""Braid generators inside the sign algebra and the checks that pin them down.

The generator attached to position i is

    s_i = (-1/(2 zeta)) (1 + u_i + v_i + u_i v_i) = (zeta^2/2) T_i

with inverse (zeta^4/2)(2 - T_i), built here over Q(zeta) as the tests'
reference.  Every check is an integer identity of T_i and 2 - T_i, the letters
+i and -i of `intspan.letter`, on integer unit rows; no check holds a Z[zeta]
vector.  The braid, quadratic and idempotent relations, each times a constant,
have 1- and zeta-parts that are such identities on the unit row of 1 (derived
at `verify_relations`).  The Markov property reduces to Tr(T_{n-1} b) = Tr(b)
= Tr(b T_{n-1}) on the words b of the first n-2 positions, read off row 0 of
the T_{n-1} tables (derived at `verify_markov`).
The dimension of the subalgebra the s_i generate comes from exact span
closure over the integers: the Q(zeta)-dimension of a span of rational
vectors is their Q-rank.  The s_1 conjugation check reads `image_group`'s table.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from quatbraid import intspan
from quatbraid.algebra import AlgebraElement, Word, quad_words, word_count
from quatbraid.scalar import Scalar

# s_i = S_COEFF T_i and s_i^-1 = _SINV_COEFF (1 - u_i - v_i - u_i v_i), with
# S_COEFF = -1/(2 zeta) = (zeta - 1)/2 and _SINV_COEFF = -zeta/2
S_COEFF = Scalar.of(Fraction(-1, 2), Fraction(1, 2))
_SINV_COEFF = Scalar.of(0, Fraction(-1, 2))
MAX_DIMENSION_N = 8  # the largest n subalgebra_dimension supports


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


# --- the checks, as integer identities of T_i on unit rows ----------------------

def _entry(relation: str, indices, ok) -> dict:
    return {"relation": relation, "indices": list(indices), "pass": bool(ok)}


def verify_relations(n: int) -> list[dict]:
    """Check the braid, quadratic and idempotent relations exactly, as integer
    identities of T = T_i and 2 - T_i (letters +i and -i) on the unit row of 1.

    Returns one report entry per relation instance; failures are entries with
    pass=False, never exceptions.  Each relation is scaled so that only
    2 s = zeta^2 T, 2 s^-1 = zeta^4 (2 - T) and F = 2(1 + zeta) f = 2 zeta - 2 s
    = zeta^2 (a - T) occur, a = 2 zeta^-1 = 2 - 2 zeta: by 8 B1, B2 and cube, by
    4 E1 and inverse, by 4(1 + zeta)^2 H1, by 8(1 + zeta)^3 H3, where f_i has
    coefficient zeta/(1 + zeta)^2.  Since zeta^6 = 1, each scaled difference
    is a zeta-multiple of one integer difference, or for H3 p + q zeta with
    integer differences p and q; 1 and zeta are independent over Q, so:
    B1: (2s_i)(2s_j)(2s_i) - (2s_j)(2s_i)(2s_j) = T_i T_j T_i - T_j T_i T_j, j = i + 1;
    B2: (2s_i)(2s_j) - (2s_j)(2s_i) = zeta^4 (T_i T_j - T_j T_i), |i - j| >= 2;
    E1: (2s - 2 zeta)(2s + 2) = zeta^4 (T^2 - 2T + 4);
    inverse: (2s)(2s^-1) - 4 = T(2 - T) - 4;  cube: (2s)^3 + 8 = T^3 + 8;
    H1: F^2 - 2(1 + zeta) F = zeta^4 (T^2 - 2T + 4), the same identity as E1;
    H2: F_i F_j - F_j F_i = zeta^4 (T_i T_j - T_j T_i), the same as B2;
    H3: (F_i F_j F_i - 4 zeta F_i) - (F_j F_i F_j - 4 zeta F_j)
        = a (T_i^2 - 2T_i - T_j^2 + 2T_j) - (T_i T_j T_i - T_j T_i T_j), j = i + 1,
    zero exactly when B1 holds and T_i^2 - 2T_i = T_j^2 - 2T_j.
    These expansions use no relation among the T_i, so they hold for whatever
    the tables compute, and a wrong table fails the same entries as the scaled
    relations would.  At n = 2 only E1, inverse, cube and H1 occur.  The words
    share prefixes (T_i T_j T_i begins T_i T_j, T_i^3 begins T_i^2 and T_i),
    so each distinct prefix is applied once per call, from the longest prefix
    already computed; no product is kept past the call.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    one = np.zeros(word_count(n), dtype=np.int64)
    one[0] = 1
    products = {(): one}  # 1 times each word computed so far, left to right

    def prod(*letters):  # from the longest computed prefix, one letter at a time
        known = len(letters)
        while letters[:known] not in products:
            known -= 1
        vec = products[letters[:known]]
        for j in range(known, len(letters)):  # 1 times j letters is at most 4^j
            vec = products[letters[:j + 1]] = intspan.letter(vec, n, letters[j], bound=4**j)
        return vec

    gens, far = range(1, n), [(i, j) for i in range(1, n) for j in range(i + 2, n)]
    braid = {i: np.array_equal(prod(i, i + 1, i), prod(i + 1, i, i + 1)) for i in range(1, n - 1)}
    commute = {p: np.array_equal(prod(*p), prod(*p[::-1])) for p in far}
    quad = {i: prod(i, i) - 2 * prod(i) for i in gens}  # T_i^2 - 2 T_i
    square = {i: np.array_equal(quad[i], -4 * one) for i in gens}
    report = [_entry("B1", (i,), ok) for i, ok in braid.items()]
    report += [_entry("B2", p, ok) for p, ok in commute.items()]
    for i in gens:
        report += [_entry("E1", (i,), square[i]),
                   _entry("inverse", (i,), np.array_equal(prod(i, -i), 4 * one)),
                   _entry("cube=-1", (i,), np.array_equal(prod(i, i, i), -8 * one))]
    report += [_entry("H1", (i,), square[i]) for i in gens]
    report += [_entry("H2", p, ok) for p, ok in commute.items()]
    report += [_entry("H3", (i,), ok and np.array_equal(quad[i], quad[i + 1])) for i, ok in braid.items()]
    return report


def verify_conjugation_table(n: int) -> list[dict]:
    """Match the codes of `image_group.conjugation_action(1, n)`, the cached table the BFS
    reads, against the closed-form table for nearby generators.  Like enumerate_group, raises
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


def verify_markov(n: int) -> list[dict]:
    """The Markov property of the trace as Tr(T b) = Tr(b) = Tr(b T), with T = T_{n-1}
    and s = s_{n-1} = (zeta^2/2) T, for every word b in the first n-2 positions.

    Tr is the coefficient of the unit, at index 0.  F = 2(1 + zeta) f_{n-1} =
    2 zeta - zeta^2 T, so Tr(f_{n-1} b) = (1/2) Tr(b), times 2(1 + zeta), reads
    Tr(F b) = (1 + zeta) Tr(b), i.e. zeta^2 Tr(T b) = (zeta - 1) Tr(b); as
    zeta^2 = zeta - 1 it holds exactly when Tr(T b) = Tr(b) (`markov-span`).
    The trace multipliers z+ = (zeta - 1)/2 of s and z- = (1 - zeta)/(2 zeta) =
    -zeta/2 of s^-1 have 2 z+ = zeta^2 and 2 z- = zeta^4, so
    Tr(b (2 s)) = zeta^2 Tr(b T) = 2 z+ Tr(b) and
    Tr(b (2 s^-1)) = zeta^4 (2 Tr(b) - Tr(b T)) = 2 z- Tr(b) both hold exactly
    when Tr(b T) = Tr(b) (`markov-scaling`).  Both sides are linear in b, so the
    words b = eps 2^(n-1) + nu, eps, nu < 2^(n-2), stand for the sub-strand algebra.
    Row 0 is the whole computation: only the row of target 0 reaches the trace, so
    Tr(b T) = sum_k signs[0, k] [sources[0, k] = b] on the right `intspan.t_action`
    table (Tr(T b) on the left one), one scatter for every b at once.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    sub = np.arange(1 << (n - 2))
    words = ((sub[:, None] << (n - 1)) | sub).ravel()

    def fixed(left: bool) -> bool:
        sources, signs = intspan.t_action(n, n - 1, left)
        trace = np.zeros(word_count(n), dtype=np.int64)
        np.add.at(trace, sources[0], signs[0])
        return np.array_equal(trace[words], words == 0)

    return [_entry("markov-span", [len(words)], fixed(True)), _entry("markov-scaling", ["z+", "z-"], fixed(False))]


# --- exact span closure -----------------------------------------------------

def subalgebra_dimension(n: int) -> int:
    """Dimension of the unital subalgebra generated by the braid generators
    on n strands: the last of `subalgebra_dimensions(n)`."""
    return subalgebra_dimensions(n)[-1]


def subalgebra_dimensions(n_max: int) -> list[int]:
    """Dimensions of the unital subalgebras generated by the braid generators
    on n = 2..n_max strands, in that order, from one span closure.

    The closure runs over the integers and is exact.  s_i = c T_i with the
    unit c = -1/(2 zeta) and T_i = 1 + u_i + v_i + u_i v_i, so a product of
    generators is a unit times a product of T's, and the Q(zeta)-span of the
    s-words equals the Q(zeta)-span of the T-words.  Those have integer
    coordinates on the word basis, and a set of rational vectors has the same
    rank over Q(zeta) as over Q (Gaussian elimination never leaves the field
    of the entries).  So the dimension is the Q-rank of the T-words, which
    `intspan.t_word_ranks` computes through the strand prefixes 2..n_max by an
    exact sparse elimination over Z in Python ints, on rows multiplied by
    T_c term by term with the word sign rule; the rank after stage n is the
    dimension for n strands.  Each step of a stage multiplies only the rows
    W_k the step before added, by the next Hecke coset letter T_c:
    S_(k+1) = S_k + W_k T_c for the spans S_k after k steps
    (`intspan._t_word_basis`), exact given B1, B2 and E1.  So every entry of
    `verify_relations(n_max)` must pass first (the tables on fewer strands are
    restrictions of these); RuntimeError names any that fails.
    """
    if not 2 <= n_max <= MAX_DIMENSION_N:
        raise ValueError(f"supported range is 2 <= n <= {MAX_DIMENSION_N}")
    failed = [f"{e['relation']}{e['indices']}" for e in verify_relations(n_max) if not e["pass"]]
    if failed:
        raise RuntimeError(f"span closure needs the Hecke relations; failed: {', '.join(failed)}")
    return intspan.t_word_ranks(n_max)[1:]
