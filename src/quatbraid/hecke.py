"""Braid generators inside the sign algebra and the checks that pin them down.

The generator attached to position i is

    s_i = (-1/(2 zeta)) (1 + u_i + v_i + u_i v_i)

with inverse (-zeta/2)(1 - u_i - v_i - u_i v_i) and associated idempotent
f_i = (zeta - s_i)/(1 + zeta).  This module verifies the braid and quadratic
relations, the conjugation table of s_1 on nearby generators, the Markov
property of the trace, and computes the dimension of the unital subalgebra
generated by the s_i via exact span closure over the integers: s_i is the
unit -1/(2 zeta) times T_i = 1 + u_i + v_i + u_i v_i, which has integer
coefficients, and the Q(zeta)-dimension of a span of rational vectors is
their Q-rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from quatbraid.algebra import AlgebraElement, Word
from quatbraid.scalar import ONE, Scalar, ZETA

# -1/(2 zeta) = (zeta - 1)/2 and -zeta/2
_S_COEFF = Scalar.of(Fraction(-1, 2), Fraction(1, 2))
_SINV_COEFF = Scalar.of(0, Fraction(-1, 2))


def _quad_span(n: int, i: int, coeff: Scalar, signs: tuple[int, int, int, int]) -> AlgebraElement:
    """coeff * (a + b*u_i + c*v_i + d*u_i v_i) with a..d in {+1,-1}."""
    bit = 1 << (i - 1)
    words = [Word(n, 0, 0), Word(n, bit, 0), Word(n, 0, bit), Word(n, bit, bit)]
    terms = {}
    for w, sg in zip(words, signs):
        terms[w] = coeff if sg > 0 else -coeff
    return AlgebraElement(n, terms)


def braid_generator(n: int, i: int) -> AlgebraElement:
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    return _quad_span(n, i, _S_COEFF, (1, 1, 1, 1))


def braid_generator_inverse(n: int, i: int) -> AlgebraElement:
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    return _quad_span(n, i, _SINV_COEFF, (1, -1, -1, -1))


def idempotent(n: int, i: int) -> AlgebraElement:
    """f_i = (zeta - s_i)/(1 + zeta); satisfies f_i^2 = f_i."""
    q = ZETA
    s = braid_generator(n, i)
    num = AlgebraElement.scalar(n, q) - s
    return num.scale((ONE + q).inverse())


@dataclass
class HeckeGenerators:
    n: int
    s: list[AlgebraElement]
    s_inv: list[AlgebraElement]
    f: list[AlgebraElement]

    @staticmethod
    def build(n: int) -> HeckeGenerators:
        rng = range(1, n)
        return HeckeGenerators(
            n=n,
            s=[braid_generator(n, i) for i in rng],
            s_inv=[braid_generator_inverse(n, i) for i in rng],
            f=[idempotent(n, i) for i in rng],
        )


def _entry(relation: str, indices, ok: bool) -> dict:
    return {"relation": relation, "indices": list(indices), "pass": bool(ok)}


def verify_relations(n: int) -> list[dict]:
    """Check the braid, quadratic and idempotent relations exactly.

    Returns one report entry per relation instance; failures are entries with
    pass=False, never exceptions.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    g = HeckeGenerators.build(n)
    q = ZETA
    one = AlgebraElement.one(n)
    zero = AlgebraElement.zero(n)
    report = []

    for i in range(n - 2):
        lhs = g.s[i] * g.s[i + 1] * g.s[i]
        rhs = g.s[i + 1] * g.s[i] * g.s[i + 1]
        report.append(_entry("B1", (i + 1,), lhs == rhs))
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            report.append(_entry("B2", (i + 1, j + 1), g.s[i] * g.s[j] == g.s[j] * g.s[i]))
    for i in range(n - 1):
        quad = (g.s[i] - AlgebraElement.scalar(n, q)) * (g.s[i] + one)
        report.append(_entry("E1", (i + 1,), quad == zero))
        report.append(_entry("inverse", (i + 1,), g.s[i] * g.s_inv[i] == one))
        cube = g.s[i] * g.s[i] * g.s[i]
        report.append(_entry("cube=-1", (i + 1,), cube == -one))

    for i in range(n - 1):
        report.append(_entry("H1", (i + 1,), g.f[i] * g.f[i] == g.f[i]))
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            report.append(_entry("H2", (i + 1, j + 1), g.f[i] * g.f[j] == g.f[j] * g.f[i]))
    coeff = q / ((ONE + q) * (ONE + q))
    for i in range(n - 2):
        lhs = g.f[i] * g.f[i + 1] * g.f[i] - g.f[i].scale(coeff)
        rhs = g.f[i + 1] * g.f[i] * g.f[i + 1] - g.f[i + 1].scale(coeff)
        report.append(_entry("H3", (i + 1,), lhs == rhs))
    return report


def verify_conjugation_table(n: int) -> list[dict]:
    """Match s_1^-1 x s_1 against the closed-form table for nearby generators."""
    if n < 3:
        raise ValueError("need n >= 3")
    s1 = braid_generator(n, 1)
    s1i = braid_generator_inverse(n, 1)

    def w(eps_bits, nu_bits):
        eps = sum(1 << (i - 1) for i in eps_bits)
        nu = sum(1 << (i - 1) for i in nu_bits)
        return AlgebraElement.from_word(Word(n, eps, nu))

    expected = [
        ("u1", w([1], []), w([1], [1])),          # -> u1 v1
        ("v1", w([], [1]), w([1], [])),           # -> u1
        ("u2", w([2], []), w([2], [1])),          # -> u2 v1
        ("v2", w([], [2]), -w([1], [1, 2])),      # -> -u1 v1 v2
    ]
    if n >= 4:
        expected.append(("u3", w([3], []), w([3], [])))
        expected.append(("v3", w([], [3]), w([], [3])))
    report = []
    for name, x, want in expected:
        got = s1i * x * s1
        report.append({"relation": "conjugation", "indices": [name], "pass": got == want})
    return report


def markov_scaling_constants() -> tuple[Scalar, Scalar]:
    """Trace multipliers for appending s_{n-1} resp. its inverse: ((q-1)/2, (1-q)/(2q))."""
    q = ZETA
    half = Scalar.of(Fraction(1, 2))
    return (q - ONE) * half, (ONE - q) * half / q


def verify_markov(n: int, extra_random: int = 25, seed: int = 7) -> list[dict]:
    """Tr(f_{n-1} b) = (1/2) Tr(b) over a spanning set of the sub-strand algebra.

    The spanning set is every word in the first n-2 positions; a few random
    linear combinations are thrown in on top.
    """
    import random

    if n < 3:
        raise ValueError("need n >= 3")
    f_last = idempotent(n, n - 1)
    half = Scalar.of(Fraction(1, 2))
    report = [
        {
            "relation": "markov-eta",
            "indices": ["Tr(f)"],
            "pass": f_last.trace() == half,
        }
    ]
    sub_mask = (1 << (n - 2)) - 1
    sub_words = [
        Word(n, e, v) for e in range(sub_mask + 1) for v in range(sub_mask + 1)
    ]
    ok_words = all(
        (f_last * AlgebraElement.from_word(w)).trace()
        == half * AlgebraElement.from_word(w).trace()
        for w in sub_words
    )
    report.append({"relation": "markov-span", "indices": [len(sub_words)], "pass": ok_words})

    rng = random.Random(seed)
    pool = [Scalar.of(k) for k in range(-2, 3)] + [ZETA, -ZETA, ZETA * ZETA]
    ok_rand = True
    for _ in range(extra_random):
        k = min(5, len(sub_words))
        b = AlgebraElement(n, {w: rng.choice(pool) for w in rng.sample(sub_words, k)})
        if (f_last * b).trace() != half * b.trace():
            ok_rand = False
    report.append({"relation": "markov-random", "indices": [extra_random], "pass": ok_rand})

    z_pos, z_neg = markov_scaling_constants()
    s_last = braid_generator(n, n - 1)
    s_last_inv = braid_generator_inverse(n, n - 1)
    ok_scale = all(
        (AlgebraElement.from_word(w) * s_last).trace()
        == z_pos * AlgebraElement.from_word(w).trace()
        and (AlgebraElement.from_word(w) * s_last_inv).trace()
        == z_neg * AlgebraElement.from_word(w).trace()
        for w in sub_words
    )
    report.append({"relation": "markov-scaling", "indices": ["z+", "z-"], "pass": ok_scale})
    return report


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
    `intspan.t_word_rank` computes by fraction-free elimination over Z.
    """
    if not 2 <= n <= 6:
        raise ValueError("supported range is 2 <= n <= 6")
    # imported here so that `import quatbraid` does not load numpy
    from quatbraid import intspan

    return intspan.t_word_rank(n)
