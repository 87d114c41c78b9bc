"""Word products, the sign rule, trace, and the center of the sign algebra."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from quatbraid.algebra import (
    AlgebraElement,
    Word,
    center,
    mul_words,
    word_count,
)
from quatbraid.scalar import ONE, Scalar, ZETA


def W(n, eps=0, nu=0):
    return Word(n, eps, nu)


# --- rewriting oracle --------------------------------------------------------
#
# Multiply symbol strings by brute-force bubble rewriting: u's commute with
# u's, v's with v's, u_i and v_j anticommute iff |i-j| <= 1, and any square
# contributes -1 and vanishes.  Slow but derived directly from the relations.

def _to_symbols(w: Word):
    syms = [("u", i) for i in range(w.n - 1) if (w.eps >> i) & 1]
    syms += [("v", i) for i in range(w.n - 1) if (w.nu >> i) & 1]
    return syms


def _oracle_normalize(syms, n):
    sign = 1
    syms = list(syms)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(syms):
            a, b = syms[i], syms[i + 1]
            if a == b:
                del syms[i : i + 2]
                sign = -sign
                changed = True
                i = max(i - 1, 0)
                continue
            if a > b:  # ('u', i) sorts before ('v', j); same kind sorts by index
                if a[0] != b[0] and abs(a[1] - b[1]) <= 1:
                    sign = -sign
                syms[i], syms[i + 1] = b, a
                changed = True
            i += 1
    eps = nu = 0
    for kind, idx in syms:
        if kind == "u":
            eps |= 1 << idx
        else:
            nu |= 1 << idx
    return sign, Word(n, eps, nu)


def oracle_mul(w1: Word, w2: Word):
    return _oracle_normalize(_to_symbols(w1) + _to_symbols(w2), w1.n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sign_rule_matches_rewriting_oracle(n):
    size = word_count(n)
    rng = random.Random(n)
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(300)]
    if n <= 3:
        pairs = [(i, j) for i in range(size) for j in range(size)]
    for i, j in pairs:
        w1, w2 = Word.from_index(n, i), Word.from_index(n, j)
        assert mul_words(w1, w2) == oracle_mul(w1, w2)


# --- defining relations ------------------------------------------------------

def test_generator_squares():
    u1 = W(2, eps=1)
    assert mul_words(u1, u1) == (-1, W(2))
    v1 = W(2, nu=1)
    assert mul_words(v1, v1) == (-1, W(2))


def test_close_anticommutation():
    v1, u1 = W(4, nu=1), W(4, eps=1)
    assert mul_words(v1, u1) == (-1, W(4, eps=1, nu=1))
    v1, u2 = W(4, nu=1), W(4, eps=2)
    assert mul_words(v1, u2) == (-1, W(4, eps=2, nu=1))


def test_distant_commutation():
    v1, u3 = W(4, nu=1), W(4, eps=4)
    assert mul_words(v1, u3) == (1, W(4, eps=4, nu=1))


def test_quaternion_square():
    uv = W(2, eps=1, nu=1)
    assert mul_words(uv, uv) == (-1, W(2))


def test_every_word_squares_to_signed_identity():
    for n in (2, 3, 4):
        for idx in range(word_count(n)):
            w = Word.from_index(n, idx)
            sign, res = mul_words(w, w)
            assert res.is_identity()
            assert sign in (1, -1)


def test_quaternion_subgroup_table():
    # {1, u1, v1, u1v1} with signs multiplies like the quaternion group
    # under i = u1, j = v1, k = u1 v1 (up to a global sign convention).
    one, i, j, k = W(2), W(2, eps=1), W(2, nu=1), W(2, eps=1, nu=1)
    assert mul_words(i, j) == (1, k)
    assert mul_words(j, i) == (-1, k)
    assert mul_words(i, i) == (-1, one)
    assert mul_words(j, j) == (-1, one)
    assert mul_words(k, k) == (-1, one)
    sgn, w = mul_words(i, k)  # i*k = -j in the quaternions when k = i*j
    assert w == j
    sgn2, w2 = mul_words(k, i)
    assert w2 == j and sgn2 == -sgn


def test_mismatched_strand_counts():
    with pytest.raises(ValueError):
        mul_words(W(2), W(3))
    with pytest.raises(ValueError):
        AlgebraElement.one(2) * AlgebraElement.one(3)


@pytest.mark.parametrize("idx", [100, -1, 16])
def test_from_index_rejects_out_of_range(idx):
    # n = 3 has 16 words; masking the high bits would turn 100 into u1
    with pytest.raises(ValueError, match="out of range"):
        Word.from_index(3, idx)
    assert str(Word.from_index(3, 15)) == "u1u2v1v2"


# --- associativity -----------------------------------------------------------

@settings(max_examples=200)
@given(st.integers(2, 5), st.data())
def test_word_multiplication_associative(n, data):
    size = word_count(n)
    idx = st.integers(0, size - 1)
    a = Word.from_index(n, data.draw(idx))
    b = Word.from_index(n, data.draw(idx))
    c = Word.from_index(n, data.draw(idx))
    s1, ab = mul_words(a, b)
    sl, ab_c = mul_words(ab, c)
    s2, bc = mul_words(b, c)
    sr, a_bc = mul_words(a, bc)
    assert ab_c == a_bc
    assert s1 * sl == s2 * sr


# --- algebra elements and trace ---------------------------------------------

def _random_element(n, rng):
    size = word_count(n)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        w = Word.from_index(n, rng.randrange(size))
        terms[w] = Scalar.of(rng.randint(-3, 3), rng.randint(-3, 3))
    return AlgebraElement(n, terms)


def test_identity_element():
    rng = random.Random(0)
    x = _random_element(3, rng)
    assert AlgebraElement.one(3) * x == x
    assert x * AlgebraElement.one(3) == x


def test_binomial_product():
    # (u1 + v1)(u1 - v1) = -2 u1 v1
    n = 2
    u1 = AlgebraElement(n, {W(n, eps=1): ONE})
    v1 = AlgebraElement(n, {W(n, nu=1): ONE})
    got = (u1 + v1) * (u1 - v1)
    want = AlgebraElement(n, {W(n, eps=1, nu=1): Scalar.of(-2)})
    assert got == want


def test_trace_values():
    assert AlgebraElement.one(3).trace() == ONE
    assert AlgebraElement(3, {W(3, eps=1, nu=2): ONE}).trace() == Scalar.of(0)


def test_trace_is_tracial():
    rng = random.Random(1)
    for n in (2, 3, 4):
        for _ in range(25):
            x, y = _random_element(n, rng), _random_element(n, rng)
            assert (x * y).trace() == (y * x).trace()


# --- center ------------------------------------------------------------------

@pytest.mark.parametrize("n,dim", [(2, 1), (3, 4), (4, 1), (5, 1), (6, 4), (7, 1)])
def test_center_dimension(n, dim):
    assert len(center(n)) == dim


def words_commute(w1: Word, w2: Word) -> bool:
    s1, _ = mul_words(w1, w2)
    s2, _ = mul_words(w2, w1)
    return s1 == s2


def center_brute(n: int) -> list[Word]:
    """Independent check: scan every word for commutation with all generators."""
    gens = [Word(n, 1 << i, 0) for i in range(n - 1)]
    gens += [Word(n, 0, 1 << i) for i in range(n - 1)]
    out = []
    for idx in range(word_count(n)):
        w = Word.from_index(n, idx)
        if all(words_commute(w, g) for g in gens):
            out.append(w)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_center_matches_brute_force(n):
    fast = sorted(w.index for w in center(n))
    brute = sorted(w.index for w in center_brute(n))
    assert fast == brute


def test_center_n3_basis():
    names = sorted(str(w) for w in center(3))
    assert names == ["1", "u1u2", "u1u2v1v2", "v1v2"]


def test_center_n6_mask_pattern():
    # nonidentity central words use positions not divisible by 3: (1,1,0,1,1)
    masks = sorted({w.eps for w in center(6)})
    assert masks == [0, 0b11011]


def test_center_rejects_small_n():
    with pytest.raises(ValueError):
        center(1)
