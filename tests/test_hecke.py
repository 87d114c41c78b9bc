"""Braid generators, their relations, the Markov property, and span closure."""

import collections
import gc
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatbraid import hecke, image_group, intspan
from quatbraid.algebra import AlgebraElement, Word, index_masks, mul_words, quad_words, sign_bits, word_count
from quatbraid.braids import BraidWord, invariant, markov_move_test, random_braid
from quatbraid.diagrams import hecke_dimension
from quatbraid.hecke import (
    S_COEFF,
    braid_generator,
    braid_generator_inverse,
    subalgebra_dimension,
    subalgebra_dimensions,
    verify_conjugation_table,
    verify_markov,
    verify_relations,
)
from quatbraid.intspan import _embed, _insert, _t_word_basis, _times_t, letter, t_action, t_word_ranks
from quatbraid.scalar import ONE, Scalar, ZETA, qpow


HALF, TWO = Scalar.of(Fraction(1, 2)), Scalar.of(2)


def idempotent(n, i):
    """f_i = (zeta - s_i)/(1 + zeta); satisfies f_i^2 = f_i."""
    return (AlgebraElement.scalar(n, ZETA) - braid_generator(n, i)).scale((ONE + ZETA).inverse())


def markov_scaling_constants():
    """Trace multipliers for appending s_{n-1} resp. its inverse: ((q-1)/2, (1-q)/(2q))."""
    return (ZETA - ONE) * HALF, (ONE - ZETA) * HALF / ZETA


@pytest.mark.parametrize("n", [3, 4, 5])
def test_relations(n):
    report = verify_relations(n)
    failed = [e for e in report if not e["pass"]]
    assert not failed, failed


@pytest.mark.parametrize("n", [3, 4])
def test_conjugation_table(n):
    report = verify_conjugation_table(n)
    assert all(e["pass"] for e in report), report


def test_conjugation_table_reads_the_group_table(monkeypatch):
    # the check reads image_group.conjugation_action: a wrong sign in that
    # table at v2 fails the v2 entry and no other
    action = image_group.conjugation_action

    def flipped(i, n):
        codes = action(i, n).codes.copy()
        codes[Word(n, 0, 2).index] ^= 1
        return image_group.SignedPermutation(n, codes)

    monkeypatch.setattr(image_group, "conjugation_action", flipped)
    report = verify_conjugation_table(3)
    assert [e["indices"] for e in report if not e["pass"]] == [["v2"]]


def test_conjugation_table_raises_on_a_corrupt_t_table(monkeypatch):
    # a wrong sign in the right T_1 table makes the conjugate of u1 no signed word
    def corrupted(n, i, left=False):
        sources, signs = t_action(n, i, left)
        if not left:
            signs = signs.copy()
            signs[0, 1] = -signs[0, 1]
        return sources, signs

    monkeypatch.setattr(intspan, "t_action", corrupted)
    with pytest.raises(image_group.NotASignedWordError, match=r"^conjugate of u1 is not \+-4 times one word$"):
        verify_conjugation_table(3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_generator_cube_is_minus_one(n):
    for i in range(1, n):
        s = braid_generator(n, i)
        assert s * s * s == -AlgebraElement.one(n)


def test_inverse_closed_form():
    n = 2
    s = braid_generator(n, 1)
    s_inv = braid_generator_inverse(n, 1)
    assert s * s_inv == AlgebraElement.one(n)
    assert s_inv * s == AlgebraElement.one(n)
    # -zeta/2 (1 - u1 - v1 - u1v1)
    coeff = Scalar.of(0, Fraction(-1, 2))
    assert s_inv.terms[Word(n, 0, 0)] == coeff
    assert s_inv.terms[Word(n, 1, 0)] == -coeff


def test_generator_trace():
    # constant coefficient of s_i is (zeta - 1)/2
    s = braid_generator(3, 1)
    assert s.trace() == Scalar.of(Fraction(-1, 2), Fraction(1, 2))


def test_idempotent_trace_product():
    # Tr(f2 f1) = Tr(f2) Tr(f1) = 1/4
    f1, f2 = idempotent(3, 1), idempotent(3, 2)
    assert (f2 * f1).trace() == Scalar.of(Fraction(1, 4))
    assert f1.trace() == HALF


@pytest.mark.parametrize("n", range(3, 9))
def test_markov(n):
    report = verify_markov(n)
    assert all(e["pass"] for e in report), report


def _t(n, i):
    """T_i = 1 + u_i + v_i + u_i v_i as an AlgebraElement."""
    return AlgebraElement(n, {w: ONE for w in quad_words(n, i)})


@pytest.mark.parametrize("n", [3, 4])
def test_relation_statements_hold_in_q_zeta(n):
    # verify_relations' docstring: each scaled relation's difference is the stated
    # zeta-multiple of its integer identity's difference.  The expansions use no
    # relation among the T_i, so they are checked with X_i = T_i plus a seeded
    # integer perturbation in place of T_i (the relations themselves then fail),
    # s_i, s_i^-1, f_i built from X_i as the reference builds them from T_i.
    rng = random.Random(n)
    one, a, c = AlgebraElement.one(n), TWO * qpow(-1), lambda k: AlgebraElement.scalar(n, Scalar.of(k))
    s_inv_coeff = ZETA**4 * HALF

    def generators(x):
        s = x.scale(S_COEFF)
        return s.scale(TWO), (c(2) - x).scale(s_inv_coeff * TWO), (one.scale(ZETA) - s).scale(TWO)  # F = 2 zeta - 2 s

    for i in range(1, n):  # generators(T_i) reproduces the reference
        s2, s2_inv, big_f = generators(_t(n, i))
        assert s2 == braid_generator(n, i).scale(TWO) and s2_inv == braid_generator_inverse(n, i).scale(TWO)
        assert big_f == idempotent(n, i).scale(Scalar.of(2, 2))
    def perturbation():
        words = (Word.from_index(n, rng.randrange(word_count(n))) for _ in range(3))
        return AlgebraElement(n, {w: Scalar.of(rng.choice([-2, -1, 1, 2])) for w in words})

    xs = {i: _t(n, i) + perturbation() for i in range(1, n)}
    gens = {i: generators(x) for i, x in xs.items()}
    for i, x in xs.items():
        s2, s2_inv, big_f = gens[i]
        quad = x * x - x.scale(TWO) + c(4)  # T^2 - 2T + 4
        assert quad != AlgebraElement(n)
        assert (s2 - one.scale(TWO * ZETA)) * (s2 + c(2)) == quad.scale(qpow(4))  # E1
        assert s2 * s2_inv - c(4) == x * (c(2) - x) - c(4)  # inverse
        assert s2 * s2 * s2 + c(8) == x * x * x + c(8)  # cube
        assert big_f * big_f - big_f.scale(TWO * (ONE + ZETA)) == quad.scale(qpow(4))  # H1
    for i in range(1, n - 1):
        (s_i, _, f_i), (s_j, _, f_j), x_i, x_j = gens[i], gens[i + 1], xs[i], xs[i + 1]
        braid = x_i * x_j * x_i - x_j * x_i * x_j
        assert braid != AlgebraElement(n)
        assert s_i * s_j * s_i - s_j * s_i * s_j == braid  # B1
        four_zeta = Scalar.of(4) * ZETA
        lhs = (f_i * f_j * f_i - f_i.scale(four_zeta)) - (f_j * f_i * f_j - f_j.scale(four_zeta))
        assert lhs == (x_i * x_i - x_i.scale(TWO) - x_j * x_j + x_j.scale(TWO)).scale(a) - braid  # H3
    for i in range(1, n):
        for j in range(i + 2, n):
            (s_i, _, f_i), (s_j, _, f_j) = gens[i], gens[j]
            commutator = (xs[i] * xs[j] - xs[j] * xs[i]).scale(qpow(4))
            assert s_i * s_j - s_j * s_i == commutator == f_i * f_j - f_j * f_i  # B2, H2


def test_checks_run_no_q_zeta_products(monkeypatch):
    # the checks' work is integral
    def forbidden(*args):
        raise AssertionError("a Q(zeta) product ran inside a check")

    monkeypatch.setattr(AlgebraElement, "__mul__", forbidden)
    monkeypatch.setattr(Scalar, "__mul__", forbidden)
    for n in (3, 4, 5):
        for report in (verify_relations(n), verify_conjugation_table(n), verify_markov(n)):
            assert report and all(e["pass"] for e in report), report


def test_flipped_table_sign_fails_a_relation(monkeypatch):
    # one wrong sign in a right T_i table at n = 4 (letter -i derived from it, as
    # t_action derives it) is failing entries, not an exception: one in T_2 fails
    # every relation of s_2 and both braid relations, one in T_1 only the
    # commutation with T_3.  The scaled relations over Z[zeta] fail the same entries.
    real = intspan.t_action
    flips = [
        ((2, 1, 0), [("B1", [1]), ("B1", [2]), ("E1", [2]), ("inverse", [2]), ("cube=-1", [2]),
                     ("H1", [2]), ("H3", [1]), ("H3", [2])]),
        ((1, 2, 5), [("B2", [1, 3]), ("H2", [1, 3])]),
    ]
    for (i, k, y), failing in flips:
        sources, signs = real(4, i)
        signs = signs.copy()
        signs[y, k] *= -1

        def flipped(n, a, left=False, i=i, signs=signs):
            if (n, abs(a), left) != (4, i, False):
                return real(n, a, left)
            return sources, signs * np.array([1, -1, -1, -1]) if a < 0 else signs

        monkeypatch.setattr(intspan, "t_action", flipped)
        assert [(e["relation"], e["indices"]) for e in verify_relations(4) if not e["pass"]] == failing


def _relation_words(n):
    """The T-words verify_relations(n) compares, as letter tuples."""
    words = set()
    for i in range(1, n):
        words |= {(i,), (i, i), (i, i, i), (i, -i)}
    for i in range(1, n - 1):
        words |= {(i, i + 1, i), (i + 1, i, i + 1)}
    for i in range(1, n):
        for j in range(i + 2, n):
            words |= {(i, j), (j, i)}
    return words


@pytest.mark.parametrize("n", range(2, 7))
def test_relations_apply_each_prefix_once(monkeypatch, n):
    # B1's words begin with T_i T_j, the cube's with T_i^2 and T_i, and so on:
    # one letter call per distinct nonempty prefix, however often it recurs
    prefixes = {w[:j] for w in _relation_words(n) for j in range(1, len(w) + 1)}
    calls = []
    real = intspan.letter
    monkeypatch.setattr(intspan, "letter", lambda vecs, m, a, *args, **kw: calls.append(a) or real(vecs, m, a, *args, **kw))
    report = verify_relations(n)
    assert all(e["pass"] for e in report), report
    assert len(calls) == len(prefixes)
    assert sorted(calls) == sorted(w[-1] for w in prefixes)


def test_relations_and_markov_moves_leave_no_reference_cycles():
    # the products verify_relations shares live in a dict local to the call and
    # the stabilizations extend a state that is never changed in place; neither
    # may leave garbage that only the cycle collector frees
    verify_relations(6)
    markov_move_test(BraidWord(3, (1, -2)))
    rng = random.Random(29)
    words = [random_braid(rng) for _ in range(20)]
    gc.collect()
    gc.disable()
    try:
        verify_relations(6)
        assert gc.collect() == 0
        for seed, beta in enumerate(words):
            markov_move_test(beta, trials=1, seed=seed)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shifted_tables_fail_h3_where_b1_holds(monkeypatch):
    # T_i - 2 in place of every T_i (letter -i then 4 - T_i) still satisfies
    # B1 and B2, but (T_i - 2)^2 - 2(T_i - 2) = 4 - 4 T_i differs between
    # neighbours, so H3 must fail through its second identity
    real = intspan.t_action

    def shifted(n, a, left=False):
        sources, signs = real(n, abs(a), left)
        return sources, signs * (np.array([3, -1, -1, -1]) if a < 0 else np.array([-1, 1, 1, 1]))

    monkeypatch.setattr(intspan, "t_action", shifted)
    failing = [(e["relation"], e["indices"]) for e in verify_relations(3) if not e["pass"]]
    assert failing == [("E1", [1]), ("inverse", [1]), ("cube=-1", [1]), ("E1", [2]), ("inverse", [2]),
                       ("cube=-1", [2]), ("H1", [1]), ("H1", [2]), ("H3", [1])]


@pytest.mark.parametrize("n", [3, 4])
def test_markov_statement_holds_in_q_zeta(n):
    # the statement verify_markov reduces to integer identities, on every word b
    # of the first n-2 positions: Tr(b s) = z+ Tr(b), Tr(b s^-1) = z- Tr(b) and
    # Tr(f_{n-1} b) = (1/2) Tr(b)
    z_pos, z_neg = markov_scaling_constants()
    s, s_inv, f = braid_generator(n, n - 1), braid_generator_inverse(n, n - 1), idempotent(n, n - 1)
    sub = range(1 << (n - 2))
    for b in (AlgebraElement(n, {Word(n, e, v): ONE}) for e in sub for v in sub):
        assert (b * s).trace() == z_pos * b.trace()
        assert (b * s_inv).trace() == z_neg * b.trace()
        assert (f * b).trace() == HALF * b.trace()


@pytest.mark.parametrize("left, relation", [(False, "markov-scaling"), (True, "markov-span")])
def test_flipped_table_sign_fails_a_markov_identity(monkeypatch, left, relation):
    # row 0 of a T_3 table at n = 4 is the one row that reaches the trace: flipping
    # its identity-term sign, or pointing its u_3 term's source at the sub-word
    # v_1, fails that side's identity only
    real = intspan.t_action

    def flip_sign(sources, signs):
        signs[0, 0] *= -1

    def move_source(sources, signs):
        sources[0, 1] = Word(4, 0, 1).index

    for change in (flip_sign, move_source):
        def changed(n, i, side=False, change=change):
            sources, signs = real(n, i, side)
            if (n, i, side) == (4, 3, left):
                sources, signs = sources.copy(), signs.copy()
                change(sources, signs)
            return sources, signs

        monkeypatch.setattr(intspan, "t_action", changed)
        assert [e["relation"] for e in verify_markov(4) if not e["pass"]] == [relation], change.__name__


def test_markov_scaling_constants():
    z_pos, z_neg = markov_scaling_constants()
    assert z_pos == Scalar.of(Fraction(-1, 2), Fraction(1, 2))  # (zeta-1)/2
    assert z_pos * z_neg == Scalar.of(Fraction(1, 4))


def test_generator_index_bounds():
    with pytest.raises(ValueError):
        braid_generator(3, 3)
    with pytest.raises(ValueError):
        braid_generator_inverse(3, 0)


def test_build_bundle():
    # the generators, their inverses and their idempotents at every position
    n = 4
    for i in range(1, n):
        s, s_inv, f = braid_generator(n, i), braid_generator_inverse(n, i), idempotent(n, i)
        assert s * s_inv == AlgebraElement.one(n)
        assert f * f == f


@pytest.mark.parametrize("n,expected", [(2, 2), (3, 6), (4, 22), (5, 86), (6, 342)])
def test_subalgebra_dimension(n, expected):
    assert subalgebra_dimension(n) == expected == hecke_dimension(3, 6, n)


def test_subalgebra_dimensions_are_the_stage_ranks_of_one_closure():
    # the stages of the n = 5 closure are the closures of n = 1..4
    assert t_word_ranks(5) == [1, 2, 6, 22, 86]
    assert subalgebra_dimensions(5) == [hecke_dimension(3, 6, n) for n in range(2, 6)]
    assert [subalgebra_dimensions(n) for n in (2, 3)] == [[2], [2, 6]]


def test_subalgebra_dimensions_require_the_relations_first(monkeypatch):
    # the coset order is exact only given B1, B2 and E1, so a failed relation
    # stops the call before any closure work
    def no_closure(n):
        raise AssertionError("the span closure ran despite a failed relation")

    monkeypatch.setattr(hecke, "verify_relations", lambda n: [
        {"relation": "B1", "indices": [1], "pass": True},
        {"relation": "E1", "indices": [2], "pass": False},
    ])
    monkeypatch.setattr(intspan, "_t_word_basis", no_closure)
    with pytest.raises(RuntimeError, match=r"E1\[2\]") as err:
        subalgebra_dimensions(4)
    assert "B1" not in str(err.value)


def test_closure_multiplies_at_most_each_stage_rank_of_rows(monkeypatch):
    # stage m multiplies the basis it starts from and then only each step's new
    # rows, one coset letter per step, T_(m-1) down to T_1; every product is on
    # the n-strand words, and a stage begins where the letter rises
    stages = []
    real = intspan._times_t

    def counted(row, n, c):
        assert n == 6
        if not stages or c > stages[-1][-1]:
            stages.append([])
        stages[-1].append(c)
        return real(row, n, c)

    monkeypatch.setattr(intspan, "_times_t", counted)
    monkeypatch.setattr(intspan, "letter", lambda *args, **kwargs: pytest.fail("the closure used the dense letter"))
    ranks = _t_word_basis(6)[1]
    assert len(stages) == 5
    for m, seq in enumerate(stages, start=2):
        assert seq[0] == m - 1 and seq == sorted(seq, reverse=True), (m, seq)
        assert len(seq) <= ranks[m - 1], (m, len(seq), ranks)


def _t_words(n, length):
    """Every T-word of at most `length` letters as a {word index: coefficient} dict.

    Built from mul_words on the words 1, u_i, v_i, u_i v_i, independently of
    the integer tables the closure uses.
    """
    quads = [[Word(n, e, v) for e, v in ((0, 0), (b, 0), (0, b), (b, b))]
             for b in (1 << k for k in range(n - 1))]
    level = [{Word.identity(n).index: 1}]
    words = list(level)
    for _ in range(length):
        level = [_times_words(n, element, quad) for element in level for quad in quads]
        words += level
    return words


def _times_words(n, element, quad):
    """The {word index: coefficient} element times the sum of the words in quad, by mul_words."""
    acc = {}
    for x, c in element.items():
        for t in quad:
            sign, y = mul_words(Word.from_index(n, x), t)
            acc[y.index] = acc.get(y.index, 0) + sign * c
    return acc


@pytest.mark.parametrize("n", [2, 3, 4])
def test_t_word_rank_matches_sympy(n):
    # sympy's exact rank of the T-words of length at most 2(n-1); the words one
    # letter shorter give the same rank, so those words span a closed space
    import sympy

    rounds = 2 * (n - 1)
    words = _t_words(n, rounds)

    def rank(length):
        count = sum((n - 1) ** k for k in range(length + 1))
        rows = {tuple(w.get(x, 0) for x in range(word_count(n))) for w in words[:count]}
        # a word and its negative add nothing to the rank; sympy's rank is slow
        rows = {max(row, tuple(-c for c in row)) for row in rows}
        return sympy.Matrix(sorted(rows)).rank()

    assert rank(rounds - 1) == rank(rounds) == t_word_ranks(n)[-1]


def _basis(*vecs, zeros=False):
    """The fully reduced basis of dense integer rows, each added by `_insert_keeping_rows`
    from empty, as its nonzero entries (every entry when zeros is true)."""
    rows, holders = {}, collections.defaultdict(set)
    for vec in vecs:
        _insert_keeping_rows(rows, holders, {c: v for c, v in enumerate(vec) if v or zeros})
    return rows, holders


def _insert_keeping_rows(rows, holders, vec):
    """`_insert`, checked to leave every row dict of the basis it is given as it was:
    the closure's frontier still refers to the rows it replaces."""
    before = [(row, dict(row)) for row in rows.values()]
    added = _insert(rows, holders, vec)
    assert all(row == copy for row, copy in before)
    return added


def _holders(rows):
    """The column index `_insert` keeps, rebuilt from the rows: column -> pivots of the rows nonzero there."""
    holders = {}
    for p, row in rows.items():
        for c in row:
            holders.setdefault(c, set()).add(p)
    return holders


def _assert_fully_reduced(rows, holders=None):
    # no zero entries, positive pivots, primitive rows, zero at the other pivots,
    # and a column index, when given, that names exactly the rows nonzero at each column
    assert all(all(row.values()) for row in rows.values())
    assert all(row[p] > 0 for p, row in rows.items())
    assert all(math.gcd(*row.values()) == 1 for row in rows.values())
    assert all(row.keys() & rows.keys() == {p} for p, row in rows.items())
    assert holders is None or {c: s for c, s in holders.items() if s} == _holders(rows)


_BLOCK_ROWS = 16  # rows per dense `letter` call in `_full_space_basis`


def _full_space_basis(n):
    """The closure in the full n-strand space, one word length per round from 1.

    Products go through the dense `letter`, _BLOCK_ROWS rows built here to a
    call, not through the closure's sparse `_times_t`.
    """
    size = word_count(n)
    rows, holders = _basis()
    _insert(rows, holders, {Word.identity(n).index: 1})
    frontier = list(rows.values())
    while frontier:
        added = []
        for b in range(0, len(frontier), _BLOCK_ROWS):
            block = np.zeros((len(frontier[b:b + _BLOCK_ROWS]), size), dtype=np.int64)
            for r, row in enumerate(frontier[b:b + _BLOCK_ROWS]):
                for c, v in row.items():
                    block[r, c] = v
            for i in range(1, n):
                for vec in letter(block, n, i).tolist():
                    added.append(_insert(rows, holders, {c: v for c, v in enumerate(vec) if v}))
        frontier = [rows[p] for p in added if p is not None]
    return rows, holders


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_prefix_basis_equals_the_full_space_closure(n):
    # the fully reduced form with primitive rows and positive pivots is unique,
    # so the prefix stages must give the reference's rows, not just its rank
    rows, ranks = _t_word_basis(n)
    want, holders = _full_space_basis(n)
    _assert_fully_reduced(rows)
    _assert_fully_reduced(want, holders)
    assert rows == want
    assert len(rows) == ranks[-1] == t_word_ranks(n)[-1]


@pytest.mark.parametrize("n", range(2, 8))
def test_basis_shape_finding(n):
    # the T-words lie in Fix(sigma), spanned by 1 and one signed sum per J-orbit,
    # and the closure reaches all of it: entries in {-1, 0, 1}, the identity
    # word's row is that word alone, every other row has three entries, and
    # each word index lies in exactly one row
    rows, ranks = _t_word_basis(n)
    assert {v for row in rows.values() for v in row.values()} <= {-1, 1}
    assert rows[Word.identity(n).index] == {Word.identity(n).index: 1}
    assert all(len(row) == 3 for p, row in rows.items() if p != Word.identity(n).index)
    assert sorted(c for row in rows.values() for c in row) == list(range(word_count(n)))
    assert len(rows) == ranks[-1] == (4 ** (n - 1) + 2) // 3
    # each other row's support is a J-orbit {x, Jx, J^2 x}, with
    # J(eps, nu) = (eps ^ nu, eps) on the index eps * 2^(n-1) + nu
    half = 1 << (n - 1)

    def j(x):
        eps, nu = divmod(x, half)
        return (eps ^ nu) * half + eps

    # and its signs are sigma's, sigma(x) = s(x) Jx, so sigma fixes the row:
    # row[Jx] = s(x) row[x] along the orbit of its pivot
    sigma = image_group.sigma(n)
    assert np.array_equal(sigma >> 1, [j(x) for x in range(word_count(n))])

    def s(x):
        return -1 if sigma[x] & 1 else 1

    for p, row in rows.items():
        if p != Word.identity(n).index:
            assert set(row) == {p, j(p), j(j(p))}, (n, p, row)
            assert p ^ j(p) ^ j(j(p)) == 0 and j(j(j(p))) == p, (n, p)
            assert row[j(p)] == s(p) * row[p], (n, p, row)
            assert row[j(j(p))] == s(j(p)) * row[j(p)], (n, p, row)


def _primitive_rref(vecs):
    """sympy's rref rows of vecs, each scaled to a primitive integer row, keyed by its pivot."""
    import sympy

    rref, pivots = sympy.Matrix(vecs).rref()
    want = {}
    for r, p in enumerate(pivots):
        row = rref.row(r)
        scale = math.lcm(*(x.q for x in row))
        ints = [int(x * scale) for x in row]
        g = math.gcd(*ints)
        want[p] = {c: v // g for c, v in enumerate(ints) if v}
    return want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_insert_matches_sympy(data):
    # random small row sets with non-unit pivots and entries past 2^62: the
    # rank is sympy's, and the rows are sympy's rref rows made primitive with
    # positive pivots (rref pivots are 1)
    import sympy

    cols = data.draw(st.integers(1, 6), label="columns")
    entry = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-(1 << 66), 1 << 66))
    vecs = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=7), label="rows")
    rows, holders = _basis(*vecs)
    _assert_fully_reduced(rows, holders)
    assert len(rows) == sympy.Matrix(vecs).rank()
    assert rows == _primitive_rref(vecs)
    # the closure's products hold zero entries, also at pivot columns: the
    # same vectors with every zero kept give the same basis, in the same order
    dense, dense_holders = _basis(*vecs, zeros=True)
    _assert_fully_reduced(dense, dense_holders)
    assert list(dense.items()) == list(rows.items())


@pytest.mark.parametrize("n", [3, 4, 5])
def test_prefix_basis_keeps_the_pivot_words_of_the_smaller_prefix(n):
    # stage n starts from the (n-1)-strand basis; its old rows keep their pivots,
    # first and in order, at the words of the same (eps, nu)
    small, big = list(_t_word_basis(n - 1)[0]), list(_t_word_basis(n)[0])
    assert [index_masks(n, p) for p in big[:len(small)]] == [index_masks(n - 1, p) for p in small]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_times_t_matches_the_dense_letter_and_mul_words(data):
    # the closure's sparse product by T_c, on random sparse rows at every c:
    # entries below 2^31 against the dense `letter`, and entries past 2^62
    # against the mul_words product `_t_words` is built from
    n = data.draw(st.integers(2, 6), label="n")
    c = data.draw(st.integers(1, n - 1), label="c")
    big = data.draw(st.booleans(), label="past 2^62")
    bound = 1 << 70 if big else (1 << 31) - 1
    entry = st.integers(-bound, bound).filter(lambda v: not big or abs(v) > 1 << 62)
    row = data.draw(st.dictionaries(st.integers(0, word_count(n) - 1), entry, max_size=8), label="row")
    got = {y: v for y, v in _times_t(row, n, c).items() if v}
    if big:
        want = _times_words(n, row, quad_words(n, c))
    else:
        dense = np.zeros(word_count(n), dtype=np.int64)
        dense[list(row)] = list(row.values())
        want = dict(enumerate(letter(dense, n, c).tolist()))
    assert got == {y: v for y, v in want.items() if v}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sign_masks_equal_the_sign_rule(n):
    # `_times_t` and `t_action` read the sign of word x times term t of T_c (t times
    # x on the left side) off one mask per term: the parity of x & odd must be that
    # of `sign_bits` for every x, on both sides
    for left in (False, True):
        for c in range(1, n):
            masks = intspan._sign_masks(n, c, left)
            assert [t for t, _ in masks] == [w.index for w in quad_words(n, c)]
            for (_, odd), w in zip(masks, quad_words(n, c)):
                for x in range(word_count(n)):
                    eps, nu = index_masks(n, x)
                    rule = sign_bits(w.eps, w.nu, eps, nu) if left else sign_bits(eps, nu, w.eps, w.nu)
                    assert (x & odd).bit_count() & 1 == rule.bit_count() & 1, (n, c, left, w, x)


def test_every_bound_given_to_letter_is_proven(monkeypatch):
    # a caller that passes a bound skips `letter`'s read of every entry, so the
    # bound must hold on every call and stay below the 2^31 guard
    real = intspan.letter

    def checked(vecs, n, a, left=False, *, bound=None):
        assert bound is not None and int(np.abs(vecs).max()) <= bound < 1 << 31, (n, a, left, bound)
        return real(vecs, n, a, left, bound=bound)

    monkeypatch.setattr(intspan, "letter", checked)
    monkeypatch.setattr(image_group, "letter", checked)
    image_group.conjugation_action.cache_clear()
    for n in range(2, 9):
        verify_relations(n)
    for n in range(2, 7):
        for i in range(1, n):
            image_group.conjugation_action(i, n)
    for n in range(2, 5):
        for i in range(1, n):
            image_group.left_regular_matrix(i, n)


def test_embed_keeps_the_word_masks():
    rng = np.random.default_rng(7)
    for m, n in ((1, 3), (2, 2), (2, 4), (3, 5)):
        block = rng.integers(-9, 10, size=(3, word_count(m)))
        rows = _embed(block, m, n)
        assert np.array_equal(rows, np.stack([_embed(row, m, n) for row in block]))
        assert rows.shape == (3, word_count(n))
        for x in range(word_count(m)):
            eps, nu = index_masks(m, x)
            assert np.array_equal(rows[:, Word(n, eps, nu).index], block[:, x]), (m, n, x)
        assert np.abs(rows).sum() == np.abs(block).sum()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_t_action_matches_sign_algebra(data):
    # s_i = c T_i and s_i^-1 = c' (2 - T_i) with c = zeta^2/2, c' = zeta^4/2, so
    # letter +i (-i) must equal (vec * s_i^(+-1)) / c (or / c') on every word,
    # on either side, one vector at a time and for several rows at once.
    n = data.draw(st.integers(2, 5), label="n")
    i = data.draw(st.integers(1, n - 1), label="i")
    a = data.draw(st.sampled_from([i, -i]), label="a")
    left = data.draw(st.booleans(), label="left")
    rows = data.draw(st.integers(1, 3), label="rows")
    size = word_count(n)
    entries = st.lists(st.integers(-3, 3), min_size=size, max_size=size)
    matrix = np.array(data.draw(st.lists(entries, min_size=rows, max_size=rows)), dtype=np.int64)

    def element(v):
        return AlgebraElement(n, {Word.from_index(n, x): Scalar.of(int(c)) for x, c in enumerate(v)})

    if a > 0:
        gen, coeff = braid_generator(n, i), S_COEFF  # zeta^2/2
    else:
        gen, coeff = braid_generator_inverse(n, i), ZETA**4 * HALF
    products = letter(matrix, n, a, left)
    assert products.shape == matrix.shape
    for vec, prod in zip(matrix, products):
        assert element(letter(vec, n, a, left)) == element(prod)
        want = gen * element(vec) if left else element(vec) * gen
        assert element(prod) == want.scale(coeff.inverse())


def _element(n, v):
    """A Z[zeta] coefficient vector of shape (2, 4^(n-1)) as an AlgebraElement."""
    terms = {Word.from_index(n, x): Scalar.of(int(a), int(b)) for x, (a, b) in enumerate(v.T)}
    return AlgebraElement(n, terms)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_operators_match_q_zeta_generators(data):
    # the scaled generators verify_relations reduces to letters, on Z[zeta]
    # vectors v = v_0 + zeta v_1 on either side: v (2 s_i) = zeta^2 (v T_i),
    # v (2 s_i^-1) = zeta^4 v (2 - T_i) and v F_i = zeta^2 (a v - v T_i),
    # F_i = 2(1 + zeta) f_i, a = 2 zeta^-1; letter +-i acts on v_0 and v_1 apart
    n = data.draw(st.integers(2, 5), label="n")
    i = data.draw(st.integers(1, n - 1), label="i")
    left = data.draw(st.booleans(), label="left")
    coeffs = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    terms = data.draw(st.dictionaries(st.integers(0, word_count(n) - 1), coeffs, max_size=6), label="terms")
    v = np.zeros((2, word_count(n)), dtype=np.int64)
    for x, pair in terms.items():
        v[:, x] = pair
    x, plus, minus = _element(n, v), _element(n, letter(v, n, i, left)), _element(n, letter(v, n, -i, left))
    ops = plus.scale(qpow(2)), minus.scale(qpow(4)), (x.scale(TWO * qpow(-1)) - plus).scale(qpow(2))
    generators = braid_generator(n, i), braid_generator_inverse(n, i), idempotent(n, i)
    for op, g, c in zip(ops, generators, (TWO, TWO, Scalar.of(2, 2))):
        assert op == (g * x if left else x * g).scale(c), g


_GATHER_CASES = [(n, shape) for n in (2, 3, 5, 6) for shape in ("vector", "zeta-stack", "identity")
                 if (n, shape) != (6, "identity")]


@pytest.mark.parametrize("n, shape", _GATHER_CASES)
def test_letter_gather_matches_table_formula(n, shape):
    # the input shapes: a vector like the invariant's and the relation checks'
    # unit row of 1, the square identity matrix of left_regular_matrix and of
    # the conjugation reference route, whose rows are like the Markov check's
    # unit rows (n <= 5 here), and a (2, rows, 4^(n-1)) stack for a leading
    # shape of more than one axis, which no caller passes now;
    # each row must read (vec T_i)[y] = sum_k signs[y, k] * vec[sources[y, k]]
    size = word_count(n)
    if shape == "identity":
        vecs = np.eye(size, dtype=np.int64)
    else:
        vecs = np.random.default_rng(n).integers(-5, 6, (size,) if shape == "vector" else (2, 3, size))
    before = vecs.copy()
    for i in range(1, n):
        for left in (False, True):
            sources, signs = t_action(n, i, left)
            table = sources.copy(), signs.copy()
            plus, minus = letter(vecs, n, i, left), letter(vecs, n, -i, left)
            assert plus.shape == minus.shape == vecs.shape
            rows = (m.reshape(-1, size).tolist() for m in (vecs, plus, minus))
            for vec, got_plus, got_minus in zip(*rows):
                want = [sum(s * vec[x] for s, x in zip(sg, src))
                        for sg, src in zip(signs.tolist(), sources.tolist())]
                assert got_plus == want
                assert got_minus == [2 * v - w for v, w in zip(vec, want)]
            # the gather and the sign product leave the cached table and vecs unchanged
            assert not sources.flags.writeable and not signs.flags.writeable
            assert np.array_equal(sources, table[0]) and np.array_equal(signs, table[1])
            assert np.array_equal(vecs, before)


@pytest.mark.parametrize("n, samples", [(6, None), (7, 300), (8, 300)])
def test_t_action_matches_word_products(n, samples):
    # reference: one mul_words call per table entry, every letter of either sign
    # and both sides; letter -i is 2 - T_i = 1 - u_i - v_i - u_i v_i, so its
    # signs are negated on every word but 1.  Every source word at n = 6, a
    # sample of them at n = 7 and 8.
    rng = random.Random(n)
    sources_x = range(word_count(n)) if samples is None else rng.sample(range(word_count(n)), samples)
    for left in (False, True):
        for a in (0, n, -n):
            with pytest.raises(ValueError, match="out of range"):
                t_action(n, a, left)
        for i in range(1, n):
            plus, minus = t_action(n, i, left), t_action(n, -i, left)
            assert minus[0] is plus[0]
            assert not any(array.flags.writeable for array in plus + minus)
            for a, (sources, signs) in ((i, plus), (-i, minus)):
                for k, t in enumerate(quad_words(n, i)):
                    negate = -1 if a < 0 and k else 1
                    for x in sources_x:
                        w = Word.from_index(n, x)
                        sign, y = mul_words(t, w) if left else mul_words(w, t)
                        assert (sources[y.index, k], signs[y.index, k]) == (x, negate * sign), (n, a, left, k, x)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_t_action_tables_are_word_major(n):
    # `letter` takes one gather and one np.vecdot over the contiguous last axis;
    # a transposed view of a (4, 4^(n-1)) table gives the same sums, only slower
    for left in (False, True):
        for i in range(1, n):
            plus, minus = t_action(n, i, left), t_action(n, -i, left)
            assert minus[0] is plus[0]
            for array in plus + minus:
                assert array.shape == (word_count(n), 4)
                assert array.dtype == np.int64
                assert array.flags.c_contiguous and not array.flags.writeable


def test_reduce_with_non_unit_pivots():
    # lcm(2, 3) = 6: 6 (1, 1, 1) - 3 (2, 0, 1) - 2 (0, 3, 1) = (0, 0, 1);
    # every insert, `_basis`'s too, leaves the row dicts it replaces unchanged
    rows, holders = _basis([2, 0, 1], [0, 3, 1])
    assert rows == {0: {0: 2, 2: 1}, 1: {1: 3, 2: 1}}
    # (2, 0, 1) and (4, 3, 3) lie in the span; (2, 3, 0) reduces to (0, 0, -1)
    assert _insert_keeping_rows(rows, holders, {0: 2, 2: 1}) is None
    assert _insert_keeping_rows(rows, holders, {0: 4, 1: 3, 2: 3}) is None
    other, other_holders = _basis([2, 0, 1], [0, 3, 1], [2, 3, 0])
    # adding (0, 0, 1) clears the last column of the basis, which stays primitive
    assert _insert_keeping_rows(rows, holders, {0: 1, 1: 1, 2: 1}) == 2
    assert rows == other == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}} and list(rows) == [0, 1, 2]
    _assert_fully_reduced(rows, holders)
    _assert_fully_reduced(other, other_holders)
    # a new row with pivot entry 2 scales the row it clears, which also loses column 3:
    # 2 (1, 0, 1, 2, 1) - (0, 0, 2, 4, 1) = (2, 0, 0, 0, 1)
    rows, holders = _basis([1, 0, 1, 2, 1], [0, 0, 2, 4, 1])
    assert rows == {0: {0: 2, 4: 1}, 2: {2: 2, 3: 4, 4: 1}}
    _assert_fully_reduced(rows, holders)


def test_closure_overflow_guard():
    big = np.array([[1 << 31, 1, 0, 0], [0, 1, 0, 1]], dtype=np.int64)
    # either letter on either side
    with pytest.raises(OverflowError):
        letter(big, 2, 1)
    with pytest.raises(OverflowError):
        letter(big, 2, -1, left=True)
    # the elimination is in Python ints: the same rows, and rows past 2^62,
    # reduce exactly and raise nothing
    rows, _ = _basis(*big.tolist())
    assert rows == {0: {0: 1 << 31, 3: -1}, 1: {1: 1, 3: 1}}
    # two pivot rows that together clear an old row past 2^62: with a > 2^62,
    # (1, a, a, 0) - a (0, 1, 0, a) - a (0, 0, 1, a) = (1, 0, 0, -2a^2)
    a = (1 << 62) + 1
    rows, holders = _basis([1, a, a, 0], [0, 1, 0, a], [0, 0, 1, a])
    assert rows == {0: {0: 1, 3: -2 * a * a}, 1: {1: 1, 3: a}, 2: {2: 1, 3: a}}
    _assert_fully_reduced(rows, holders)
    # pivots whose lcm passes 2^31: 65537 * 65539 > 2^32
    rows, holders = _basis([65537, 0, 1], [0, 65539, 1], [1, 1, 0])
    assert rows == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}
    # a row with an entry past 2^63, which no int64 holds
    rows, _ = _basis([1, 0, 1 << 70], [1, 1, 0])
    assert rows == {0: {0: 1, 2: 1 << 70}, 1: {1: 1, 2: -(1 << 70)}}


def test_word_trace_guard_raises_on_the_same_letter(monkeypatch):
    # a table that multiplies by -3 for either sign of letter, with no factor 2
    # to divide out.  3^19 is below 2^31 and 3^20 is not, so the guard must stop
    # the 21st letter, as a read of every entry before every letter would,
    # although the carried bound 4^k passes 2^31 five letters earlier.
    # word-major: every term of target word y reads word y, with signs -1, -1, -1, 0
    sources = np.repeat(np.arange(4)[:, None], 4, axis=1)
    signs = np.tile([-1, -1, -1, 0], (4, 1))
    monkeypatch.setattr(intspan, "t_action", lambda n, a, left=False: (sources, signs))
    for a in (1, -1):
        assert intspan.t_word_trace(2, [a] * 20) == (3**20, 0)
        with pytest.raises(OverflowError):
            intspan.t_word_trace(2, [a] * 21)
    # a table that sends every vector to 0: the bound still reaches 2^31 and the
    # zero vector is divided by 2^0, not shifted by a negative count
    zero = np.zeros_like(signs)
    monkeypatch.setattr(intspan, "t_action", lambda n, a, left=False: (sources, zero))
    assert intspan.t_word_trace(2, [1, -1] * 20) == (0, 0)


def test_word_trace_reads_the_vector_only_when_its_bound_reaches_the_guard(monkeypatch):
    # 603 letters +1 on 3 strands: s_1^3 = -1 makes T_1^603 = (-8)^201 = -2^603.
    # The bound passes 2^31 every 16 letters or so, and nothing else reads the vector.
    reads = []
    real = intspan._magnitude
    monkeypatch.setattr(intspan, "_magnitude", lambda *arrays: reads.append(1) or real(*arrays))
    assert intspan.t_word_trace(3, [1] * 603) == (-1, 603)
    assert 0 < len(reads) <= 603 // 16


def _normalized_trace(n, letters):
    """(t, k) with 2^k t the identity coefficient of the letters' product, dividing
    the common factors 2 out of the vector after every letter."""
    vec = np.zeros(word_count(n), dtype=np.int64)
    vec[Word.identity(n).index] = 1
    k = 0
    for a in letters:
        vec = letter(vec, n, a)
        low = int(np.bitwise_or.reduce(vec))
        if low:  # an all-zero vector has no factor 2 to divide out
            twos = (low & -low).bit_length() - 1
            vec >>= twos
            k += twos
    return int(vec[Word.identity(n).index]), k


def _letters(max_n):
    def letters(top):
        return st.integers(1, top).flatmap(lambda i: st.sampled_from([i, -i]))

    def words(n):
        # a stabilization: letters below n - 1, then one +-(n - 1)
        head = st.lists(letters(n - 2), max_size=39) if n > 2 else st.just([])
        stabilized = st.tuples(head, st.sampled_from([n - 1, 1 - n])).map(lambda p: p[0] + [p[1]])
        return st.tuples(st.just(n), st.one_of(st.lists(letters(n - 1), max_size=40), stabilized))

    return st.integers(2, max_n).flatmap(words)


@settings(max_examples=60, deadline=None)
@given(_letters(8))
def test_word_trace_matches_normalizing_after_every_letter(word):
    # t_word_trace divides out the 2s only when its bound reaches 2^31, and t at the end
    n, letters = word
    t, k = intspan.t_word_trace(n, letters)
    want_t, want_k = _normalized_trace(n, letters)
    assert t * 2**k == want_t * 2**want_k, (n, letters)
    assert t % 2 == 1 or (t, k) == (0, 0), (n, letters)


@settings(max_examples=40, deadline=None)
@given(_letters(8))
def test_word_trace_resumes_from_any_split(word):
    # the state after a prefix, extended by the rest, gives the one-shot trace
    n, letters = word
    want = intspan.t_word_trace(n, letters)
    for j in range(len(letters) + 1):
        assert intspan.t_word_trace(n, letters[j:], intspan.t_word_state(n, letters[:j])) == want, (n, letters, j)


def test_word_trace_resumes_across_the_division_by_2():
    # T_1^603 = -2^603 on 3 strands: the bound passes 2^31 at the 17th letter,
    # so a state after 16 letters divides before its first resumed letter
    letters = [1] * 603
    for j in (0, 15, 16, 17, 31, 32, 33, 300, 602, 603):
        assert intspan.t_word_trace(3, letters[j:], intspan.t_word_state(3, letters[:j])) == (-1, 603), j
    vec, m, k, bound = intspan.t_word_state(3, letters[:16])
    assert (m, k, bound) == (2, 0, 4**16) and bound >= 2**31


@pytest.mark.parametrize("n, head, tails", [
    (3, [1] * 16, [[1], [-2], [2, -1]]),             # the tails start by dividing out the 2s
    (5, [4, -1, 2, -3, 1], [[4], [-4], [1, 2]]),
    (2, [], [[1], [-1]]),
])
def test_extending_a_state_leaves_it_unchanged(n, head, tails):
    state = intspan.t_word_state(n, head)
    vec = state[0].copy()
    for tail in tails:
        first = intspan.t_word_trace(n, tail, state)
        assert intspan.t_word_trace(n, tail, state) == first == intspan.t_word_trace(n, head + tail)
        assert np.array_equal(state[0], vec)
    assert intspan.t_word_trace(n, []) == (1, 0)


def test_word_trace_grows_the_vector_with_the_letters(monkeypatch):
    # a stabilized 5-strand braid runs in the 256-entry 5-strand block until its
    # last letter, which alone needs the 1024 entries of 6 strands
    sizes = []
    real = intspan.letter
    monkeypatch.setattr(intspan, "letter", lambda vecs, n, a, **kw: sizes.append(vecs.size) or real(vecs, n, a, **kw))
    beta = BraidWord(5, (4, -1, 2, -3, 1, 4, -2))
    base = invariant(beta)
    for sign in (1, -1):
        sizes.clear()
        assert invariant(beta.stabilize(sign)) == base
        assert sizes == [256] * len(beta.letters) + [1024], sign


def test_word_trace_grows_several_strands_in_one_letter():
    # the second letter grows the vector from 2 strands to 8
    t, k = intspan.t_word_trace(8, [1, 7])
    want_t, want_k = _normalized_trace(8, [1, 7])
    assert t * 2**k == want_t * 2**want_k


def test_word_trace_of_the_empty_word_is_one():
    assert intspan.t_word_trace(1, []) == intspan.t_word_trace(5, []) == (1, 0)


@pytest.mark.parametrize("letters", [[3], [-3], [1, 2, -3], [2, 1, 3], [1, 0]])
def test_word_trace_rejects_a_letter_out_of_range(letters):
    with pytest.raises(ValueError):
        intspan.t_word_trace(3, letters)


@settings(max_examples=60, deadline=None)
@given(_letters(7))
def test_normalized_trace_vector_entries_are_signs(word):
    # A finding, not a theorem: after each letter and the division by the common
    # factors 2, every entry of the vector is -1, 0 or 1.  The carried bound in
    # t_word_trace is proven without it; it only explains why the vector is read
    # so rarely (a bound re-read at 1 lasts 16 letters).
    n, letters = word
    vec = np.zeros(word_count(n), dtype=np.int64)
    vec[Word.identity(n).index] = 1
    for a in letters:
        vec = letter(vec, n, a)
        gcd = np.gcd.reduce(vec)
        vec //= gcd & -gcd
        assert set(np.unique(vec).tolist()) <= {-1, 0, 1}, (n, letters)


def test_subalgebra_dimension_range_check():
    with pytest.raises(ValueError):
        subalgebra_dimension(1)
    with pytest.raises(ValueError):
        subalgebra_dimension(9)
    for n_max in (1, 9):
        with pytest.raises(ValueError):
            subalgebra_dimensions(n_max)
