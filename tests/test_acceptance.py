"""Acceptance battery: one test per top-level claim, at stated tolerances.

Every check here is exact (integer or Q(zeta) equality); the only tolerances
are runtime budgets.  Each test prints a single PASS line when it succeeds so
`pytest -v -s tests/test_acceptance.py` doubles as a human-readable report.
"""

import random
import time

import pytest

from quatbraid.algebra import AlgebraElement, center
from quatbraid.braids import BraidWord, closed_form, invariant, markov_move_test, random_braid
from quatbraid.cover import triple_cover_dim
from quatbraid.diagrams import (
    bratteli_levels,
    eta,
    hecke_dimension,
    is_affine_e6,
    principal_graph_cut,
)
from quatbraid.hecke import (
    braid_generator,
    subalgebra_dimension,
    verify_conjugation_table,
    verify_markov,
    verify_relations,
)
from quatbraid.image_group import (
    conjugation_action,
    enumerate_group,
    left_regular_determinant,
)
from quatbraid.linktable import load_bundled
from quatbraid.scalar import ONE, Scalar


def _report(name: str):
    print(f"ACCEPTANCE {name}: PASS")


@pytest.fixture(scope="module")
def group_n5():
    return enumerate_group(5)


def test_01_relation_suite():
    start = time.time()
    for n in range(3, 7):
        rep = verify_relations(n) + verify_conjugation_table(n)
        failed = [e for e in rep if not e["pass"]]
        assert not failed, (n, failed)
    elapsed = time.time() - start
    assert elapsed < 10, f"relation suite took {elapsed:.1f}s (budget 10s)"
    _report("1 relations (B1,B2,E1,H1-H3, conjugation table) n=3..6")


def test_02_generator_cubes():
    for n in range(2, 7):
        for i in range(1, n):
            s = braid_generator(n, i)
            assert s * s * s == -AlgebraElement.one(n), (n, i)
    _report("2 s_i^3 = -1 for n=2..6")


def test_03_markov_trace_and_eta():
    for n in range(3, 9):
        rep = verify_markov(n)
        assert all(e["pass"] for e in rep), (n, rep)
    from fractions import Fraction

    assert eta(3, 6) == Scalar.of(Fraction(1, 2))
    _report("3 Markov trace on spanning sets n=3..8; eta(3,6) = 1/2")


def test_04_dimension_match_both_routes():
    start = time.time()
    expected = {2: 2, 3: 6, 4: 22}
    for n in (2, 3, 4, 5):
        closure = subalgebra_dimension(n)
        paths = hecke_dimension(3, 6, n)
        assert closure == paths, (n, closure, paths)
        if n in expected:
            assert closure == expected[n]
    elapsed = time.time() - start
    assert elapsed < 300, f"dimension match took {elapsed:.1f}s (budget 5min)"
    _report("4 span-closure dim == path-count dim for n=2..5 (2, 6, 22, 86)")


def test_05_center_dimensions():
    for n, want in [(2, 1), (4, 1), (5, 1), (7, 1), (3, 4), (6, 4)]:
        basis = center(n)
        assert len(basis) == want, (n, len(basis))
    # epsilon pattern at n=6: positions divisible by 3 are absent
    masks = {w.eps for w in center(6)}
    assert masks == {0, 0b11011}
    _report("5 center dim 1 (n=2,4,5,7) / 4 (n=3,6) with the stated mask pattern")


def test_06_finiteness(group_n5):
    for n in (2, 3, 4):
        res = enumerate_group(n)
        assert res["conclusive"], n
    assert group_n5["conclusive"]
    # the conjugate of each u_i, v_i by every generator is a signed word
    # (conjugation_action raises otherwise), so that of every word, their product, is one
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            conjugation_action(i, n)
    _report("6 group BFS terminates for n=2..5; all conjugates are signed words")


def test_07_projective_order_n5(group_n5):
    start = time.time()
    got = group_n5["projectiveOrder"]
    want = 25920
    if got != want:
        factor = max(got, want) / min(got, want) if min(got, want) else float("inf")
        assert False, (
            f"projective order {got} != 25920"
            + (f" (off by factor {factor}, central ambiguity?)" if factor <= 6 else "")
        )
    assert group_n5["formulaEstimate"] == 25920
    elapsed = time.time() - start
    assert elapsed < 600
    _report("7 n=5 projective order 25920 = |PSU(4,F2)| = formula value")


def test_08_invariant_identity_on_link_table():
    anchors = {"unknot": Scalar.of(1), "trefoil": Scalar.of(-2)}
    for entry in load_bundled():
        val = invariant(entry.braid)
        dim = triple_cover_dim(entry.seifert_rows)
        assert val.norm_sq() == 2**dim, (entry.name, val, dim)
        sq = val * val
        assert sq.b == 0 and sq.a in (val.norm_sq(), -val.norm_sq()), entry.name
        if entry.name in anchors:
            assert val == anchors[entry.name], entry.name
        if entry.name == "hopf":
            assert val.norm_sq() == 1 and dim == 0
    _report("8 normSq(I) = 2^dim H1(triple cover; Z2) on the bundled table")


def test_09_markov_moves_500_braids():
    rng = random.Random(20260824)
    failures = []
    for k in range(500):
        beta = random_braid(rng, max_strands=5, max_length=12)
        rep = markov_move_test(beta, trials=1, seed=rng.randrange(2**30))
        if not rep["pass"] or rep["invariant"] != closed_form(beta).to_json():
            failures.append((k, rep))
    assert not failures, failures[:3]
    _report("9 invariant unchanged under conjugation/stabilization and equal to the closed form, 500 braids")


def test_10_bratteli_figure():
    levels = bratteli_levels(3, 6, 7, reduced=True)
    assert [len(lv.nodes) for lv in levels] == [1, 2, 3, 3, 3, 4, 3]
    nodes, edges = principal_graph_cut(3, 6, (6, 7))
    assert is_affine_e6(nodes, edges)
    _report("10 level node counts 1,2,3,3,3,4,3 and cut (6,7) is affine E6")


def test_11_left_regular_determinants():
    for n in (2, 3):
        for i in range(1, n):
            d = left_regular_determinant(i, n)
            assert d**6 == ONE, (n, i, d)
    _report("11 det of left multiplication by s_i is a 6th root of unity, n=2,3")
