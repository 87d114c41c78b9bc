"""Branched-cover homology oracle and the bundled link table."""

import random

import pytest

from quatbraid.braids import BraidWord, components, invariant
from quatbraid.cover import (
    burau_minus_identity,
    burau_nullity,
    double_cover_determinant,
    symplectic_check,
    triple_cover_dim,
    triple_cover_presentation,
)
from quatbraid.gf2 import f4_nullity
from quatbraid.linktable import load_bundled
from quatbraid.scalar import ONE

TREFOIL = [[-1, 1], [0, -1]]


def test_unknot_empty_matrix():
    assert triple_cover_dim([]) == 0
    assert double_cover_determinant([]) == 1
    assert symplectic_check([])


def test_trefoil():
    assert triple_cover_dim(TREFOIL) == 2


def test_hopf_annulus_generator():
    assert triple_cover_dim([[1]]) == 0
    assert triple_cover_dim([[-1]]) == 0


def test_presentation_block_structure():
    big = triple_cover_presentation(TREFOIL)
    assert len(big) == 4
    assert big[0][0] == -2 and big[0][2] == -1 and big[2][0] == -1


def test_non_square_rejected():
    with pytest.raises(ValueError):
        triple_cover_dim([[1, 2]])


@pytest.mark.parametrize("bad", [{}, 0], ids=["empty-dict", "zero"])
def test_falsy_non_matrix_rejected(bad):
    # both are falsy like the empty matrix [], whose dimension is 0, and must still be rejected
    with pytest.raises(ValueError, match="^Seifert matrix must be a list of integer rows$"):
        triple_cover_dim(bad)


def _random_unimodular(m, rng):
    # product of elementary row additions: always determinant 1
    p = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for _ in range(3 * m):
        i, j = rng.randrange(m), rng.randrange(m)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(m):
            p[i][k] += c * p[j][k]
    return p


def _congruent(v, p):
    m = len(v)
    pv = [[sum(p[i][a] * v[a][b] for a in range(m)) for b in range(m)] for i in range(m)]
    return [[sum(pv[i][b] * p[j][b] for b in range(m)) for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("seed", range(5))
def test_nullity_is_congruence_invariant(seed):
    rng = random.Random(seed)
    for entry in load_bundled():
        v = entry.seifert_rows
        if not v:
            continue
        p = _random_unimodular(len(v), rng)
        assert triple_cover_dim(_congruent(v, p)) == triple_cover_dim(v)


def test_symplectic_check_on_knots():
    for entry in load_bundled():
        v = entry.seifert_rows
        if entry.name == "hopf":  # link: odd-size matrix, check is advisory
            assert not symplectic_check(v)
        else:
            assert symplectic_check(v)


def test_double_cover_determinant_values():
    # |det(V + V^T)| is the knot determinant: 3, 5, 5, 7, 9 for the bundled knots
    dets = {e.name: abs(double_cover_determinant(e.seifert_rows)) for e in load_bundled()}
    assert dets["trefoil"] == 3
    assert dets["figure_eight"] == 5
    assert dets["5_1"] == 5
    assert dets["5_2"] == 7
    assert dets["6_1"] == 9
    assert dets["unknot"] == 1


def test_table_magnitudes_match_invariant():
    for entry in load_bundled():
        val = invariant(entry.braid)
        assert val.norm_sq() == 2 ** triple_cover_dim(entry.seifert_rows), entry.name


def test_frozen_cover_dimensions():
    dims = {e.name: triple_cover_dim(e.seifert_rows) for e in load_bundled()}
    assert dims == {
        "unknot": 0,
        "trefoil": 2,
        "figure_eight": 2,
        "hopf": 0,
        "5_1": 0,
        "5_2": 0,
        "6_1": 0,
    }


def test_burau_nullity_stabilizes_when_three_divides_n():
    # sigma_1 sigma_2 closes to the unknot (I = 1, nu = 0), but on its own 3 strands
    # det(I - B(t)) = [3]_t Delta(t) vanishes at t = w, so the unstabilized nullity is 1
    beta = BraidWord(3, (1, 2))
    assert f4_nullity(burau_minus_identity(3, [1, 2]), 2) == 1
    assert f4_nullity(burau_minus_identity(4, [1, 2, 3]), 3) == 0
    assert burau_nullity(beta) == 0 and components(beta) == 1 and invariant(beta) == ONE


@pytest.mark.parametrize("n", range(2, 7))
def test_burau_letter_inverses(n):
    for i in range(1, n):
        assert burau_minus_identity(n, [i, -i]) == burau_minus_identity(n, [-i, i]) == [(0, 0)] * (n - 1)


def test_burau_nullity_doubles_to_cover_dimensions():
    # 2 nu = dim H1 of the 3-fold branched cover mod 2, on every bundled link
    for entry in load_bundled():
        assert 2 * burau_nullity(entry.braid) == triple_cover_dim(entry.seifert_rows), entry.name
