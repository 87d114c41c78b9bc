"""Admissible diagrams, path counts, eta, and the reduced Bratteli structure."""

from fractions import Fraction

import pytest

from quatbraid.diagrams import (
    admissible_diagrams,
    bratteli_levels,
    eta,
    hecke_dimension,
    is_admissible,
    is_affine_e6,
    path_counts,
    principal_graph_cut,
    reduce_label,
    tree_canonical_arms,
)
from quatbraid.scalar import Scalar


def test_admissibility_predicate():
    assert is_admissible((3,), 3, 6)
    assert not is_admissible((4,), 3, 6)
    assert is_admissible((4, 1, 1), 3, 6)
    assert not is_admissible((2, 1, 1, 1), 3, 6)


def test_admissible_size_3():
    assert admissible_diagrams(3, 6, 3) == [(1, 1, 1), (2, 1), (3,)]


def test_admissible_size_4():
    assert admissible_diagrams(3, 6, 4) == [(2, 1, 1), (2, 2), (3, 1)]


@pytest.mark.parametrize("n", range(3, 13))
def test_admissible_count_is_3_or_4(n):
    assert len(admissible_diagrams(3, 6, n)) in (3, 4)


def test_path_counts_level_3_and_4():
    assert path_counts(3, 6, 3) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
    assert path_counts(3, 6, 4) == {(3, 1): 3, (2, 2): 2, (2, 1, 1): 3}


@pytest.mark.parametrize("n,expected", [(2, 2), (3, 6), (4, 22), (5, 86)])
def test_hecke_dimension(n, expected):
    assert hecke_dimension(3, 6, n) == expected


@pytest.mark.parametrize("n", range(2, 9))
def test_dimension_bounded_by_ambient(n):
    assert hecke_dimension(3, 6, n) <= 4 ** (n - 1)


@pytest.mark.parametrize("route", [path_counts, admissible_diagrams, bratteli_levels])
@pytest.mark.parametrize("k,l,n", [(6, 6, 3), (7, 6, 3), (0, 6, 3), (-1, 6, 3), (3, 6, 0), (3, 6, -1)])
def test_bad_parameters_rejected(route, k, l, n):
    with pytest.raises(ValueError):
        route(k, l, n)


@pytest.mark.parametrize(
    "n, reduced",
    [pytest.param(n, False, id=f"{n}") for n in range(1, 10)]
    + [pytest.param(n, True, id=f"{n}-reduced") for n in range(1, 10)],
)
def test_levels_agree_with_single_level_routes(n, reduced):
    # the suite's dimension[n=k] reads the reduced levels' path counts
    levels = bratteli_levels(3, 6, n, reduced=reduced)
    assert [level.n for level in levels] == list(range(1, n + 1))
    for level in levels:
        assert level.path_counts == path_counts(3, 6, level.n)
        assert level.nodes == admissible_diagrams(3, 6, level.n)
        assert level.dimension == hecke_dimension(3, 6, level.n)


def test_eta_value():
    assert eta(3, 6) == Scalar.of(Fraction(1, 2))


def test_eta_unsupported_root():
    with pytest.raises(ValueError):
        eta(3, 8)


def test_reduce_label():
    assert reduce_label((2, 2, 2), 3) == ()
    assert reduce_label((3, 2, 2), 3) == (1,)
    assert reduce_label((4, 1, 1), 3) == (3,)
    assert reduce_label((3, 1), 3) == (3, 1)


def test_level_node_counts():
    levels = bratteli_levels(3, 6, 7, reduced=True)
    assert [len(lv.nodes) for lv in levels] == [1, 2, 3, 3, 3, 4, 3]


def test_level_dimensions_match_path_model():
    levels = bratteli_levels(3, 6, 5)
    assert [lv.dimension for lv in levels] == [1, 2, 6, 22, 86]


def test_reduced_labels_injective_per_level():
    for lv in bratteli_levels(3, 6, 9, reduced=True):
        labels = list(lv.labels.values())
        assert len(labels) == len(set(labels))


def test_edges_add_one_box():
    for lv in bratteli_levels(3, 6, 6):
        for a, b in lv.edges_to_next:
            assert sum(b) == sum(a) + 1


def test_principal_graph_cut_6_7_is_affine_e6():
    nodes, edges = principal_graph_cut(3, 6, (6, 7))
    assert len(nodes) == 7
    assert is_affine_e6(nodes, edges)


def test_early_cut_is_not_affine_e6():
    nodes, edges = principal_graph_cut(3, 6, (3, 4))
    assert len(nodes) == 6
    assert not is_affine_e6(nodes, edges)


def test_cut_must_be_consecutive():
    with pytest.raises(ValueError):
        principal_graph_cut(3, 6, (4, 6))


def test_tree_canonicalization_rejects_cycles():
    nodes = [1, 2, 3]
    edges = [(1, 2), (2, 3), (3, 1)]
    assert tree_canonical_arms(nodes, edges) is None


def test_tree_canonicalization_path():
    nodes = [1, 2, 3]
    edges = [(1, 2), (2, 3)]
    assert tree_canonical_arms(nodes, edges) == ((2,),)
