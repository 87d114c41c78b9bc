"""Braid generators, their relations, the Markov property, and span closure."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatbraid.algebra import AlgebraElement, Word, word_count
from quatbraid.diagrams import hecke_dimension
from quatbraid.hecke import (
    HeckeGenerators,
    _S_COEFF,
    braid_generator,
    braid_generator_inverse,
    idempotent,
    markov_scaling_constants,
    subalgebra_dimension,
    verify_conjugation_table,
    verify_markov,
    verify_relations,
)
from quatbraid.intspan import _cancel, _times_t
from quatbraid.scalar import ONE, Scalar, ZETA


HALF = Scalar.of(Fraction(1, 2))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_relations(n):
    report = verify_relations(n)
    failed = [e for e in report if not e["pass"]]
    assert not failed, failed


@pytest.mark.parametrize("n", [3, 4])
def test_conjugation_table(n):
    report = verify_conjugation_table(n)
    assert all(e["pass"] for e in report), report


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
    assert s_inv.coeff(Word(n, 0, 0)) == coeff
    assert s_inv.coeff(Word(n, 1, 0)) == -coeff


def test_generator_trace():
    # constant coefficient of s_i is (zeta - 1)/2
    s = braid_generator(3, 1)
    assert s.trace() == Scalar.of(Fraction(-1, 2), Fraction(1, 2))


def test_idempotent_trace_product():
    # Tr(f2 f1) = Tr(f2) Tr(f1) = 1/4
    f1, f2 = idempotent(3, 1), idempotent(3, 2)
    assert (f2 * f1).trace() == Scalar.of(Fraction(1, 4))
    assert f1.trace() == HALF


@pytest.mark.parametrize("n", [3, 4, 5])
def test_markov(n):
    report = verify_markov(n)
    assert all(e["pass"] for e in report), report


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
    g = HeckeGenerators.build(4)
    assert len(g.s) == len(g.s_inv) == len(g.f) == 3
    for s, s_inv in zip(g.s, g.s_inv):
        assert s * s_inv == AlgebraElement.one(4)


@pytest.mark.parametrize("n,expected", [(2, 2), (3, 6), (4, 22), (5, 86), (6, 342)])
def test_subalgebra_dimension(n, expected):
    assert subalgebra_dimension(n) == expected == hecke_dimension(3, 6, n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_t_action_matches_sign_algebra(data):
    # s_i = c T_i, so vec T_i must equal (vec * s_i) / c on every word.
    n = data.draw(st.integers(2, 5), label="n")
    i = data.draw(st.integers(1, n - 1), label="i")
    size = word_count(n)
    vec = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)), dtype=np.int64)

    def element(v):
        return AlgebraElement(n, {Word.from_index(n, x): Scalar.of(int(c)) for x, c in enumerate(v)})

    assert element(_times_t(vec, n, i)) == (element(vec) * braid_generator(n, i)).scale(_S_COEFF.inverse())


def test_closure_overflow_guard():
    big = np.array([1 << 31, 1, 0, 0], dtype=np.int64)
    row = np.array([1, 0, 1, 0], dtype=np.int64)
    with pytest.raises(OverflowError):
        _cancel(big, row, 0)
    with pytest.raises(OverflowError):
        _cancel(row, big, 0)
    with pytest.raises(OverflowError):
        _times_t(big, 2, 1)


def test_subalgebra_dimension_range_check():
    with pytest.raises(ValueError):
        subalgebra_dimension(1)
    with pytest.raises(ValueError):
        subalgebra_dimension(7)
