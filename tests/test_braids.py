"""Braid words, evaluation into the algebra, and the closed-braid invariant."""

import random

import pytest

from quatbraid.algebra import AlgebraElement
from quatbraid.braids import (
    BraidWord,
    evaluate,
    invariant,
    markov_move_test,
    random_braid,
)
from quatbraid.scalar import Scalar


def test_letter_validation():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(0, ())
    # JSON gives floats and booleans; only ints are letters and strand counts
    for strands, letters in [(2.5, (1,)), (3, (1.5, 1)), (3.0, (1,)), (True, ()), (3, (True,))]:
        with pytest.raises(ValueError):
            BraidWord(strands, letters)


def test_exponent_sum():
    assert BraidWord(3, (1, -2, 1, -2)).exponent_sum == 0
    assert BraidWord(2, (1, 1, 1)).exponent_sum == 3


def test_evaluate_empty_word():
    assert evaluate(BraidWord(1, ())) == AlgebraElement.one(1)


def test_evaluate_inverse_pair():
    assert evaluate(BraidWord(2, (1, -1))) == AlgebraElement.one(2)


def test_evaluate_cube_is_scalar():
    got = evaluate(BraidWord(2, (1, 1, 1)))
    assert got == -AlgebraElement.one(2)


def test_invariant_anchors():
    assert invariant(BraidWord(1, ())) == Scalar.of(1)
    assert invariant(BraidWord(2, (1,))) == Scalar.of(1)          # stabilized unknot
    assert invariant(BraidWord(2, (1, 1, 1))) == Scalar.of(-2)    # trefoil
    assert invariant(BraidWord(2, (1, 1))) == Scalar.of(-1)       # Hopf link


def test_double_stabilized_unknot():
    assert invariant(BraidWord(3, (1, 2))) == Scalar.of(1)


def test_markov_move_report_shape():
    rep = markov_move_test(BraidWord(2, (1, 1, 1)), trials=4, seed=9)
    assert rep["pass"]
    assert rep["invariant"] == ["-2", "0"]
    with pytest.raises(ValueError):
        markov_move_test(BraidWord(2, (1,)), trials=0)


def test_stabilizations_preserve_invariant():
    beta = BraidWord(2, (1, 1, 1))
    for sign in (1, -1):
        assert invariant(beta.stabilize(sign)) == invariant(beta)


def test_conjugation_preserves_invariant():
    rng = random.Random(11)
    for _ in range(30):
        beta = random_braid(rng, max_strands=4, max_length=8)
        gamma = random_braid(rng, max_strands=4, max_length=4)
        gamma = BraidWord(beta.strands, tuple(
            a for a in gamma.letters if abs(a) < beta.strands
        ))
        assert invariant(beta.conjugate_by(gamma)) == invariant(beta)


def test_phase_magnitude_law():
    # I^2 = +/- 2^k for every braid: normSq is a power of two and the square
    # is +/- normSq.
    rng = random.Random(13)
    for _ in range(40):
        beta = random_braid(rng, max_strands=4, max_length=10)
        val = invariant(beta)
        ns = val.norm_sq()
        assert ns.denominator == 1 and ns.numerator & (ns.numerator - 1) == 0
        sq = val * val
        assert sq.is_rational()
        assert sq.a in (ns, -ns)
