"""Braid words, evaluation into the algebra, and the closed-braid invariant."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from quatbraid import braids, intspan
from quatbraid.algebra import AlgebraElement
from quatbraid.braids import (
    MAX_BRAIDED_STRANDS,
    MAX_STRANDS,
    BraidWord,
    closed_form,
    components,
    evaluate,
    invariant,
    markov_move_test,
    random_braid,
)
from quatbraid.cover import burau_nullity
from quatbraid.scalar import Scalar, qpow


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


def test_extended_stabilizations_equal_the_invariant():
    rng = random.Random(31)
    words = [random_braid(rng, max_strands=7, max_length=14) for _ in range(60)]
    # the empty word on 1 and 3 strands (its letter moves the span), words
    # without letter 1 (shift > 0) and a word on 7 braided strands
    words += [BraidWord(1), BraidWord(3), BraidWord(5, (2, -3, 3)), BraidWord(6, (4, 4, -5)), BraidWord(7, (1, -6, 3))]
    for beta in words:
        # the state and the values markov_move_test compares
        state, base = braids._word_state(beta)
        assert base == invariant(beta), beta
        for sign in (1, -1):
            assert braids._stabilized(beta, sign, state) == invariant(beta.stabilize(sign)), (beta, sign)


def test_markov_moves_apply_beta_once_and_one_letter_per_stabilization(monkeypatch):
    # with every conjugation trial's letters counted apart, beta's letters run
    # once (for I(beta)) and each stabilization adds its one letter
    beta = BraidWord(4, (3, -2, 1, 2, -3, 3))
    conjugated = []
    real_invariant = braids.invariant
    monkeypatch.setattr(braids, "invariant", lambda b: conjugated.append(len(b.letters)) or real_invariant(b))
    calls = []
    real = intspan.letter
    monkeypatch.setattr(intspan, "letter", lambda vecs, n, a, **kw: calls.append(a) or real(vecs, n, a, **kw))
    assert markov_move_test(beta, trials=3, seed=4)["pass"]
    assert len(conjugated) == 3 and len(calls) == sum(conjugated) + len(beta.letters) + 2


def test_stabilization_past_the_braided_strand_cap_raises_as_invariant_does():
    beta = BraidWord(8, (1, -7, 2))  # braids 8 strands; either stabilization braids 9
    with pytest.raises(ValueError) as want:
        invariant(beta.stabilize(1))
    with pytest.raises(ValueError) as got:
        markov_move_test(beta, trials=1)
    assert str(got.value) == str(want.value) == "the word braids 9 strands; the invariant supports at most 8"


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
        assert sq.b == 0
        assert sq.a in (ns, -ns)


def _algebra_invariant(beta):
    """2^(n-1) zeta^(-2e) Tr(evaluate(beta)) in Q(zeta), the route `invariant` replaces."""
    return Scalar.of(2 ** (beta.strands - 1)) * evaluate(beta).trace() * qpow(-2 * beta.exponent_sum)


def _words(strands, letters, max_size):
    return st.lists(st.sampled_from(letters), max_size=max_size).map(lambda w: BraidWord(strands, tuple(w)))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: _words(n, [s * i for i in range(1, n) for s in (1, -1)], 30)))
def test_integer_invariant_matches_algebra(beta):
    old = _algebra_invariant(beta)
    # the phase zeta^(-2e) c^p c'^m cancels, so the Q(zeta) route is rational too
    assert old.b == 0
    assert invariant(beta) == old


@settings(max_examples=25, deadline=None)
@given(_words(12, [9, 10, 11, -9, -10, -11], 16))
def test_integer_invariant_on_a_high_span(beta):
    # the word braids strands 9..12 only; the other eight are split unknots
    assert invariant(beta) == _algebra_invariant(beta) == closed_form(beta)


def test_untouched_strands_are_split_unknots():
    assert invariant(BraidWord(40, (1,))) == closed_form(BraidWord(40, (1,))) == Scalar.of(2**38)
    assert invariant(BraidWord(40, ())) == closed_form(BraidWord(40, ())) == Scalar.of(2**39)
    trefoil_and_unknots = BraidWord(12, (10, 10, 10))  # trefoil, ten unknots
    assert invariant(trefoil_and_unknots) == closed_form(trefoil_and_unknots) == Scalar.of(-2 * 2**10)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: _words(n, [s * i for i in range(1, n) for s in (1, -1)], 30) if n > 1 else st.just(BraidWord(1))
))
def test_invariant_closed_form(beta):
    # a finding pinned here, not a theorem: I = (-1)^(c-1) (-2)^nu with c the
    # closure's components and nu the F4 nullity of B(w) - I (Burau at t = w)
    want = Scalar.of((-1) ** (components(beta) - 1) * (-2) ** burau_nullity(beta))
    assert invariant(beta) == closed_form(beta) == want


def test_hopf_link_sign():
    # nu = 0 and two components: I = -1, a sign the Seifert oracle's normSq = 2^(2 nu) cannot see
    hopf = BraidWord(2, (1, 1))
    assert components(hopf) == 2 and burau_nullity(hopf) == 0
    assert invariant(hopf) == closed_form(hopf) == Scalar.of(-1)


def test_components():
    assert components(BraidWord(1)) == 1
    assert components(BraidWord(4)) == 4
    assert components(BraidWord(3, (1, 2))) == 1
    assert components(BraidWord(4, (1, -1, 3))) == 3


def test_braided_span_cap():
    with pytest.raises(ValueError, match="braids 39 strands"):
        invariant(BraidWord(40, (1, 38)))
    with pytest.raises(ValueError):
        invariant(BraidWord(MAX_BRAIDED_STRANDS + 1, (1, -MAX_BRAIDED_STRANDS)))
    # the strand bound keeps every printed value below Python's int-to-str digit limit
    assert MAX_STRANDS == 4096 and invariant(BraidWord(MAX_STRANDS, (1,))) == Scalar.of(2**4094)
    with pytest.raises(ValueError, match="at most 4096 strands, got 4097"):
        invariant(BraidWord(MAX_STRANDS + 1, (1,)))


@pytest.mark.parametrize("r", range(6))
def test_long_powers_stay_in_int64(r):
    # s_i^6 = 1, so hundreds of letters give the invariant of r letters; the
    # common factors 2 divided out after each letter keep the vector small
    for letter in (1, -2):
        assert invariant(BraidWord(3, (letter,) * (600 + r))) == invariant(BraidWord(3, (letter,) * r))
