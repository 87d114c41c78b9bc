"""Field arithmetic in Q(zeta), zeta a primitive 6th root of unity."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quatbraid.scalar import ONE, Scalar, ZERO, ZETA, qpow

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(Scalar, rationals, rationals)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())


def test_defining_relation():
    assert ZETA * ZETA == Scalar.of(-1, 1)


def test_unit_modulus():
    assert ZETA * ZETA.conj() == ONE


def test_zeta_cubed_is_minus_one():
    assert ZETA * ZETA * ZETA == Scalar.of(-1)
    assert ONE - ZETA**3 == Scalar.of(2)


@pytest.mark.parametrize(
    "k,expected",
    [
        (0, Scalar.of(1)),
        (1, ZETA),
        (2, Scalar.of(-1, 1)),
        (3, Scalar.of(-1)),
        (-1, Scalar.of(1, -1)),  # conj(zeta) = 1 - zeta
        (6, Scalar.of(1)),
        (-7, Scalar.of(1, -1)),
    ],
)
def test_qpow(k, expected):
    assert qpow(k) == expected


def test_primitivity():
    assert qpow(6) == ONE
    for k in range(1, 6):
        assert qpow(k) != ONE


@pytest.mark.parametrize(
    "value,expected",
    [
        (Scalar.of(2), Fraction(4)),
        (ZETA, Fraction(1)),
        (Scalar.of(Fraction(-1, 2), Fraction(1, 2)), Fraction(1, 4)),  # (zeta-1)/2
    ],
)
def test_norm_sq(value, expected):
    assert value.norm_sq() == expected


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(nonzero_scalars)
def test_inverses(x):
    assert x * x.inverse() == ONE
    assert x / x == ONE


@given(scalars, scalars)
def test_conj_is_ring_involution(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x


@given(scalars, scalars)
def test_norm_multiplicative(x, y):
    assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()


@given(scalars)
def test_norm_nonnegative(x):
    assert x.norm_sq() >= 0


@given(scalars)
def test_json_roundtrip(x):
    a, b = x.to_json()
    assert Scalar(Fraction(a), Fraction(b)) == x
