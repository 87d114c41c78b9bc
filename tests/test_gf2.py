"""F2 rank and nullspace, and F4 nullity, on int bitsets."""

import functools
import operator

from hypothesis import given
from hypothesis import strategies as st

from quatbraid.gf2 import f4_nullity, nullity, nullspace, rank

bitset_matrices = st.integers(0, 12).flatmap(
    lambda n_cols: st.tuples(
        st.just(n_cols), st.lists(st.integers(0, 2**n_cols - 1), max_size=12)
    )
)


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


@given(bitset_matrices)
def test_rank_plus_nullspace_is_column_count(case):
    n_cols, rows = case
    basis = nullspace(rows, n_cols)
    assert rank(rows, n_cols) + len(basis) == n_cols
    assert nullity(rows, n_cols) == len(basis)
    assert rank(basis, n_cols) == len(basis)  # independent
    for vec in basis:
        assert all(_parity(row & vec) == 0 for row in rows)


def test_small_cases():
    assert rank([], 3) == 0 and nullspace([], 2) == [0b01, 0b10]
    assert rank([0b11, 0b11, 0b01], 2) == 2 and nullspace([0b11, 0b01], 2) == []
    assert nullspace([0b011], 3) == [0b011, 0b100]


def _f4_mul(x: int, y: int) -> int:
    """x y in F4 = F2[w]/(w^2 + w + 1), elements as ints with bit 0 for 1 and bit 1 for w."""
    p = (x if y & 1 else 0) ^ (x << 1 if y & 2 else 0)
    return p ^ 0b111 if p & 0b100 else p


f4_matrices = st.integers(0, 4).flatmap(
    lambda n_cols: st.tuples(
        st.just(n_cols), st.lists(st.lists(st.integers(0, 3), min_size=n_cols, max_size=n_cols), max_size=4)
    )
)


@given(f4_matrices)
def test_f4_nullity_counts_the_kernel(case):
    # |{x in F4^m : A x = 0}| = 4^nullity, by listing all of F4^m
    n_cols, matrix = case
    rows = [
        (sum((e & 1) << j for j, e in enumerate(row)), sum((e >> 1) << j for j, e in enumerate(row)))
        for row in matrix
    ]
    kernel = 0
    for code in range(4**n_cols):
        x = [(code >> (2 * j)) & 3 for j in range(n_cols)]
        if all(functools.reduce(operator.xor, map(_f4_mul, row, x), 0) == 0 for row in matrix):
            kernel += 1
    assert kernel == 4 ** f4_nullity(rows, n_cols)
    if all(e < 2 for row in matrix for e in row):  # an F2 matrix: its F2 nullity is the same exponent
        assert kernel == 4 ** nullity([a for a, _ in rows], n_cols)
