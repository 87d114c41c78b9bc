"""F2 rank and nullspace on int bitsets."""

from hypothesis import given
from hypothesis import strategies as st

from quatbraid.gf2 import nullity, nullspace, rank

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
