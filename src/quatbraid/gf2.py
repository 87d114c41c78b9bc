"""F2 linear algebra on int bitsets (bit i of a row = column i)."""

from __future__ import annotations


def _echelon(rows: list[int], n_cols: int) -> tuple[list[int], list[int]]:
    """Reduced echelon rows of the F2 row space and the pivot column of each."""
    work = [r for r in rows if r]
    pivots: list[int] = []
    for col in range(n_cols):
        rk = len(pivots)
        if rk == len(work):
            break
        pivot = next((i for i in range(rk, len(work)) if (work[i] >> col) & 1), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        for i in range(len(work)):
            if i != rk and ((work[i] >> col) & 1):
                work[i] ^= work[rk]
        pivots.append(col)
    return work[:len(pivots)], pivots


def rank(rows: list[int], n_cols: int) -> int:
    """Rank over F2 by Gaussian elimination."""
    return len(_echelon(rows, n_cols)[1])


def nullity(rows: list[int], n_cols: int) -> int:
    return n_cols - rank(rows, n_cols)


def nullspace(rows: list[int], n_cols: int) -> list[int]:
    """Basis of the right nullspace {x : Ax = 0}, one bitset per basis vector."""
    echelon, pivots = _echelon(rows, n_cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(n_cols):
        if f in pivot_set:
            continue
        vec = 1 << f
        for row, pcol in zip(echelon, pivots):
            if (row >> f) & 1:
                vec |= 1 << pcol
        basis.append(vec)
    return basis
