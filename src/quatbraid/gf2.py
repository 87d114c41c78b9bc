"""F2 and F4 linear algebra on int bitsets (bit i of a row = column i)."""

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


# --- F4 = F2[w]/(w^2 + w + 1) ------------------------------------------------
# An F4 vector is a pair (a, b) of F2 bitsets holding a + b w, and a scalar is
# the pair of bits c = (1, 0), (0, 1) or (1, 1) for 1, w and w^2 = w + 1.
_F4_INVERSE = {(1, 0): (1, 0), (0, 1): (1, 1), (1, 1): (0, 1)}


def f4_times(vec: tuple[int, int], c: tuple[int, int]) -> tuple[int, int]:
    """c * vec; w (a + b w) = b + (a + b) w, so multiplying by w is (a, b) -> (b, a ^ b)."""
    a, b = vec
    return (a if c[0] else 0) ^ (b if c[1] else 0), (b if c[0] else 0) ^ (a ^ b if c[1] else 0)


def f4_rank(rows: list[tuple[int, int]], n_cols: int) -> int:
    """Rank over F4 of rows given as (a, b) pairs, by Gaussian elimination."""
    work = [r for r in rows if r[0] | r[1]]
    rk = 0
    for col in range(n_cols):
        if rk == len(work):
            break
        entry = [((a >> col) & 1, (b >> col) & 1) for a, b in work]
        pivot = next((i for i in range(rk, len(work)) if entry[i] != (0, 0)), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        entry[rk], entry[pivot] = entry[pivot], entry[rk]
        head = f4_times(work[rk], _F4_INVERSE[entry[rk]])  # pivot entry 1
        for i in range(rk + 1, len(work)):
            if entry[i] != (0, 0):
                scaled = f4_times(head, entry[i])
                work[i] = (work[i][0] ^ scaled[0], work[i][1] ^ scaled[1])
        rk += 1
    return rk


def f4_nullity(rows: list[tuple[int, int]], n_cols: int) -> int:
    return n_cols - f4_rank(rows, n_cols)
