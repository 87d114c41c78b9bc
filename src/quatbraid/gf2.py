"""F2 and F4 linear algebra on int bitsets (bit i of a row = column i), by one elimination.

F4 = F2[w]/(w^2 + w + 1).  An F4 vector is a pair (a, b) of F2 bitsets holding
a + b w, and a scalar is the pair of bits c = (1, 0), (0, 1) or (1, 1) for 1, w
and w^2 = w + 1.  `_echelon` is the one Gaussian elimination.  An F2 row r
enters it as (r, 0) and never leaves F2: each pivot entry is 1 already, and every
multiplier is an entry of an F2 row, so every step adds 1 times an F2 row.
"""

from __future__ import annotations

_F4_INVERSE = {(1, 0): (1, 0), (0, 1): (1, 1), (1, 1): (0, 1)}


def f4_times(vec: tuple[int, int], c: tuple[int, int]) -> tuple[int, int]:
    """c * vec; w (a + b w) = b + (a + b) w, so multiplying by w is (a, b) -> (b, a ^ b)."""
    a, b = vec
    return (a if c[0] else 0) ^ (b if c[1] else 0), (b if c[0] else 0) ^ (a ^ b if c[1] else 0)


def f4_add_times(vec: tuple[int, int], c: tuple[int, int], other: tuple[int, int]) -> tuple[int, int]:
    """vec + c * other; in characteristic 2 this is also vec - c * other."""
    a, b = f4_times(other, c)
    return vec[0] ^ a, vec[1] ^ b


def _entry(vec: tuple[int, int], col: int) -> tuple[int, int]:
    return (vec[0] >> col) & 1, (vec[1] >> col) & 1


def _echelon(rows: list[tuple[int, int]], n_cols: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Reduced echelon rows of the F4 row space, each pivot entry 1, and the pivot column of each.

    Each column changes only the rows with a nonzero entry there.
    """
    work = [r for r in rows if r[0] | r[1]]
    pivots: list[int] = []
    for col in range(n_cols):
        rk = len(pivots)
        if rk == len(work):
            break
        pivot = next((i for i in range(rk, len(work)) if (work[i][0] | work[i][1]) >> col & 1), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        head = work[rk] = f4_times(work[rk], _F4_INVERSE[_entry(work[rk], col)])
        for i, row in enumerate(work):
            if i != rk and (row[0] | row[1]) >> col & 1:
                work[i] = f4_add_times(row, _entry(row, col), head)
        pivots.append(col)
    return work[:len(pivots)], pivots


def rank(rows: list[int], n_cols: int) -> int:
    """Rank over F2."""
    return len(_echelon([(r, 0) for r in rows], n_cols)[1])


def nullity(rows: list[int], n_cols: int) -> int:
    return n_cols - rank(rows, n_cols)


def nullspace(rows: list[int], n_cols: int) -> list[int]:
    """Basis of the right nullspace {x : Ax = 0} over F2, one bitset per basis vector."""
    echelon, pivots = _echelon([(r, 0) for r in rows], n_cols)
    return [(1 << f) | sum(1 << p for (a, _), p in zip(echelon, pivots) if (a >> f) & 1)
            for f in range(n_cols) if f not in pivots]


def f4_rank(rows: list[tuple[int, int]], n_cols: int) -> int:
    """Rank over F4 of rows given as (a, b) pairs."""
    return len(_echelon(rows, n_cols)[1])


def f4_nullity(rows: list[tuple[int, int]], n_cols: int) -> int:
    return n_cols - f4_rank(rows, n_cols)
