"""Exact span closure over the integers: the rank of the T-words.

T_i = 1 + u_i + v_i + u_i v_i has integer coefficients on the word basis, and
right multiplication by it is a sum of four signed permutations of the
4^(n-1) word indices.  Closing {1} under right multiplication by every T_i and
row-reducing fraction-free over Z gives the Q-rank of all T-words exactly,
with int64 numpy vectors, no floating point and no modular arithmetic.
`hecke.subalgebra_dimension` explains why that rank is the dimension of the
subalgebra generated by the braid generators.
"""

from __future__ import annotations

import functools

import numpy as np

from quatbraid.algebra import Word, mul_words, word_count

# Every entry stays below this bound before it is multiplied, so a product of
# two entries is below 2^62 and a difference of two such products fits int64.
_ENTRY_LIMIT = 1 << 31


@functools.lru_cache(maxsize=None)
def _t_action(n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Right multiplication by T_i = 1 + u_i + v_i + u_i v_i as four signed gathers.

    Returns (sources, signs), each of shape (4, 4^(n-1)), with
    (vec T_i)[y] = sum_k signs[k, y] * vec[sources[k, y]] on word indices.
    """
    bit = 1 << (i - 1)
    terms = [Word(n, 0, 0), Word(n, bit, 0), Word(n, 0, bit), Word(n, bit, bit)]
    size = word_count(n)
    sources = np.empty((4, size), dtype=np.intp)
    signs = np.empty((4, size), dtype=np.int64)
    for k, t in enumerate(terms):
        for x in range(size):
            sign, y = mul_words(Word.from_index(n, x), t)
            sources[k, y.index] = x
            signs[k, y.index] = sign
    return sources, signs


def _check_entries(*vecs: np.ndarray) -> None:
    for v in vecs:
        if np.abs(v).max() >= _ENTRY_LIMIT:
            raise OverflowError("span closure entry reached 2^31; int64 could wrap")


def _primitive(v: np.ndarray) -> np.ndarray:
    """v divided by the gcd of its entries; the zero vector is returned as is."""
    g = np.gcd.reduce(v)
    return v // g if g > 1 else v


def _times_t(vec: np.ndarray, n: int, i: int) -> np.ndarray:
    """vec T_i for an integer coefficient vector on the word basis."""
    _check_entries(vec)
    sources, signs = _t_action(n, i)
    return (signs * vec[sources]).sum(axis=0)


def _cancel(v: np.ndarray, row: np.ndarray, p: int) -> np.ndarray:
    """Primitive part of row[p] v - v[p] row, whose entry at p is zero."""
    _check_entries(v, row)
    return _primitive(row[p] * v - v[p] * row)


def t_word_rank(n: int) -> int:
    """Rank over Q of the T-words on n strands, by span closure over Z.

    Starting from 1, every new vector is multiplied by every T_i and the
    primitive product is inserted into a fraction-free echelon basis over Z:
    primitive rows, positive pivots, and each pivot column zero in every other
    row.  The span stops growing exactly when it is closed under all T_i.
    Entries are checked against 2^31 before every multiply, so the int64
    arithmetic never wraps (OverflowError instead).
    """
    basis: dict[int, np.ndarray] = {}

    def insert(vec: np.ndarray) -> bool:
        v = vec
        for p in [p for p in basis if v[p]]:
            v = _cancel(v, basis[p], p)
        nonzero = np.flatnonzero(v)
        if not nonzero.size:
            return False
        pivot = int(nonzero[0])
        if v[pivot] < 0:
            v = -v
        # keep the basis fully reduced: clear the new pivot column elsewhere
        for p, row in basis.items():
            if row[pivot]:
                basis[p] = _cancel(row, v, pivot)
        basis[pivot] = v
        return True

    one = np.zeros(word_count(n), dtype=np.int64)
    one[Word.identity(n).index] = 1
    insert(one)
    frontier = [one]
    while frontier:
        new_frontier = []
        for vec in frontier:
            for i in range(1, n):
                prod = _primitive(_times_t(vec, n, i))
                if insert(prod):
                    new_frontier.append(prod)
        frontier = new_frontier
        if len(basis) > word_count(n):
            raise RuntimeError("span closure exceeded the ambient dimension")
    return len(basis)
