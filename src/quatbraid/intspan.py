"""Exact span closure over the integers: the rank of the T-words.

T_i = 1 + u_i + v_i + u_i v_i has integer coefficients on the word basis, and
multiplication by it on either side is a sum of four signed permutations of
the 4^(n-1) word indices (`t_action`).  Closing {1} under right multiplication
by every T_i, one word length per round and one int64 matrix product per
block of a round, gives the Q-rank of all T-words exactly.  Both factors of
every elementwise multiply are below 2^31, and A @ B is taken only when max|A|
times the columns of A times max|B| is below 2^62, so int64 never wraps
(OverflowError instead).  `hecke.subalgebra_dimension` explains why that rank
is the dimension of the subalgebra generated by the braid generators.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from quatbraid.algebra import Word, mul_words, word_count
from quatbraid.hecke import quad_words

# entry and matrix product bounds; int64 holds the difference of two products
_ENTRY_LIMIT, _PRODUCT_LIMIT = 1 << 31, 1 << 62
# Frontier rows multiplied by one T_i at a time; bounds the batch temporaries.
_BLOCK_ROWS = 16


@functools.lru_cache(maxsize=None)
def t_action(n: int, i: int, left: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Multiplication by T_i = 1 + u_i + v_i + u_i v_i as four signed gathers.

    Returns (sources, signs), each of shape (4, 4^(n-1)), with
    (vec T_i)[y] = sum_k signs[k, y] * vec[sources[k, y]] on word indices,
    or (T_i vec)[y] when left is true.
    """
    size = word_count(n)
    sources = np.empty((4, size), dtype=np.intp)
    signs = np.empty((4, size), dtype=np.int64)
    for k, t in enumerate(quad_words(n, i)):
        for x in range(size):
            w = Word.from_index(n, x)
            sign, y = mul_words(t, w) if left else mul_words(w, t)
            sources[k, y.index] = x
            signs[k, y.index] = sign
    # every caller shares the cached arrays
    sources.flags.writeable = signs.flags.writeable = False
    return sources, signs


def _check(bound: int, limit: int = _ENTRY_LIMIT) -> None:
    if bound >= limit:
        raise OverflowError(f"span closure value could reach 2^{limit.bit_length() - 1}; int64 could wrap")


def _magnitude(*arrays: np.ndarray) -> int:
    """The largest |entry| of the arrays, without an |a| temporary."""
    return max((max(-int(a.min()), int(a.max())) for a in arrays if a.size), default=0)


def _primitive(rows: np.ndarray) -> np.ndarray:
    """Each row divided by the gcd of its entries; zero rows are returned as is."""
    return rows // np.maximum(np.gcd.reduce(rows, axis=-1, keepdims=True), 1)


def _times_t(vecs: np.ndarray, n: int, i: int) -> np.ndarray:
    """vecs T_i for integer coefficient vectors on the word basis, one per row."""
    _check(_magnitude(vecs))
    sources, signs = t_action(n, i)
    return sum(signs[k] * vecs[..., sources[k]] for k in range(4))


def _reduce(vecs: np.ndarray, basis: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Primitive rows spanning vecs modulo the basis, zero at every pivot column.

    The basis is fully reduced, so basis[:, pivots] is diagonal with positive
    pivots d; with L = lcm(d) this is L vecs - (vecs[:, pivots] L/d) @ basis.
    """
    d = basis[np.arange(len(pivots)), pivots]
    lcm = math.lcm(*set(d.tolist()))
    _check(max(lcm, _magnitude(vecs)))
    coeffs = vecs[:, pivots] * (lcm // d)
    used = np.flatnonzero(coeffs.any(axis=0))
    coeffs, rows = coeffs[:, used], basis[used]
    _check(_magnitude(coeffs) * len(used) * _magnitude(rows), _PRODUCT_LIMIT)
    return _primitive(lcm * vecs - coeffs @ rows)


def _insert(basis: np.ndarray, pivots: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fully reduced basis and pivots with vecs added: old rows change in place, new rows last.

    Each new pivot row clears its column in the other rows by `_reduce` with a one-row basis.
    """
    vecs = _reduce(_primitive(vecs), basis, pivots)
    new = []
    for r in range(len(vecs)):
        nonzero = np.flatnonzero(vecs[r])
        if not nonzero.size:
            continue
        p = int(nonzero[0])
        vecs[r] *= np.sign(vecs[r, p])
        for rows in (basis, vecs):
            hit = np.flatnonzero(rows[:, p])
            hit = hit[hit != r] if rows is vecs else hit
            if hit.size:
                rows[hit] = _reduce(rows[hit], vecs[r:r + 1], np.array([p]))
        new.append(p)
    if not new:
        return basis, pivots
    return np.concatenate([basis, vecs[vecs.any(axis=1)]]), np.append(pivots, new)


def t_word_rank(n: int) -> int:
    """Rank over Q of the T-words on n strands, by span closure over Z.

    Each round multiplies the rows the previous round added by every T_i, in
    blocks of _BLOCK_ROWS rows, into a fully reduced echelon basis over Z with
    primitive rows and positive pivots; the span is closed when a round adds nothing.
    """
    size = word_count(n)
    one = np.eye(1, size, Word.identity(n).index, dtype=np.int64)
    basis, pivots = _insert(np.zeros((0, size), dtype=np.int64), np.zeros(0, dtype=np.intp), one)
    start = 0
    while start < len(basis):
        frontier, start = basis[start:].copy(), len(basis)
        for b in range(0, len(frontier), _BLOCK_ROWS):
            for i in range(1, n):
                basis, pivots = _insert(basis, pivots, _times_t(frontier[b:b + _BLOCK_ROWS], n, i))
        if len(basis) > size:
            raise RuntimeError("span closure exceeded the ambient dimension")
    return len(basis)
