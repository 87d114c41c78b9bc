"""The package's integer linear algebra: T_i tables, T-word traces, span closure, determinant.

T_i = 1 + u_i + v_i + u_i v_i has integer coefficients on the word basis, and
multiplication by it on either side is a sum of four signed permutations of
the 4^(n-1) word indices (`t_action`, expanded from the sign masks of the
word algebra's sign rule, `_sign_masks`).  s_i = (zeta^2/2) T_i and
s_i^-1 = (zeta^4/2)(2 - T_i), so braid letter +i acts on integer vectors as
T_i and -i as 2 - T_i = 1 - u_i - v_i - u_i v_i: the same four sources with
the three non-identity signs negated.  The tables are word-major, one row of four
(source, sign) pairs per target word.  `letter`, the one integer form of a
letter of either sign, applies its table as one `take` along the word axis and
one `np.vecdot` over the four terms, for any leading shape, and holds the 2^31
guard; it reads every entry unless its caller passes a proven bound below 2^31.
`t_word_state` multiplies 1, or the vector of a given state, by one letter at
a time, and `t_word_trace` reads off the identity coefficient;
`braids.invariant` is built on it, and `braids.markov_move_test` extends the
state of beta by each stabilizing letter alone.  No state is changed in place.
Each letter runs in the smallest strand-prefix algebra A_m that holds the
vector so far; the vector grows into A_(|a|+1) as the top-left block of its
eps x nu grid only when a letter a with |a| >= m arrives: `t_action(m, a)` is
`t_action(n, a)` restricted to the words of A_m, since `sign_bits` reads no
bit at or above m - 1 of them.  The state carries a proven bound, times 4 per
letter of either sign (four terms with signs +-1), and only when the bound
reaches 2^31 are the common factors 2 divided out and the vector read.
`_t_word_basis` closes {1} under right multiplication by every T_i through the
same strand prefixes, one step per Hecke coset letter (exact given B1, B2, E1),
for the exact Q-rank of all T-words.  It works on sparse rows {word: Python
int} from start to end, in the n-strand word numbering: `_times_t` multiplies
a row by T_i term by term, signs read off the masks the tables are expanded
from (so the relation check of the tables vouches for them), and `_insert`
keeps the basis fully reduced, with no bound on the entries, in one pass per product.
`hecke.subalgebra_dimensions` explains why that rank is the dimension of the
subalgebra generated by the braid generators.

`exact_determinant`, the package's one determinant, works on Python ints: every
matrix it is given (left T_i matrices, Seifert forms V +- V^T) is integral.
"""

from __future__ import annotations

import collections
import functools
import math

import numpy as np

from quatbraid.algebra import Word, index_masks, quad_words, sign_bits, word_count

# entry bound of `letter`: four terms below 2^31 stay far inside int64
_ENTRY_LIMIT = 1 << 31


@functools.lru_cache(maxsize=None)
def t_action(n: int, a: int, left: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Multiplication by T_i = 1 + u_i + v_i + u_i v_i (letter a = +i) or by
    2 - T_i = 1 - u_i - v_i - u_i v_i (a = -i) as four signed gathers.

    Returns read-only, C-contiguous int64 (sources, signs), each of shape
    (4^(n-1), 4), word-major: (vec T)[y] = sum_k signs[y, k] * vec[sources[y, k]]
    on word indices, or (T vec)[y] when left is true, so the four terms of a
    target word are adjacent.  A product XORs indices, so the k-th word t sends
    source y ^ t to y with sign (-1)^popcount(source & odd), (t, odd) the k-th
    of `_sign_masks(n, i, left)`.  Letter -i shares the sources array of +i;
    its signs are those of +i with columns u_i, v_i, u_i v_i negated.
    """
    i = abs(a)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    if a < 0:
        sources, signs = t_action(n, i, left)
        signs = signs * np.array([1, -1, -1, -1])
    else:
        quad, odd = np.array(_sign_masks(n, i, left)).T
        sources = np.arange(word_count(n))[:, None] ^ quad
        signs = np.where(np.bitwise_count(sources & odd) & 1, -1, 1)
    # every caller shares the cached arrays
    sources.flags.writeable = signs.flags.writeable = False
    return sources, signs


def letter(vecs: np.ndarray, n: int, a: int, left: bool = False, *, bound: int | None = None) -> np.ndarray:
    """vecs T_i for braid letter a = +i and vecs (2 - T_i) for a = -i, on integer
    coefficient vectors over the word basis, one per row (T_i vecs and
    (2 - T_i) vecs when left is true).

    vecs may have any leading shape; the last axis is the word axis.  Callers
    pass one integer vector (`t_word_trace`, the unit row of 1 in
    `hecke.verify_relations`) or 2-D integer rows (the generator-word rows and
    identity matrix of `image_group`); the tests check the closure's sparse
    `_times_t` against it.  The four
    terms of `t_action(n, a, left)` are one `take` of the sources along it,
    shape (..., 4^(n-1), 4), and one `np.vecdot` with the signs over their
    contiguous last axis, the same for either sign of a; vecs and the cached
    table stay unchanged.

    Raises OverflowError when an entry of vecs reaches 2^31, so no product wraps int64.
    vecs is read for that check unless bound, a proven upper bound on max|vecs|
    the caller carries, is below 2^31.  The result is at most 4 bound for
    either sign (four terms with signs +-1).  Every caller passes one:
    `t_word_state` its state's, `hecke.verify_relations` 4^j on the unit row
    times j letters, and `image_group` 1 on its unit rows, or 4 after one letter.
    """
    if bound is None or bound >= _ENTRY_LIMIT:
        _check(_magnitude(vecs))
    sources, signs = t_action(n, a, left)
    return np.vecdot(vecs.take(sources, axis=-1), signs)


def _check(bound: int) -> None:
    if bound >= _ENTRY_LIMIT:
        raise OverflowError("an integer value could reach 2^31; int64 could wrap")


def _magnitude(*arrays: np.ndarray) -> int:
    """The largest |entry| of the arrays, without an |a| temporary."""
    return max((max(-int(a.min()), int(a.max())) for a in arrays if a.size), default=0)


def _primitive(row: dict[int, int], pivot: int) -> dict[int, int]:
    """row, which has no zero entries, divided by the gcd of its entries and signed so that row[pivot] > 0."""
    g = math.gcd(*row.values()) * (1 if row[pivot] > 0 else -1)
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _cofactor(row: dict[int, int], y: int, pivot: int) -> int:
    """row times pivot/g in place, g = gcd(y, pivot); returns y/g, the multiple of the pivot's row to subtract."""
    g = math.gcd(y, pivot)
    for c in row:
        row[c] *= pivot // g
    return y // g


def _insert(rows: dict[int, dict[int, int]], holders: dict[int, set[int]], vec: dict[int, int]) -> int | None:
    """Add the sparse row vec (given up by the caller, zero entries allowed) to the
    fully reduced basis `rows`, pivot -> row, with `holders`, a defaultdict(set) from
    each column to the pivots of the rows nonzero there; return the new pivot, or
    None if vec lies in the span.  vec is reduced in place by the rows of the pivots
    where it is nonzero, each zero at the other pivots; its first nonzero column q is
    the new pivot, cleared from the rows that hold it.  Rows are replaced, never changed.
    """
    for p, row in [(c, rows[c]) for c, v in vec.items() if v and c in rows]:
        y = vec[p] if row[p] == 1 else _cofactor(vec, vec[p], row[p])  # pivots are mostly 1
        for c, v in row.items():
            vec[c] = vec.get(c, 0) - y * v
    vec = {c: v for c, v in vec.items() if v}
    if not vec:
        return None
    q = min(vec)
    vec = _primitive(vec, q)
    for p in holders.pop(q, ()):
        new = dict(rows[p])
        y = new[q] if vec[q] == 1 else _cofactor(new, new[q], vec[q])
        for c, v in vec.items():  # the index changes only where a row gains or loses a column
            if c not in new:
                new[c] = -y * v
                holders[c].add(p)
            elif t := new[c] - y * v:
                new[c] = t
            else:  # column q drops out of every row here
                del new[c]
                holders[c].discard(p)
        rows[p] = _primitive(new, p)
    rows[q] = vec
    for c in vec:
        holders[c].add(q)
    return q


# The state of the empty T-word: the 1-strand vector 1, m = 1, k = 0, bound 1.
_START = (np.ones(1, dtype=np.int64), 1, 0, 1)
_START[0].flags.writeable = False


def t_word_state(n: int, letters: list[int], state: tuple = _START) -> tuple[np.ndarray, int, int, int]:
    """The state (vec, m, k, bound) after multiplying the state's T-word on the
    right by T_i (letter +i) and 2 - T_i (letter -i), one letter at a time;
    from the empty word by default.  2^k vec is the product on the m-strand
    words and bound >= max|vec|.  Raises ValueError for a letter a = 0 or
    |a| >= n.  A state is never changed, so one state can be extended by
    several words: that of beta by both its stabilizing letters, that of a
    prefix by each word it begins.

    The vector starts as the 1-entry vector of the 1-strand algebra and lives
    in the m-strand algebra, m the most strands its letters so far need.  A
    letter a with |a| >= m first grows it by `_embed` to |a| + 1 strands; the
    rest run in 4^(m-1) entries, not 4^(n-1).  That is exact: the m-strand
    words are the (n-strand) words with no bit at or above m - 1 in eps or nu,
    those words times u_i, v_i (i < m) stay among them, and `sign_bits` reads
    no such bit, so `t_action(m, a)` is `t_action(n, a)` restricted to that
    block.  The padding is zeros, so it changes no bound, no factor 2 and no
    guard, and word 0 is the identity at every m.

    A bound on max|vec|, times 4 per letter, is carried.  Only when it reaches
    2^31 are the common factors 2 divided out of vec (the image group is
    finite, so that keeps the entries bounded over long words) and vec read
    for its exact max|vec|, which replaces the bound.  Dividing by a power of
    2 commutes with the integer-linear letters, so the vector divided there is
    the one a division after every letter would hold; `letter` therefore raises
    OverflowError on the same letter as a read of every entry before every
    letter would, and below the bound no entry can reach 2^31.  The state after
    a word w then w' is the state after the word w w', so resuming runs the
    same integer operations as one pass over w w'.
    """
    vec, m, k, bound = state
    for a in letters:
        if bound >= _ENTRY_LIMIT:
            twos = _twos(int(np.bitwise_or.reduce(vec)))
            vec = vec >> twos  # a new array: the given state keeps its vector
            k += twos
            bound = _magnitude(vec)
        i = abs(a)
        if i >= m:
            if i >= n:
                raise ValueError(f"generator index {i} out of range for n={n}")
            vec, m = _embed(vec, m, i + 1), i + 1
        vec = letter(vec, m, a, bound=bound)
        bound *= 4
    return vec, m, k, bound


def t_word_trace(n: int, letters: list[int], state: tuple = _START) -> tuple[int, int]:
    """(t, k) with 2^k t the identity coefficient of the state's T-word times
    the letters (`t_word_state`), from the empty word by default: the product
    of T_i (letter +i) and 2 - T_i (letter -i), multiplied on the right
    starting from 1.  t is odd, or (t, k) = (0, 0).  Raises ValueError for a
    letter a = 0 or |a| >= n."""
    vec, _, k, _ = t_word_state(n, letters, state)
    t = int(vec[0])
    if not t:
        return 0, 0
    twos = _twos(t)
    return t >> twos, k + twos


def _embed(vecs: np.ndarray, m: int, n: int) -> np.ndarray:
    """m-strand coefficient vectors as the n-strand ones (m <= n), along the last
    axis of any leading shape: the words (eps, nu) keep their masks, at index
    eps 2^(n-1) + nu, and every other entry is 0."""
    side, big, lead = 1 << (m - 1), 1 << (n - 1), vecs.shape[:-1]
    grid = np.zeros(lead + (big, big), dtype=vecs.dtype)
    grid[..., :side, :side] = vecs.reshape(lead + (side, side))
    return grid.reshape(lead + (-1,))


def _twos(x: int) -> int:
    """The exponent of 2 in x; 0 for x = 0."""
    return (x & -x).bit_length() - 1 if x else 0


def t_word_ranks(n: int) -> list[int]:
    """Ranks over Q of the T-words on 1..n strands, in that order, from one span
    closure over Z (`_t_word_basis`)."""
    return _t_word_basis(n)[1]


def _t_word_basis(n: int) -> tuple[dict[int, dict[int, int]], list[int]]:
    """The span of the T-words on n strands as a fully reduced echelon basis over
    Z, sparse primitive rows on the n-strand words keyed by their positive
    pivots, in the order found; and the rank after each stage m = 1..n.

    That form is unique: the pivots are the leading columns of the span, and the
    row of pivot p is its one primitive vector zero at the other pivots and
    positive at p.  The m-strand words are the n-strand words with no bit at or
    above m - 1 in eps or nu, in the same (eps, nu) order, and T_c (c < m) keeps
    them among themselves (see `t_word_state`).  So stage m starts from the
    (m-1)-strand basis as it is, whose span H_(m-1) is closed under T_1..T_(m-2).
    Step 1 multiplies the whole basis by T_(m-1), and step k only the rows
    W_(k-1) that step k - 1 added, by T_(m-k).  The span S_k after k steps is
    the sum of H_(m-1) T_(m-1)...T_j over j >= m - k.  The next letter T_c,
    c = m - k - 1, lies in H_(m-1) and commutes (B2) with T_(m-1)..T_(m-k+1),
    so S_(k-1) T_c lies in S_(k-1) and S_(k+1) = S_k + W_k T_c.  The sum over
    all j is closed under every T_i given B1, B2 and E1 (T^2 = 2T - 4), the
    coset decomposition of the Hecke algebra (Jones 1987; Geck-Pfeiffer 2000, 4.4).

    The rank is at most (4^(n-1) + 2)/3: sigma(x) = s(x) Jx (`image_group.sigma`,
    J(eps, nu) = (eps ^ nu, eps)) is an algebra automorphism fixing each T_i, so
    the T-words lie in Fix(sigma), spanned by 1 and one signed sum per J-orbit
    {x, Jx, J^2 x} (J fixes only word 0, sigma^3 = 1).  The tests pin each row
    at n = 2..7 as such a sum, row[Jx] = s(x) row[x], or as word 0 alone.
    """
    rows, holders, ranks = {0: {0: 1}}, collections.defaultdict(set, {0: {0}}), [1]
    for m in range(2, n + 1):
        frontier = list(rows.values())
        for c in range(m - 1, 0, -1):
            added = [_insert(rows, holders, _times_t(row, n, c)) for row in frontier]
            if len(rows) > word_count(m):
                raise RuntimeError("span closure exceeded the ambient dimension")
            frontier = [rows[p] for p in added if p is not None]
        ranks.append(len(rows))
    return rows, ranks


def _times_t(row: dict[int, int], n: int, c: int) -> dict[int, int]:
    """The sparse row times T_c on n strands, by the word sign rule: each entry
    (x, v) and each word t of T_c add +-v at x ^ t, - when x & odd has odd
    count, odd the sign mask of t (`_sign_masks`).  Zero sums stay as entries."""
    terms = _sign_masks(n, c)
    out: dict[int, int] = {}
    for x, v in row.items():
        for t, odd in terms:
            y = x ^ t
            out[y] = out.get(y, 0) + (-v if (x & odd).bit_count() & 1 else v)
    return out


@functools.lru_cache(maxsize=None)
def _sign_masks(n: int, c: int, left: bool = False) -> tuple[tuple[int, int], ...]:
    """(t, odd) for each word index t of T_c on n strands: word x times word t (t
    times x when left is true) has sign -1 exactly when (x & odd).bit_count() is
    odd.  The one place the term signs are read off the sign rule, for `t_action`
    and `_times_t`: the parity of `sign_bits` is bilinear over GF(2) in the index
    bits of its two words, so bit j of odd is that parity with x = 2^j."""
    def odd(t: Word) -> int:
        bits = (sign_bits(t.eps, t.nu, *x) if left else sign_bits(*x, t.eps, t.nu)
                for x in (index_masks(n, 1 << j) for j in range(2 * n - 2)))
        return sum((b.bit_count() & 1) << j for j, b in enumerate(bits))

    return tuple((t.index, odd(t)) for t in quad_words(n, c))


def exact_determinant(mat: list[list[int]]) -> int:
    """det of a square integer matrix by fraction-free elimination (Bareiss, 1968).

    After step k the rows below k hold (k+1) x (k+1) minors, so each division
    by the previous pivot is exact.
    """
    m = [list(row) for row in mat]
    sign, prev = 1, 1
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        p, top = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            row[k + 1:] = [(x * p - row[k] * y) // prev for x, y in zip(row[k + 1:], top)]
        prev = p
    return sign * prev
