"""Conjugation action of the braid generators as signed permutations of words.

Conjugating any basis word by s_i yields plus or minus a single basis word, so
each generator acts on the 4^(n-1) words by a signed permutation.  Closing
the generated set under composition gives the image of the braid group
modulo the central kernel of the action; its order and the order of its own
center are what the finiteness statement predicts.

The closure is a breadth-first search that handles one BFS level at a time.
An element is a row of signed codes 2*target + (sign < 0), one per word, and
each generator table is indexed by signed code, signed[2x + s] = table[x] ^ s.
A signed table is a permutation of the 2*4^(n-1) signed codes, so its inverse
permutation, one argsort, is the signed table of the inverse element.  Each
generator's order is read off the powers of its whole signed table, which
does not rest on the key premise below.
Every element is a composition of conjugations by units of the algebra, hence
an algebra automorphism, and the u_i, v_i generate the algebra, so its codes
at those 2(n-1) words, its key, fix it.  The BFS keeps key rows only: applying
a generator after an element reads each word's code at that same word, so the
next level's keys are one table gather per level.  The central test compares
a.el with el.a on each u_i, v_i: el.a(x) = el(+-w), w a product of u_j, v_j,
is on the same premise the product of el's key codes at those words by the
word sign rule (`_mul_codes`).  Each central hit is still rebuilt along its
BFS path (the generator and parent of each element) and checked on every word.

A key has 2(n-1) <= 8 codes, and each target is below 4^(n-1) <= 256, so
for n <= MAX_N = 5 the targets of a key, padded to 8 codes with code 0 (word
0 is 1, fixed by every table), are the 8 bytes of one uint64 and its signs
those of a second; the tables' gathers write those bytes straight into the
buffers a level step sorts.  New elements are found by one value sort of
the words (low 32 bits of the targets) << 32 | position: the low half holds
the targets of key codes 0..3 (u_1..u_4 at n = 5; u_1..u_3, v_1 at n = 4;
the whole key at n <= 3), and the position breaks ties, so each run of equal
low halves starts with its first copy, which is kept.  A level is thus in
low-half order.  Every pair of rows the sort merges must agree in its whole
target word, else RuntimeError says the low halves collided, and in its sign
word, else the pair is an element that changes signs only, a nontrivial
sign kernel, and RuntimeError says so.  So the result is that of
comparing whole signed codes; the low halves of the 3, 12, 648 and 77,760
elements at n = 2..5 are distinct (the low 24 bits would not be).

The conjugation action and the left-regular matrices both come from the
integer letters T_i and 2 - T_i of `intspan.letter`; the action applies them to
u_i, v_i only and the rest follows by `_mul_codes`, on the keys' premise.  The
left-regular determinant of s_i = S_COEFF T_i is S_COEFF^(4^(n-1)) times the
integer det(T_i), so the only Q(zeta) step is that one scalar product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from quatbraid.algebra import Word, center, index_masks, sign_bits, word_count
from quatbraid.hecke import S_COEFF
from quatbraid.intspan import exact_determinant, letter
from quatbraid.scalar import Scalar


class NotASignedWordError(RuntimeError):
    """A conjugate failed to be +/- a single basis word (would falsify finiteness)."""


@dataclass(frozen=True, eq=False)
class SignedPermutation:
    """Signed permutation of word indices as a row of signed codes.

    codes[x] = 2*target + (sign < 0) in uint16, which fits for n <= 8.
    `compose` is the whole-row composition the tests hold the BFS's gathers to.
    """

    n: int
    codes: np.ndarray  # uint16, shape (4^(n-1),)

    def __post_init__(self):
        if 2 * len(self.codes) > 1 << 16:
            raise OverflowError(f"signed codes do not fit in uint16 for n={self.n}")

    def compose(self, other: SignedPermutation) -> SignedPermutation:
        """self after other: x -> self(other(x)), signs multiplying along the way."""
        if self.n != other.n:
            raise ValueError("strand mismatch")
        return SignedPermutation(self.n, _after(_signed(self.codes), other.codes))


@functools.lru_cache(maxsize=None)
def conjugation_action(i: int, n: int) -> SignedPermutation:
    """Signed permutation w -> s_i^-1 w s_i on the word basis, cached per (i, n)
    with read-only codes, as `intspan.t_action` is, so every check reads one table.

    s_i = c T_i and s_i^-1 = c' (2 - T_i) with T_i = 1 + u_i + v_i + u_i v_i
    and c c' = 1/4, so the conjugate is (1/4)(2 - T_i) w T_i.  Letter +i on the
    right of the unit rows of the words u_i, v_i, then letter -i on the left,
    must give +-4 times one word each.  Conjugation is an automorphism, so every
    other word's code is the product of its factors' codes in normal-form order.
    """
    base = _generator_words(n)
    rows = (np.arange(word_count(n)) == base[:, None]).astype(np.int64)
    conj = letter(letter(rows, n, i, bound=1), n, -i, left=True, bound=4)
    coeff = conj.sum(axis=1)
    bad = (np.count_nonzero(conj, axis=1) != 1) | (np.abs(coeff) != 4)
    if bad.any():
        w = Word.from_index(n, int(base[bad.argmax()]))
        raise NotASignedWordError(f"conjugate of {w} is not +-4 times one word")
    words, codes = np.arange(word_count(n)), np.zeros(word_count(n), dtype=np.uint16)
    for x, code in zip(base, (2 * np.nonzero(conj)[1] + (coeff < 0)).astype(np.uint16)):
        codes = np.where(words & x, _mul_codes(codes, code, n), codes)
    codes.flags.writeable = False
    return SignedPermutation(n, codes)


# The default cap on the elements a group enumeration may find, the largest n it
# supports (the BFS packs a key's targets into one byte each of one uint64), and
# the largest generator order `_order` looks for before it stops as runaway.
MAX_ELEMENTS, MAX_N, MAX_ORDER = 2_000_000, 5, 10**6


class EnumerationCapExceeded(RuntimeError):
    def __init__(self, cap: int, partial: int):
        super().__init__(f"group enumeration exceeded cap {cap} (saw {partial} elements)")
        self.cap = cap
        self.partial = partial


def _generator_words(n: int) -> np.ndarray:
    """Indices of the words u_1..u_{n-1}, v_1..v_{n-1}, which generate the algebra."""
    bits = [1 << i for i in range(n - 1)]
    return np.array(
        [Word(n, b, 0).index for b in bits] + [Word(n, 0, b).index for b in bits], dtype=np.intp
    )


def _signed(table: np.ndarray) -> np.ndarray:
    """The code row `table` indexed by signed code: signed[2*x + s] = table[x] ^ s."""
    return (table[:, None] ^ np.array([0, 1], dtype=table.dtype)).ravel()


def _after(signed: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The elements with signed tables `signed` (one, or stacked) applied after the signed codes `codes`."""
    return np.take(signed, codes, axis=-1)


def _signed_tables(n: int) -> np.ndarray:
    """The signed tables of s_1..s_{n-1}, then of their inverses: the inverse permutations of those."""
    actions = [_signed(conjugation_action(i, n).codes) for i in range(1, n)]
    return np.stack(actions + [np.argsort(a).astype(np.uint16) for a in actions])


def _order(signed: np.ndarray) -> int:
    """The least k <= MAX_ORDER with signed^k = 1, from the powers of the whole signed table."""
    identity, power = np.arange(len(signed)), signed
    for k in range(1, MAX_ORDER + 1):
        if np.array_equal(power, identity):
            return k
        power = _after(signed, power)
    raise RuntimeError("runaway order computation")


def _mul_codes(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Signed codes of the products of the words with signed codes a and b (arrays), by the sign rule."""
    ta, tb = a >> 1, b >> 1
    odd = np.bitwise_count(sign_bits(*index_masks(n, ta), *index_masks(n, tb))) & 1
    return ((ta ^ tb) << 1) | ((a ^ b ^ odd) & 1)


def _new_rows(targets: np.ndarray, signs: np.ndarray, known: int) -> np.ndarray:
    """Positions, counted from `known`, of the first copy of each row of
    targets[known:] that equals no row of targets[:known], in the order of the
    low 32 bits of their targets.

    Rows are told apart by that low half alone: one sort of the words
    (low half << 32) | position (a level step has far fewer than 2^32 rows)
    puts each run of equal low halves in position order, so its first word is
    its first copy, and the run is known exactly when that copy lies below
    `known`.  Raises RuntimeError if two rows of a
    run differ in their whole targets (the low halves collided) or in their
    signs (a sign kernel), so the result is that of whole signed codes."""
    key = (targets << np.uint64(32)) | np.arange(len(targets), dtype=np.uint64)
    key.sort()
    order = key.view(np.int64) & 0xFFFFFFFF
    key >>= np.uint64(32)  # now the sorted low halves
    merged = key[1:] == key[:-1]
    for words, message in (
        (targets, "low target halves collided: two elements agree on the low 32 bits of their targets only"),
        (signs, "sign kernel: two elements agree on every target but not on every sign"),
    ):
        ranked = words[order]
        if ((ranked[1:] != ranked[:-1]) & merged).any():
            raise RuntimeError(message)
        del ranked  # freed before the next gather, which lowers the peak memory
    first = order[np.flatnonzero(np.concatenate([[True], ~merged]))]
    return first[first >= known] - known


# links[L-1] = (gen, parent): row k of BFS level L is signed[gen[k]] after row parent[k] of level L-1.
Links = list[tuple[np.ndarray, np.ndarray]]


def _bfs_levels(signed: np.ndarray, base: np.ndarray, cap: int) -> Iterator[tuple[np.ndarray, Links]]:
    """The closure of the stacked signed tables `signed`, one BFS level (distance from 1) at a time.

    Yields each level's key rows, the codes at the words `base`, with the
    links of the levels so far.  The tables are closed under inverses, so
    every neighbour of level L lies in level L-1, L or L+1: new rows are told
    apart from the last two levels only.  Raises EnumerationCapExceeded as
    soon as more than cap elements are found, before their level is yielded.

    A level's keys are padded to 8 codes with code 0, which every table fixes
    (word 0 is 1), so each table's gather of a key row is 8 target bytes, one
    uint64, and 8 sign bytes, a second.  Each level step fills one uint64
    buffer of targets and one of signs: the packed rows of the last two levels
    first, then each table's gather of every key, table by table, so candidate
    row gen * len(keys) + parent is signed[gen] after key row parent.  The
    first copy of each new row is kept, in the order of the low 32 bits of
    its targets (`_new_rows`); two rows that agree there but not in their
    whole targets or signs raise RuntimeError.
    """
    assert not signed[:, 0].any(), "every table must fix word 0, the code the keys are padded with"
    targets_of, signs_of = (signed >> 1).astype(np.uint8), (signed & 1).astype(np.uint8)
    # the packed (targets, signs) rows of the level before and of this one, first the identity
    before, level = np.empty((2, 0), dtype=np.uint64), np.zeros((2, 1), dtype=np.uint64)
    level.view(np.uint8)[0, : len(base)] = base
    links: Links = []
    found = 1
    while True:
        targets, signs = level.view(np.uint8).reshape(2, -1, 8)
        keys = (targets.astype(np.uint16) << 1) | signs
        yield keys[:, : len(base)], links
        known = before.shape[1] + level.shape[1]
        rows = np.empty((2, known + len(signed) * len(keys)), dtype=np.uint64)
        rows[:, : before.shape[1]] = before
        rows[:, before.shape[1] : known] = level
        # every key code is a table's output, so in range; mode "raise" would buffer `out`
        for table, out in zip((targets_of, signs_of), rows[:, known:]):
            np.take(table, keys, axis=1, out=out.view(np.uint8).reshape(len(signed), len(keys), 8), mode="clip")
        fresh = _new_rows(*rows, known)
        if not fresh.size:
            return
        found += len(fresh)
        if found > cap:
            raise EnumerationCapExceeded(cap, found)
        links.append(np.divmod(fresh, len(keys)))
        before, level = level, rows.take(known + fresh, axis=1)


def _full_row(signed: np.ndarray, links: Links, k: int) -> np.ndarray:
    """The code row on every word of element k of the last level in links,
    composed from the generator tables along its path back to the identity."""
    path = []
    for gen, parent in reversed(links):
        path.append(gen[k])
        k = parent[k]
    row = 2 * np.arange(len(signed[0]) // 2, dtype=np.uint16)
    for g in reversed(path):
        row = _after(signed[g], row)
    return row


def _central_checks(actions: np.ndarray, base: np.ndarray) -> list[tuple]:
    """(a, k, sign, factors) for each signed table a and key word x = base[k]:
    a(x) = (-1)^sign times the product of the words base[factors], in base
    order.  Each key word is one bit of the word index, so factors are those
    whose bit a(x) >> 1 has.  The checks with one factor, no product, come first."""
    checks = [
        (a, k, code & 1, np.flatnonzero(base & (code >> 1))) for a in actions for k, code in enumerate(a[2 * base])
    ]
    return sorted(checks, key=lambda check: len(check[3]))


def _central_rows(keys: np.ndarray, links: Links, signed: np.ndarray, checks: list[tuple]) -> list[np.ndarray]:
    """The full code rows of the elements of one level that commute with every action.

    Each of `checks` (from `_central_checks`) compares a.el with el.a on one
    word u_i, v_i and one action a, on the keys that passed every comparison
    before; el.a is the product of the key codes at the factors.  The test
    stops once no key is left.  The full row of each element that passes is
    rebuilt from `links` and checked to commute with every table of `signed`
    on every word.
    """
    n = keys.shape[1] // 2 + 1
    alive = np.arange(len(keys))
    for a, k, sign, factors in checks:
        if not alive.size:
            return []
        el_a = keys[alive, factors[0]]
        for f in factors[1:]:
            el_a = _mul_codes(el_a, keys[alive, f], n)
        alive = alive[(el_a ^ sign) == _after(a, keys[alive, k])]
    central = [_full_row(signed, links, k) for k in alive]
    for row in central:
        # a[::2] is the unsigned code row of a
        if not all(np.array_equal(_after(_signed(row), a[::2]), _after(a, row)) for a in signed):
            raise RuntimeError("element commutes on u_i, v_i but not on every word")
    return central


def enumerate_group(n: int, max_elements: int = MAX_ELEMENTS) -> dict:
    """BFS closure of the conjugation image; order, projective order, diagnostics.

    The projective order divides out the center of the enumerated permutation
    group itself (elements commuting with every generator).  Central kernel
    information for the full group is reported separately: the action kills
    scalars always, plus the nontrivial central words when there are any.
    levelSizes counts the elements at each distance from the identity.
    """
    if not 2 <= n <= MAX_N:
        raise ValueError(f"supported range is 2 <= n <= {MAX_N}")
    if max_elements < 1:
        raise ValueError(f"the element cap must be a positive integer, got {max_elements}")
    signed = _signed_tables(n)
    base = _generator_words(n)
    checks = _central_checks(signed[: n - 1], base)
    sizes = []
    central = 0
    for keys, links in _bfs_levels(signed, base, max_elements):
        sizes.append(len(keys))
        central += len(_central_rows(keys, links, signed, checks))
    order = sum(sizes)
    return {
        "n": n,
        "imageOrder": order,
        "centerOrder": central,
        "projectiveOrder": order // central,
        "generatorOrders": [_order(a) for a in signed[: n - 1]],
        "centralWordCount": len(center(n)),
        "formulaEstimate": order_formula_estimate(n),
        "levelSizes": sizes,
        "conclusive": True,
    }


def order_formula_estimate(n: int) -> int:
    """(1/3) * 2^((n-1)(n-2)/2) * prod_{i=1}^{n-1} (2^i - (-1)^i), rounded.

    It equals the enumerated projective order at n = 2, 4 and 5, not at n = 3
    (6 against 12).  At n = 6 the order of the image, found by Schreier-Sims
    on the signed points, is 19,906,560 with a trivial centre, against
    13,685,760 here (with a factor 11 it lacks); n = 6 has a 4-dimensional centre.
    """
    prod = 1
    for i in range(1, n):
        prod *= 2**i - (-1) ** i
    return (2 ** ((n - 1) * (n - 2) // 2) * prod) // 3


def left_regular_matrix(i: int, n: int) -> list[list[int]]:
    """Integer matrix of left multiplication by T_i on the word basis; s_i = S_COEFF T_i."""
    return letter(np.eye(word_count(n), dtype=np.int64), n, i, left=True, bound=1).T.tolist()


def left_regular_determinant(i: int, n: int) -> Scalar:
    """det of left multiplication by s_i = S_COEFF T_i; a 6th root of unity."""
    if n > 4:
        raise ValueError("left-regular determinant supported for n <= 4")
    return S_COEFF ** word_count(n) * Scalar.of(exact_determinant(left_regular_matrix(i, n)))
