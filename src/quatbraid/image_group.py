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
at those 2(n-1) words fix it.  Half of them do.  Let sigma map u_j to u_j v_j
and v_j to u_j, each with sign +1, and every other word to the product of its
factors' images (`sigma`); on the word index it is J(eps, nu) = (eps ^ nu,
eps), and sigma^3 = 1.  The BFS first checks on whole tables that sigma
commutes with every table, else RuntimeError names the table.  Then every
element e commutes with sigma, and e(v_j) = e(sigma^-1(u_j)) =
sigma^-1(e(u_j)), so the codes of e at u_1..u_(n-1), its key, fix it.  The
BFS keeps key rows only: applying a generator after an element reads each
word's code at that same word, so the next level's keys are one table
gather per level.

An element is central when it commutes with every table on every word, and
that comparison of whole rows decides the center, once the BFS is done.
Each row compared is rebuilt along its BFS path (the generator and parent
of each element).  Only the keys that pass the one-word checks get that
far: where a generator a sends a generator word base[k] to +-base[f], a
central el has a(el(base[k])) = +-el(base[f]), two codes compared.  There
are 1, 2, 7 and 16 such checks at n = 2..5.  The 0, 0, 2 and 6 of them
between two u-words run on every key; the keys that pass gain their codes
at v_1..v_(n-1), sigma^-1 of their key, for the rest.  The keys the checks
leave are exactly the 3, 1, 3 and 3 central elements.

A key has n-1 <= 4 codes, and each target is below 4^(n-1) <= 256, so for
n <= MAX_N = 5 the targets of a key, padded to 4 codes with code 0 (word 0
is 1, fixed by every table), are the 4 bytes of one uint32 and its signs
those of a second; the tables' gathers write those bytes straight into the
buffers a level step sorts.

A level step gathers a row only through the tables that can reach a new
element.  Each new row keeps a mask of the tables whose candidates merged
into it, and the next step skips, for each table t in that mask, every
inverse of t (t^-1 of the row is a row of the level before) and t itself
when t.t undoes t (t of t(p) is t^-1(p), p in the level before, so it lies
no further out than the row).  So each skipped candidate equals, as a
signed element, a row already kept.  Every back edge is skipped: if table
u takes row k of level L+1 to q in level L, then the table t = u^-1 takes q
to k, and t is not skipped at q (an inverse of a table in q's mask would
make k = t(q) a row of level L-1, and t itself of order 3 would put k no
further out than L), so t's candidate merged into k and u is in k's skip
set.  The candidates of a step thus land in its own level or the next, and
new elements are told apart from the current level alone.  The steps
gather 2, 20, 1,650 and 292,108 candidate rows at n = 2..5, against
2(n-1) per element (6, 48, 3,888 and 622,080) with no skipping.  A table
is a permutation gathered once per row, so the candidates that merge into
one row come from distinct tables, and its mask is the sum of their bits.

New elements are found by one value sort of the words targets << 32 |
position: the target word of a key is the whole sort value, and the position
breaks ties, so each run of equal targets starts with its first copy, which
is kept.  A level is thus in target order.  Every pair of rows the sort
merges must agree in its sign word, else the pair is an element that changes
signs only, a nontrivial sign kernel, and RuntimeError says so.  So the
result is that of comparing whole signed codes: a skipped comparison is with
a row it equals, and would pass.  A sign kernel still raises.  A table takes
rows with equal targets but other signs, sign twins, to sign twins, since
the target of a code after a table depends on its target alone.  Of the twin
pairs with the least sum of levels, take one whose levels differ least: were
they two or more apart, the table that takes the outer twin one level in
would take the inner one at most one level out, to a twin pair with no
larger sum and closer levels.  So the pair lies in one level or two adjacent
ones, and the step that finds the outer twin merges it with the inner one.
The key targets of the 3, 12, 648 and 77,760 elements at n = 2..5 are
distinct (at n = 5, those at u_1..u_3 alone would not be).

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

from quatbraid.algebra import Word, _central_masks, index_masks, sign_bits, word_count
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
    return SignedPermutation(n, _extended((2 * np.nonzero(conj)[1] + (coeff < 0)).astype(np.uint16), n))


@functools.lru_cache(maxsize=None)
def sigma(n: int) -> np.ndarray:
    """The signed code row of sigma: u_j -> u_j v_j and v_j -> u_j, each with
    sign +1, extended to every word as `conjugation_action` is; cached per n,
    read-only.  On the word index it is J(eps, nu) = (eps ^ nu, eps)."""
    base = _generator_words(n)
    u, v = base[: n - 1], base[n - 1 :]
    return _extended((2 * np.concatenate([u | v, u])).astype(np.uint16), n)


def _extended(codes: np.ndarray, n: int) -> np.ndarray:
    """The read-only code row that has the signed codes `codes` at the words
    `_generator_words(n)` and, at every other word, the product of its
    factors' codes in normal-form order."""
    words, row = np.arange(word_count(n)), np.zeros(word_count(n), dtype=np.uint16)
    for x, code in zip(_generator_words(n), codes):
        row = np.where(words & x, _mul_codes(row, code, n), row)
    row.flags.writeable = False
    return row


# The default cap on the elements a group enumeration may find, the largest n it
# supports (the BFS packs the n-1 targets of a key into one byte each of one uint32), and
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


def _new_rows(targets: np.ndarray, signs: np.ndarray, gens: np.ndarray, known: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions, counted from `known`, of the first copy of each row of
    targets[known:] that equals no row of targets[:known], in target order,
    and the mask of each: the OR of the bits 1 << gens[p] of every row
    known + p that equals it.

    One sort of the words targets << 32 | position (a level step has far
    fewer than 2^32 rows) puts each run of equal targets in position order,
    so its first word is its first copy, and the run is known exactly when
    that copy lies below `known`.  Raises RuntimeError if two rows of a run
    differ in their signs (a sign kernel), so the result is that of whole
    signed codes.  No two rows of a run may share a gen, as in a level step,
    where each table is a permutation gathered once per row: then the OR is
    the sum, a uint8 cumsum difference read at the new runs only."""
    key = (targets.astype(np.uint64) << np.uint64(32)) | np.arange(len(targets), dtype=np.uint64)
    key.sort()
    order = key.view(np.int64) & 0xFFFFFFFF
    key >>= np.uint64(32)  # now the sorted targets
    merged = key[1:] == key[:-1]
    del key  # freed before the gathers below, which lowers the peak memory
    ranked = signs.take(order)
    if ((ranked[1:] != ranked[:-1]) & merged).any():
        raise RuntimeError("sign kernel: two elements agree on every target but not on every sign")
    del ranked  # freed before the mask gathers below, which lowers the peak memory
    bounds = np.flatnonzero(np.concatenate([[True], ~merged, [True]]))  # run starts, then len(order)
    first = order.take(bounds[:-1])
    new = np.flatnonzero(first >= known)
    bits = np.zeros(len(order), dtype=np.uint8)
    bits[known:] = np.left_shift(np.uint8(1), gens)
    sums = np.zeros(len(order) + 1, dtype=np.uint8)
    np.cumsum(bits.take(order), out=sums[1:])  # wraps mod 256, as the differences do
    return first.take(new) - known, sums.take(bounds.take(new + 1)) - sums.take(bounds.take(new))


def _skip_sets(signed: np.ndarray) -> np.ndarray:
    """skips[mask]: the bits of the tables a level step does not gather a row
    through when the tables in `mask` merged into it: every inverse of each
    table t in mask, and t itself when t.t undoes t, read off the whole signed
    tables.  Raises RuntimeError on more than 8 tables, or on a table with no
    inverse in the stack, since the BFS's one-level window rests on inverse pairs."""
    if len(signed) > 8:
        raise RuntimeError(f"a row's table mask holds 8 tables, got {len(signed)}")
    identity, tables = np.arange(signed.shape[1]), np.arange(len(signed))
    after = _after(signed, signed)  # after[u, t]: table u after table t
    inverse = (after == identity).all(axis=-1)  # inverse[u, t]: u undoes t
    if not inverse.any(axis=0).all():
        raise RuntimeError(
            f"table {np.argmin(inverse.any(axis=0))} has no inverse in the stack: the BFS window needs inverse pairs"
        )
    order_3 = (np.take_along_axis(signed, after[tables, tables], axis=-1) == identity).all(axis=-1)
    skip = inverse.T | np.diag(order_3)  # skip[t, u]: table u is skipped for t alone
    member = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, count=len(signed), bitorder="little")
    return np.packbits(member @ skip, axis=1, bitorder="little")[:, 0]


def _gathered(masks: np.ndarray, skips: np.ndarray, tables: int) -> tuple[np.ndarray, np.ndarray]:
    """(gen, parent) of each candidate row of a level step, table by table and
    then by row: every pair but those whose table is in skips[masks[parent]]."""
    rows = len(masks)
    gathers = (skips.take(masks) & np.left_shift(np.uint8(1), np.arange(tables, dtype=np.uint8))[:, None]) == 0
    flat = gathers.ravel().nonzero()[0]  # gen * rows + parent
    counts = gathers.sum(axis=1)
    gens = np.repeat(np.arange(tables, dtype=np.uint8), counts)
    return gens, (flat - np.repeat(rows * np.arange(tables), counts)).astype(np.uint32)


# links[L-1] = (gen, parent): row k of BFS level L is signed[gen[k]] after row parent[k] of level L-1.
Links = list[tuple[np.ndarray, np.ndarray]]


def _bfs_levels(signed: np.ndarray, n: int, cap: int) -> Iterator[tuple[np.ndarray, Links]]:
    """The closure of the stacked signed tables `signed`, one BFS level (distance from 1) at a time.

    Yields each level's key rows, the codes at u_1..u_(n-1), with the links
    of the levels so far.  Raises EnumerationCapExceeded as soon as more
    than cap elements are found, before their level is yielded.

    Every table must fix word 0, the code the keys are padded with, and
    commute with `sigma`, which makes the key fix the element; else
    RuntimeError.  The inverse pairs and order-3 tables are read off the
    whole tables next (`_skip_sets`); a table with no inverse in the stack
    raises RuntimeError.  Each row then skips the tables that lead back or
    sideways from it (the module docstring gives the argument): every
    candidate of a level step lands in the current level or the next, so
    new rows are told apart from the current level only.  Links are (uint8
    gen, uint32 parent).

    A level's keys are padded to 4 codes with code 0, so each table's gather
    of a key row is 4 target bytes, one uint32, and 4 sign bytes, a second.
    Each level step fills one uint32 buffer of targets and one of signs: the
    packed rows of the current level first, then each table's gather of the
    keys it is not skipped at, table by table (`_gathered`).  The first copy
    of each new row is kept, in target order, with the mask of the tables
    whose candidates merged into it (`_new_rows`); two rows that agree in
    their targets but not in their signs raise RuntimeError.
    """
    if signed[:, 0].any():
        raise RuntimeError("every table must fix word 0, the code the keys are padded with")
    sig = _signed(sigma(n))
    commutes = (_after(signed, sig) == _after(sig, signed)).all(axis=-1)
    if not commutes.all():
        raise RuntimeError(
            f"table {np.argmin(commutes)} does not commute with sigma, so a key would not fix its element"
        )
    skips = _skip_sets(signed)
    targets_of, signs_of = (signed >> 1).astype(np.uint8), (signed & 1).astype(np.uint8)
    # the packed (targets, signs) rows of this level, first the identity, and their table masks
    level, masks = np.zeros((2, 1), dtype=np.uint32), np.zeros(1, dtype=np.uint8)
    level.view(np.uint8)[0, : n - 1] = _generator_words(n)[: n - 1]
    links: Links = []
    found = 1
    while True:
        targets, signs = level.view(np.uint8).reshape(2, -1, 4)
        keys = (targets.astype(np.uint16) << 1) | signs
        yield keys[:, : n - 1], links
        gens, parents = _gathered(masks, skips, len(signed))
        known = level.shape[1]
        rows = np.empty((2, known + len(gens)), dtype=np.uint32)
        rows[:, :known] = level
        out = rows[:, known:].view(np.uint8).reshape(2, -1, 4)
        # uint8 bounds: an int64 search would copy gens to int64
        bounds = np.searchsorted(gens, np.arange(len(signed) + 1, dtype=np.uint8)).tolist()
        for gen, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
            # one table's parent keys at a time, which lowers the peak memory
            parent_keys = keys.take(parents[start:stop], axis=0)
            # every key code is a table's output, so in range; mode "raise" would buffer `out`
            targets_of[gen].take(parent_keys, out=out[0, start:stop], mode="clip")
            signs_of[gen].take(parent_keys, out=out[1, start:stop], mode="clip")
        fresh, masks = _new_rows(*rows, gens, known)
        if not fresh.size:
            return
        found += len(fresh)
        if found > cap:
            raise EnumerationCapExceeded(cap, found)
        links.append((gens.take(fresh), parents.take(fresh)))
        level = rows.take(known + fresh, axis=1)


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
    """(a, k, f, sign) for each signed table a and index k of `base` with
    a(base[k]) = (-1)^sign base[f]: there a central el has
    a(el(base[k])) = (-1)^sign el(base[f]), one comparison of two codes."""
    key_index = {x: f for f, x in enumerate(base.tolist())}
    return [
        (a, k, key_index[code >> 1], code & 1)
        for a in actions
        for k, code in enumerate(a[2 * base].tolist())
        if code >> 1 in key_index
    ]


def _passing(keys: np.ndarray, checks: list[tuple]) -> np.ndarray:
    """The indices of the key rows with (-1)^sign keys[f] = a(keys[k]) on every check (a, k, f, sign)."""
    alive = np.arange(len(keys))
    for a, k, f, sign in checks:
        alive = alive[(keys[alive, f] ^ sign) == _after(a, keys[alive, k])]
    return alive


def _central_rows(levels: list[np.ndarray], links: Links, signed: np.ndarray, checks: list[tuple]) -> list[np.ndarray]:
    """The full code rows of the elements that commute with every table of `signed`.

    `levels` holds the keys, the codes at u_1..u_(n-1), of every BFS level,
    and `links` their links.  The checks of `checks` (from `_central_checks`)
    that read two u-codes run on every key; the keys that pass gain their
    codes at v_1..v_(n-1), sigma^-1 of the key, and run the other checks.
    The keys that pass every check are rebuilt from `links`, and a row is
    central when it commutes with every table on every word.  The checks
    only drop keys that fail that comparison.
    """
    half = levels[0].shape[1]  # n - 1
    keys = np.concatenate(levels)
    alive = _passing(keys, [c for c in checks if max(c[1:3]) < half])
    inverse = np.argsort(_signed(sigma(half + 1))).astype(np.uint16)
    whole = np.concatenate([keys[alive], _after(inverse, keys[alive])], axis=1)
    alive = alive[_passing(whole, [c for c in checks if max(c[1:3]) >= half])]
    starts = np.cumsum([0] + list(map(len, levels)))
    at = np.searchsorted(starts, alive, side="right") - 1  # the level of each
    rows = [_full_row(signed, links[:level], k - starts[level]) for level, k in zip(at.tolist(), alive.tolist())]
    # signed[:, ::2] are the unsigned code rows of the tables
    return [row for row in rows if np.array_equal(_after(_signed(row), signed[:, ::2]), _after(signed, row))]


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
    levels = []
    for keys, links in _bfs_levels(signed, n, max_elements):
        levels.append(keys)
    central = len(_central_rows(levels, links, signed, _central_checks(signed[: n - 1], _generator_words(n))))
    sizes = [len(keys) for keys in levels]
    order = sum(sizes)
    return {
        "n": n,
        "imageOrder": order,
        "centerOrder": central,
        "projectiveOrder": order // central,
        "generatorOrders": [_order(a) for a in signed[: n - 1]],
        "centralWordCount": len(_central_masks(n)) ** 2,
        "formulaEstimate": order_formula_estimate(n),
        "levelSizes": sizes,
        "conclusive": True,
    }


def order_formula_estimate(n: int) -> int:
    """The projective order of the image by formula: |GU_(n-1)(2)| / 3 when
    3 does not divide n, and 4^(n-2) |GU_(n-2)(2)| when it does, with
    |GU_m(2)| = 2^(m(m-1)/2) prod_{i=1}^{m} (2^i - (-1)^i).

    It equals the enumerated projective order at n = 2..5 (1, 12, 216 and
    25,920).  At n = 6 the order of the image, found by Schreier-Sims on the
    signed points, is 19,906,560 with a trivial centre, which it equals too.
    """
    m = n - 1 if n % 3 else n - 2
    order = 2 ** (m * (m - 1) // 2)
    for i in range(1, m + 1):
        order *= 2**i - (-1) ** i
    return order // 3 if n % 3 else 4 ** (n - 2) * order


def left_regular_matrix(i: int, n: int) -> list[list[int]]:
    """Integer matrix of left multiplication by T_i on the word basis; s_i = S_COEFF T_i."""
    return letter(np.eye(word_count(n), dtype=np.int64), n, i, left=True, bound=1).T.tolist()


def left_regular_determinant(i: int, n: int) -> Scalar:
    """det of left multiplication by s_i = S_COEFF T_i; a 6th root of unity."""
    if n > 4:
        raise ValueError("left-regular determinant supported for n <= 4")
    return S_COEFF ** word_count(n) * Scalar.of(exact_determinant(left_regular_matrix(i, n)))
