"""Signed-permutation action, group enumeration, and left-regular determinants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatbraid.algebra import AlgebraElement, Word, center, mul_words, word_count
from quatbraid import algebra, image_group, intspan
from quatbraid.hecke import S_COEFF, braid_generator, braid_generator_inverse
from quatbraid.image_group import (
    EnumerationCapExceeded,
    NotASignedWordError,
    SignedPermutation,
    conjugation_action,
    enumerate_group,
    exact_determinant,
    left_regular_determinant,
    left_regular_matrix,
    order_formula_estimate,
)
from quatbraid.intspan import t_action
from quatbraid.scalar import ONE, ZERO, Scalar, qpow


def _target_sign(act, idx):
    """The word index and the sign that act sends word idx to, read from its codes."""
    code = int(act.codes[idx])
    return code >> 1, -1 if code & 1 else 1


def test_identity_word_is_fixed():
    for n in (2, 3):
        for i in range(1, n):
            assert _target_sign(conjugation_action(i, n), 0) == (0, 1)


def test_action_matches_closed_form_table():
    act = conjugation_action(1, 2)
    u1 = Word(2, 1, 0)
    assert _target_sign(act, u1.index) == (Word(2, 1, 1).index, 1)

    act3 = conjugation_action(1, 3)
    v2 = Word(3, 0, 2)
    assert _target_sign(act3, v2.index) == (Word(3, 1, 3).index, -1)  # -u1 v1 v2


def test_actions_are_bijections():
    for n in (2, 3, 4, 7, 8):
        for i in range(1, n):
            act = conjugation_action(i, n)
            assert act.codes.dtype == np.uint16
            assert sorted(act.codes >> 1) == list(range(word_count(n)))


def _conjugation_by_identity(i, n):
    """Reference: every word conjugated at once, as the rows of the integer identity matrix."""
    size = word_count(n)
    conj = intspan.letter(intspan.letter(np.eye(size, dtype=np.int64), n, i), n, -i, left=True)
    target = np.abs(conj).argmax(axis=1)
    coeff = conj[np.arange(size), target]
    assert (np.count_nonzero(conj, axis=1) == 1).all() and (np.abs(coeff) == 4).all()
    return (2 * target + (coeff < 0)).astype(np.uint16)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_action_matches_identity_matrix_route(n):
    for i in range(1, n):
        assert np.array_equal(conjugation_action(i, n).codes, _conjugation_by_identity(i, n)), i


@pytest.mark.parametrize("n", range(2, 9))
def test_generator_words_follow_the_local_rule(n):
    # s_i^-1 x s_i: u_j -> u_j v_i for |j - i| <= 1, v_i -> u_i,
    # v_{i+-1} -> -u_i v_i v_{i+-1}, every other u_j, v_j fixed
    for i in range(1, n):
        act, b = conjugation_action(i, n), 1 << (i - 1)
        for j in range(1, n):
            c, near = 1 << (j - 1), abs(j - i) <= 1
            if j == i:
                want_v = (Word(n, b, 0).index, 1)
            elif near:
                want_v = (Word(n, b, b | c).index, -1)
            else:
                want_v = (Word(n, 0, c).index, 1)
            assert _target_sign(act, Word(n, c, 0).index) == (Word(n, c, b if near else 0).index, 1), (i, j)
            assert _target_sign(act, Word(n, 0, c).index) == want_v, (i, j)


def test_braid_relations_in_the_image():
    n = 4
    a = [conjugation_action(i, n) for i in range(1, n)]
    # conjugation is an anti-action: braid relations still hold pairwise
    assert np.array_equal(a[0].compose(a[1]).compose(a[0]).codes, a[1].compose(a[0]).compose(a[1]).codes)
    assert np.array_equal(a[0].compose(a[2]).codes, a[2].compose(a[0]).codes)


def _identity_row(n):
    return 2 * np.arange(word_count(n), dtype=np.uint16)


def test_generator_order_three():
    for n in (2, 3, 4, 7, 8):
        for i in range(1, n):
            act = conjugation_action(i, n)
            assert np.array_equal(act.compose(act).compose(act).codes, _identity_row(n))
            assert image_group._order(image_group._signed(act.codes)) == 3


def test_compose_and_inverse():
    # each inverse table is the argsort of its generator's signed table; it must
    # be a signed table itself and undo the generator on either side
    for n in (2, 3, 4, 5):
        signed = image_group._signed_tables(n)
        for i in range(1, n):
            act = conjugation_action(i, n)
            inv = SignedPermutation(n, signed[n - 2 + i][::2])
            assert np.array_equal(signed[i - 1], image_group._signed(act.codes))
            assert np.array_equal(signed[n - 2 + i], image_group._signed(inv.codes))
            assert np.array_equal(act.compose(inv).codes, _identity_row(n))
            assert np.array_equal(inv.compose(act).codes, _identity_row(n))


def test_order_guard_stops_a_runaway_power_loop(monkeypatch):
    swap = image_group._signed(np.array([2, 0], dtype=np.uint16))  # word 0 <-> word 1, order 2
    monkeypatch.setattr(image_group, "MAX_ORDER", 2)
    assert image_group._order(np.arange(4, dtype=np.uint16)) == 1
    assert image_group._order(swap) == 2
    with pytest.raises(RuntimeError, match="^runaway order computation$"):
        image_group._order(image_group._signed(conjugation_action(1, 3).codes))
    with pytest.raises(RuntimeError, match="^runaway order computation$"):
        enumerate_group(3)


def test_enumerate_small_groups():
    assert enumerate_group(2)["imageOrder"] == 3
    res3 = enumerate_group(3)
    assert res3["imageOrder"] == 12
    res4 = enumerate_group(4)
    assert res4["imageOrder"] == 648
    assert res4["projectiveOrder"] == 216
    assert res4["projectiveOrder"] == order_formula_estimate(4)


def test_enumerate_group_bookkeeping(monkeypatch):
    res = enumerate_group(3)
    assert res["imageOrder"] == res["projectiveOrder"] * res["centerOrder"]
    assert res["generatorOrders"] == [3, 3]
    assert res["conclusive"]
    # centralWordCount counts the central words without building their list,
    # which the suite's center[n=k] check builds once
    want = {n: len(center(n)) for n in (2, 3, 4, 5)}

    def unused(n):
        raise AssertionError("enumerate_group builds the center's word list")

    monkeypatch.setattr(algebra, "center", unused)
    for n in (2, 3, 4):
        assert enumerate_group(n)["centralWordCount"] == want[n], n
    assert len(algebra._central_masks(5)) ** 2 == want[5]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_action_matches_algebra_conjugation(n):
    # oracle: the Q(zeta) product s_i^-1 w s_i, term by term, for every word
    for i in range(1, n):
        act = conjugation_action(i, n)
        s, s_inv = braid_generator(n, i), braid_generator_inverse(n, i)
        for idx in range(word_count(n)):
            w = Word.from_index(n, idx)
            target, sign = _target_sign(act, idx)
            want = AlgebraElement(n, {Word.from_index(n, target): ONE if sign > 0 else -ONE})
            assert s_inv * AlgebraElement(n, {w: ONE}) * s == want, (n, i, str(w))


def test_corrupted_t_table_is_caught(monkeypatch):
    # one wrong sign in the right T_1 table leaves some conjugate with extra terms
    def corrupted(n, i, left=False):
        sources, signs = t_action(n, i, left)
        if not left:
            signs = signs.copy()
            signs[0, 1] = -signs[0, 1]
        return sources, signs

    monkeypatch.setattr(intspan, "t_action", corrupted)
    with pytest.raises(NotASignedWordError, match="conjugate of"):
        conjugation_action(1, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_left_regular_matrix_matches_algebra_product(n):
    # oracle: S_COEFF times column w is the Q(zeta) product s_i * w, word by word
    for i in range(1, n):
        mat = left_regular_matrix(i, n)
        s = braid_generator(n, i)
        for col in range(word_count(n)):
            prod = s * AlgebraElement(n, {Word.from_index(n, col): ONE})
            want = [prod.terms.get(Word.from_index(n, row), ZERO) for row in range(word_count(n))]
            got = [S_COEFF * Scalar.of(mat[row][col]) for row in range(word_count(n))]
            assert got == want, (n, i, col)


def _closure_by_compose(n):
    """Oracle: the image group, as {codes.tobytes(): element}, and the keys of its center, one compose at a time.

    The group is finite, so it is the monoid its generators generate: the
    closure applies the actions alone and uses no inverse.
    """
    actions = [conjugation_action(i, n) for i in range(1, n)]
    one = SignedPermutation(n, _identity_row(n))
    els = {one.codes.tobytes(): one}
    frontier = [one]
    while frontier:
        products = {el.codes.tobytes(): el for el in (g.compose(b) for b in frontier for g in actions)}
        new = {key: el for key, el in products.items() if key not in els}
        els.update(new)
        frontier = list(new.values())
    central = {
        key for key, el in els.items() if all(np.array_equal(el.compose(a).codes, a.compose(el).codes) for a in actions)
    }
    return els, central


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_full_row_closure(n):
    res = enumerate_group(n)
    els, central = _closure_by_compose(n)
    assert (res["imageOrder"], res["centerOrder"]) == (len(els), len(central))


def _key_closure(n):
    """The BFS key words, the key rows, the full row rebuilt for each, and
    the full rows of the central elements, found behind the one-word checks
    and, with no check, on the whole rows alone."""
    signed = image_group._signed_tables(n)
    base = image_group._generator_words(n)
    checks = image_group._central_checks(signed[: n - 1], base)
    rows, central, unfiltered = [], set(), set()
    for keys, links in image_group._bfs_levels(signed, base, image_group.MAX_ELEMENTS):
        rows += [(key, image_group._full_row(signed, links, k)) for k, key in enumerate(keys)]
        central |= {r.tobytes() for r in image_group._central_rows(keys, links, signed, checks)}
        unfiltered |= {r.tobytes() for r in image_group._central_rows(keys, links, signed, [])}
    return base, rows, central, unfiltered


@pytest.mark.parametrize("n", [2, 3, 4])
def test_key_rows_match_full_row_closure(n):
    els, central = _closure_by_compose(n)
    base, rows, central_rows, unfiltered = _key_closure(n)
    assert len(base) == 2 * (n - 1)
    assert len(rows) == len(els)
    assert {key.tobytes() for key, _ in rows} == {el.codes[base].tobytes() for el in els.values()}
    assert all(full.tobytes() in els and np.array_equal(key, full[base]) for key, full in rows)
    assert central_rows == unfiltered == central


@pytest.mark.parametrize("n, checks", [(2, 1), (3, 2), (4, 7), (5, 16)])
def test_central_checks_read_one_key_word_each(n, checks):
    signed = image_group._signed_tables(n)
    base = image_group._generator_words(n)
    got = image_group._central_checks(signed[: n - 1], base)
    assert len(got) == checks
    for a, k, f, sign in got:
        assert any(np.array_equal(a, table) for table in signed[: n - 1])
        assert a[2 * base[k]] == 2 * base[f] + sign, (n, k, f, sign)


def test_only_the_central_elements_are_rebuilt(monkeypatch):
    # the one-word checks leave exactly the central elements at n = 2..5
    calls = []
    full_row = image_group._full_row

    def spy(*args):
        calls.append(args[2])
        return full_row(*args)

    monkeypatch.setattr(image_group, "_full_row", spy)
    for n, central in ((2, 3), (3, 1), (4, 3), (5, 3)):
        calls.clear()
        assert enumerate_group(n)["centerOrder"] == central
        assert len(calls) == central, (n, calls)


@pytest.mark.parametrize("n", [3, 5])
def test_mul_codes_matches_mul_words(n):
    # every pair of signed words at n = 3, sampled pairs at n = 5
    codes = np.arange(2 * word_count(n), dtype=np.uint16)
    if n == 3:
        a, b = (c.ravel() for c in np.meshgrid(codes, codes))
    else:
        a, b = np.random.default_rng(n).choice(codes, size=(2, 3000))
    got = image_group._mul_codes(a, b, n)
    assert got.dtype == np.uint16
    for x, y, z in zip(a.tolist(), b.tolist(), got.tolist()):
        sign, w = mul_words(Word.from_index(n, x >> 1), Word.from_index(n, y >> 1))
        negative = (sign < 0) ^ (x & 1) ^ (y & 1)
        assert z == 2 * w.index + negative, (x, y)


def test_level_sizes_n5():
    sizes = enumerate_group(5)["levelSizes"]
    assert sizes == [1, 8, 36, 126, 363, 916, 2052, 4096, 7396, 12158, 17877, 18892, 9787, 3136, 759, 146, 10, 1]
    assert sum(sizes) == 77760


def test_enumeration_cap():
    # the error carries every element found, up to and including the first
    # level whose running total passes the cap: 1 + 6 + 20 + 52 + 98 = 177 at n = 4
    totals = itertools.accumulate(enumerate_group(4)["levelSizes"])
    with pytest.raises(EnumerationCapExceeded) as info:
        enumerate_group(4, max_elements=100)
    assert (info.value.cap, info.value.partial) == (100, next(t for t in totals if t > 100))


@pytest.mark.parametrize("n, cap", [(3, 1), (4, 100), (5, 1000)])
def test_cap_stops_before_full_rows_of_the_over_cap_level(monkeypatch, n, cap):
    # the central test, which rebuilds full rows, sees each level the BFS
    # yields; the level that passes the cap must raise before it is yielded
    seen_rows = []
    central_rows = image_group._central_rows

    def spy(keys, *args):
        seen_rows.append(len(keys))
        return central_rows(keys, *args)

    monkeypatch.setattr(image_group, "_central_rows", spy)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_group(n, max_elements=cap)
    assert 0 < sum(seen_rows) <= cap
    # the levels below the cap reach the central test
    assert len(seen_rows) > 1 or cap == 1


def _first_new_rows_reference(keys, gens, known):
    """Oracle: {position: mask} for the first copy of each row of keys[known:]
    not in keys[:known], on whole signed codes, its mask the OR of the bits
    1 << gens[p] of every copy keys[known + p]."""
    seen = {row.tobytes() for row in keys[:known]}
    masks = {}
    for k in range(known, len(keys)):
        if keys[k].tobytes() not in seen:
            masks.setdefault(keys[k].tobytes(), [k - known, 0])[1] |= 1 << int(gens[k - known])
    return dict(masks.values())


def _packed(keys):
    """Each key row padded to 8 codes with code 0, its targets as one uint64 and its signs as a second."""
    padded = np.zeros((len(keys), 8), dtype=np.uint16)
    padded[:, : keys.shape[1]] = keys
    return np.stack([padded >> 1, padded & 1]).astype(np.uint8).view(np.uint64)[:, :, 0]


@pytest.mark.parametrize("width", [4, 8])
def test_first_new_rows_matches_first_copy_reference(width):
    # exactly the first-copy oracle's positions and masks, in low-half order;
    # the pool's rows are distinct in the low half, the targets of codes 0..3,
    # which is the whole key at width 4
    rng = np.random.default_rng(width)
    pool = rng.integers(0, 512, size=(40, width), dtype=np.uint16)
    pool[:4, 0] = 511  # target 255, the largest one byte holds
    # rows that differ from another in one low-half target only
    pool[20:] = pool[:20]
    pool[np.arange(20, 40), rng.integers(4, size=20)] ^= 2
    assert len({row.tobytes() for row in pool[:, :4] >> 1}) == len(pool)
    keys = pool[rng.integers(len(pool), size=600)]
    targets, signs = _packed(keys)
    seen_masks = set()
    for known in (0, 1, 150):  # 150 known rows hold repeats of one another
        gens = rng.integers(8, size=len(keys) - known).astype(np.uint8)
        got, masks = image_group._new_rows(targets, signs, gens, known)
        want = _first_new_rows_reference(keys, gens, known)
        assert masks.dtype == np.uint8 and len(got) == len(masks) == len(want)
        assert dict(zip(got.tolist(), masks.tolist())) == want
        seen_masks |= set(want.values())
        low = targets[known + got] & np.uint64(0xFFFFFFFF)
        assert (low[1:] > low[:-1]).all()
    assert len(seen_masks) > 8  # masks of several bits, not only one bit each


@pytest.mark.parametrize("known", [0, 1, 2])
def test_first_new_rows_rejects_rows_that_differ_in_signs_only(known):
    keys = np.array([[2, 4, 6, 8], [3, 4, 6, 8]], dtype=np.uint16)
    with pytest.raises(RuntimeError, match="^sign kernel: two elements agree on every target but not on every sign$"):
        image_group._new_rows(*_packed(keys), np.zeros(2 - known, dtype=np.uint8), known)


@pytest.mark.parametrize("known", [0, 1, 2])
def test_first_new_rows_rejects_rows_that_differ_in_the_high_half_only(known):
    # equal targets at codes 0..3, different at code 7: the sort merges the
    # two rows, and the full target words must then agree
    keys = np.array([[2, 4, 6, 8, 10, 12, 14, 16], [2, 4, 6, 8, 10, 12, 14, 18]], dtype=np.uint16)
    message = "^low target halves collided: two elements agree on the low 32 bits of their targets only$"
    with pytest.raises(RuntimeError, match=message):
        image_group._new_rows(*_packed(keys), np.zeros(2 - known, dtype=np.uint8), known)


def _spied_steps(monkeypatch):
    """The (gen, parent) arrays each level step gathers, recorded by a spy on `_gathered`."""
    steps = []
    gathered = image_group._gathered

    def spy(*args):
        steps.append(gathered(*args))
        return steps[-1]

    monkeypatch.setattr(image_group, "_gathered", spy)
    return steps


@pytest.mark.parametrize("n, count", [(2, 2), (3, 20), (4, 1650), (5, 292108)])
def test_level_steps_skip_every_candidate_that_cannot_be_new(monkeypatch, n, count):
    # against 2(n-1) candidates per element, 6 / 48 / 3,888 / 622,080, with no skipping
    steps = _spied_steps(monkeypatch)
    res = enumerate_group(n)
    assert len(steps) == len(res["levelSizes"])
    assert sum(len(gens) for gens, _ in steps) == count
    assert all(gens.dtype == np.uint8 and parents.dtype == np.uint32 for gens, parents in steps)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_skipped_pairs_land_in_the_current_or_previous_level(monkeypatch, n):
    # every (table, row) pair a level step skips is, on the whole rows, a row of
    # that level or the one before; every pair it gathers, of that level or the next
    steps = _spied_steps(monkeypatch)
    signed = image_group._signed_tables(n)
    base = image_group._generator_words(n)
    levels = [
        [image_group._full_row(signed, links, k) for k in range(len(keys))]
        for keys, links in image_group._bfs_levels(signed, base, image_group.MAX_ELEMENTS)
    ]
    assert len(steps) == len(levels)
    sets = [set()] + [{row.tobytes() for row in level} for level in levels] + [set()]
    skipped = 0
    for step, ((gens, parents), level) in enumerate(zip(steps, levels)):
        gathered = set(zip(gens.tolist(), parents.tolist()))
        for t, p in itertools.product(range(len(signed)), range(len(level))):
            lands = image_group._after(signed[t], level[p]).tobytes()
            if (t, p) in gathered:
                assert lands in sets[step + 1] | sets[step + 2], (t, p)
            else:
                assert lands in sets[step] | sets[step + 1], (t, p)
                skipped += 1
    assert skipped == len(signed) * sum(map(len, levels)) - sum(len(gens) for gens, _ in steps) > 0


def test_bfs_raises_on_a_table_with_no_inverse():
    # s_1 and s_2 alone: each has order 3, so its inverse s_i s_i is not in the stack
    signed = image_group._signed_tables(3)
    base = image_group._generator_words(3)
    with pytest.raises(RuntimeError, match="^table 0 has no inverse in the stack"):
        next(image_group._bfs_levels(signed[:2], base, image_group.MAX_ELEMENTS))
    # nine tables do not fit a row's 8-bit table mask
    with pytest.raises(RuntimeError, match="^a row's table mask holds 8 tables, got 9$"):
        next(image_group._bfs_levels(np.vstack([signed] * 2 + [signed[:1]]), base, image_group.MAX_ELEMENTS))


def test_bfs_raises_on_a_table_that_moves_word_0():
    # a RuntimeError, not an assert that python -O strips: the keys are padded with code 0
    signed = image_group._signed_tables(2)
    swap = np.arange(signed.shape[1], dtype=np.uint16) ^ 2  # word 0 <-> word 1, an involution
    levels = image_group._bfs_levels(np.vstack([signed, swap]), image_group._generator_words(2), 10)
    with pytest.raises(RuntimeError, match="^every table must fix word 0, the code the keys are padded with$"):
        next(levels)


@pytest.mark.parametrize("n, order", [(2, 3), (3, 12), (4, 648), (5, 77760)])
def test_low_target_halves_tell_the_elements_apart(n, order):
    # the premise of `_new_rows`: the targets of key codes 0..3, the low 32
    # bits of a packed target word, differ between any two elements
    signed = image_group._signed_tables(n)
    base = image_group._generator_words(n)
    levels = image_group._bfs_levels(signed, base, image_group.MAX_ELEMENTS)
    low = np.concatenate([keys[:, :4] >> 1 for keys, _ in levels])
    assert len(np.unique(low, axis=0)) == len(low) == enumerate_group(n)["imageOrder"] == order
    if n == 5:
        # the low 24 bits, codes 0..2, give one value per element up to the centre only
        assert len(np.unique(low[:, :3], axis=0)) == order // 3


def test_bfs_raises_on_a_table_that_flips_one_sign_only():
    # s_1, s_2 and their inverses at n = 3, plus the involution -1 on the code of
    # one generator word: its row agrees with the identity's on every target.
    # Then that flip after s_1, and its inverse, in place of the flip: the twin
    # rows s_1 and flip.s_1 are two candidates of one level step
    signed = image_group._signed_tables(3)
    base = image_group._generator_words(3)
    flip, x = np.arange(signed.shape[1], dtype=np.uint16), 2 * base[1]
    flip[x], flip[x + 1] = x + 1, x
    flipped = image_group._after(flip, signed[0])
    for extra in ([flip], [flipped, np.argsort(flipped).astype(np.uint16)]):
        levels = image_group._bfs_levels(np.vstack([signed, *extra]), base, image_group.MAX_ELEMENTS)
        message = "^sign kernel: two elements agree on every target but not on every sign$"
        with pytest.raises(RuntimeError, match=message):
            list(levels)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_table_fixes_word_0(n):
    # the BFS pads each key to 8 codes with code 0, which must gather to code 0
    signed = image_group._signed_tables(n)
    assert len(signed) == 2 * (n - 1)
    assert (signed[:, 0] == 0).all()


def test_enumerate_range_check():
    with pytest.raises(ValueError):
        enumerate_group(6)
    with pytest.raises(ValueError):
        enumerate_group(3, max_elements=0)


def test_formula_estimate_values():
    assert [order_formula_estimate(n) for n in (2, 3, 4, 5)] == [1, 12, 216, 25920]
    for n in (2, 3, 4, 5):
        assert order_formula_estimate(n) == enumerate_group(n)["projectiveOrder"], n
    # the n = 6 order of the image, by Schreier-Sims, with a trivial centre
    assert order_formula_estimate(6) == 19_906_560


def test_left_regular_determinant_n2():
    d = left_regular_determinant(1, 2)
    assert d == qpow(2)
    assert d**6 == ONE


def test_left_regular_determinant_n3():
    for i in (1, 2):
        d = left_regular_determinant(i, 3)
        assert d**6 == ONE


def test_left_regular_determinant_range():
    with pytest.raises(ValueError):
        left_regular_determinant(1, 5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_left_regular_t_determinant_pinned(n):
    # det T_i = 2^(4^(n-1)), so det(S_COEFF T_i) = (-1/zeta)^(4^(n-1)) = zeta^2
    for i in range(1, n):
        assert exact_determinant(left_regular_matrix(i, n)) == 2 ** 4 ** (n - 1)
        assert left_regular_determinant(i, n) == qpow(2)


def test_exact_determinant_singular():
    assert exact_determinant([[1, 1], [1, 1]]) == 0
    assert exact_determinant([[0, 1], [1, 0]]) == -1
    assert exact_determinant([]) == 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_determinant_matches_sympy(data):
    import sympy

    size = data.draw(st.integers(0, 6))
    row = st.lists(st.integers(-5, 5), min_size=size, max_size=size)
    mat = data.draw(st.lists(row, min_size=size, max_size=size))
    if size and data.draw(st.booleans()):
        mat[0][0] = 0  # the first pivot needs a row swap, or the column is zero
    if size >= 2 and data.draw(st.booleans()):
        mat[-1] = [sum(col) for col in zip(*mat[:-1])]  # singular: a sum of the other rows
    assert exact_determinant(mat) == sympy.Matrix(size, size, sum(mat, [])).det()
