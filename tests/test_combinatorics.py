import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combword import combinatorics, datasets
from combword.combinatorics import CombinatoricsMap, _chain_keys, combinatorics_map, dense_counts
from combword.encoding import EncodingConfig, channel_count
from combword.words import SubwordTable, distinct_subwords
from oracles import brute_map, grid_components

words_abc = st.text(alphabet="abc", min_size=1, max_size=8)
words_lower = st.text(alphabet="abcdefgh", min_size=1, max_size=10)


def dense_grid(m) -> np.ndarray:
    """The map as a dense (D, D, D) grid, scattered straight from its sparse upper half."""
    s, d = m.sparse, m.size
    rows, cols = np.triu_indices(d)
    g = np.zeros((d, d, d), dtype=np.int64)
    g[rows, cols, 0] = s.empty
    cells = np.repeat(np.arange(len(rows)), s.sizes)
    g[rows[cells], cols[cells], s.nus] = s.counts
    # The lower half is still zero and every count is >= 0, so max adds the mirror.
    return np.maximum(g, g.transpose(1, 0, 2))


def pair_counts(text: str, lam: str, mu: str) -> dict[int, int]:
    """The map's nonzero {nu: count} entries for one operand pair of a word."""
    m = combinatorics_map(text)
    t = m.table
    row = dense_grid(m)[t.index_of(lam), t.index_of(mu)]
    return {nu: int(c) for nu, c in enumerate(row) if c}


def match_grid(text: str, lam: str, mu: str) -> tuple[tuple[str, ...], ...]:
    """The (lam, mu) match grid as the production equality matrix sees it.

    Both operands are windows of ``text`` at their first occurrence; a
    matching cell holds the letter and an empty cell holds ''.
    """
    eq = distinct_subwords(text).agree > 0
    p, q = text.index(lam), text.index(mu)
    window = eq[p : p + len(lam), q : q + len(mu)]
    return tuple(
        tuple(lam[i] if window[i, j] else "" for j in range(len(mu))) for i in range(len(lam))
    )


def chain_contributions(table, nu_len_cap: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All non-empty components across the operand pairs lam <= mu, one (lam, mu, nu) per component.

    nu is restricted to subwords no longer than the cap.
    """
    d = len(table)
    keys, counts = _chain_keys(table, d, nu_len_cap)
    cell, nu = np.divmod(np.repeat(keys, counts), d)
    lam, mu = np.divmod(cell, d)
    return lam, mu, nu


def produced_subwords(text: str, lam: str, mu: str) -> list[str]:
    """Subwords read off by the (lam, mu) grid's components, empty cells as ''.

    Chains are produced for lam <= mu only; the (mu, lam) grid is the
    transpose and reads off the same subwords.
    """
    t = distinct_subwords(text)
    lams, mus, nus = chain_contributions(t, None)
    li, mi = sorted((t.index_of(lam), t.index_of(mu)))
    chains = [t[int(nu)].content for l, m, nu in zip(lams, mus, nus) if l == li and m == mi]
    empties = int(t.empty_cells[li - 1, mi - 1])
    return sorted(chains + [""] * empties)


def test_match_matrix_ab_ab():
    assert match_grid("ab", "ab", "ab") == (("a", ""), ("", "b"))


def test_match_matrix_aba_aba():
    grid = match_grid("aba", "aba", "aba")
    nonempty = {(i, j) for i in range(3) for j in range(3) if grid[i][j]}
    assert nonempty == {(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)}


def test_match_matrix_no_match():
    assert match_grid("ab", "a", "b") == (("",),)


def test_produced_subword():
    assert produced_subwords("ab", "ab", "ab") == ["", "", "ab"]
    assert produced_subwords("aba", "aba", "aba") == ["", "", "", "", "a", "a", "aba"]
    assert produced_subwords("ab", "a", "b") == [""]
    assert produced_subwords("abab", "abab", "bab") == sorted(grid_components("abab", "bab"))


def test_components_ab_ab():
    # Matching cells (0,0) and (1,1) chain into "ab"; (0,1) and (1,0) are empty.
    assert sorted(grid_components("ab", "ab")) == ["", "", "ab"]
    t = distinct_subwords("ab")
    assert pair_counts("ab", "ab", "ab") == {t.index_of("ab"): 1, 0: 2}


def test_components_aba_aba():
    # Matching cells (0,0), (1,1), (2,2), (0,2), (2,0): one chain "aba",
    # two singleton chains "a", and four empty cells.
    assert sorted(grid_components("aba", "aba")) == ["", "", "", "", "a", "a", "aba"]
    t = distinct_subwords("aba")
    assert pair_counts("aba", "aba", "aba") == {t.index_of("aba"): 1, t.index_of("a"): 2, 0: 4}


def test_components_single_empty_cell():
    assert grid_components("a", "b") == [""]
    assert pair_counts("ab", "a", "b") == {0: 1}


def test_components_partition_all_cells():
    # abab x bab: chains "bab" from (1,0), "ab" from (0,1), "b" at (3,0); six empty cells.
    assert sorted(grid_components("abab", "bab")) == [""] * 6 + ["ab", "b", "bab"]
    t = distinct_subwords("abab")
    counts = pair_counts("abab", "abab", "bab")
    assert counts == {t.index_of("bab"): 1, t.index_of("ab"): 1, t.index_of("b"): 1, 0: 6}
    assert sum((t[nu].length or 1) * c for nu, c in counts.items()) == 4 * 3


def test_entry_aba_full_pair():
    m = combinatorics_map("aba")
    t = m.table
    full = t.index_of("aba")
    assert m.counts.get((full, full, full), 0) == 1
    assert m.counts.get((full, full, t.index_of("a")), 0) == 2
    assert m.counts.get((full, full, 0), 0) == 4
    assert int(dense_grid(m)[full, full].sum()) == 7


def test_entry_border_rules():
    m = combinatorics_map("ab")
    ab = m.table.index_of("ab")
    assert m.counts.get((ab, 0, 0), 0) == 2
    assert m.counts.get((0, ab, 0), 0) == 2
    assert m.counts.get((0, 0, 0), 0) == 1
    g = dense_grid(m)
    assert int(g[ab, 0].sum()) == 2 and int(g[0, ab].sum()) == 2 and int(g[0, 0].sum()) == 1


def test_map_aa_values():
    m = combinatorics_map("aa")
    t = m.table
    a, aa = t.index_of("a"), t.index_of("aa")
    assert m.counts.get((a, a, a), 0) == 1
    assert m.counts.get((aa, aa, aa), 0) == 1
    assert m.counts.get((a, aa, a), 0) == 2
    assert m.counts.get((a, 0, 0), 0) == 1


def test_map_ab_values():
    m = combinatorics_map("ab")
    t = m.table
    ab = t.index_of("ab")
    assert m.counts.get((ab, ab, ab), 0) == 1
    assert m.counts.get((ab, ab, 0), 0) == 2
    assert m.counts.get((t.index_of("a"), t.index_of("b"), t.index_of("a")), 0) == 0
    assert (t.index_of("a"), t.index_of("b"), t.index_of("a")) not in m.counts


@given(words_lower)
@settings(max_examples=60)
def test_map_main_diagonal_at_least_one(text):
    m = combinatorics_map(text)
    w = m.table.index_of(text)
    assert m.counts.get((w, w, w), 0) >= 1


@given(words_abc)
@settings(max_examples=80, deadline=None)
def test_map_matches_flood_fill_oracle(text):
    d, expected = brute_map(text)
    m = combinatorics_map(text)
    assert m.size == d
    assert m.counts == expected
    # Each count path alone, so that one dropping or double-counting a one-cell chain fails even where the other agrees.
    for bound in (ONE_BLOCK, SLABS):
        assert CombinatoricsMap(m.table, counts_by_path(m.table, d, d, None, bound)).counts == expected, bound


def test_map_exhaustive_two_letters_up_to_five():
    for n in range(1, 6):
        for tup in itertools.product("ab", repeat=n):
            text = "".join(tup)
            d, expected = brute_map(text)
            m = combinatorics_map(text)
            assert m.counts == expected, text


@given(words_lower)
@settings(max_examples=40, deadline=None)
def test_map_agrees_with_per_pair_entries(text):
    """Every operand pair's entries match the flood-fill oracle, over eight letters."""
    d, expected = brute_map(text)
    m = combinatorics_map(text)
    assert m.size == d
    assert m.counts == expected


# Half unrelated pairs, half a word and its image under a permutation of abc.
word_pairs = st.one_of(
    st.tuples(words_abc, words_abc),
    words_abc.flatmap(lambda t: st.permutations("abc").map(lambda perm: (t, t.translate(str.maketrans("abc", "".join(perm)))))),
)


@given(word_pairs)
@settings(max_examples=150, deadline=None)
def test_same_counts_iff_grids_equal(pair):
    ma, mb = (combinatorics_map(w) for w in pair)
    staged = ma.same_counts(mb)  # before either map's sparse form is built
    ga, gb = dense_grid(ma), dense_grid(mb)
    assert staged == ma.sparse.same(mb.sparse) == (ga.shape == gb.shape and np.array_equal(ga, gb))


def test_same_counts_compares_every_array():
    m = combinatorics_map("abcab")
    keys, counts = m.chains

    def bumped(a: np.ndarray) -> np.ndarray:
        a = a.copy()
        a.flat[-1] += 1
        return a

    def map_with(lengths=m.table.lengths, empty_cells=m.table.empty_cells, chains=m.chains) -> CombinatoricsMap:
        """A map of m's table with the given parts in place of its own, each seeded as its cached value."""
        other = CombinatoricsMap(dataclasses.replace(m.table, lengths=lengths))
        vars(other.table)["empty_cells"] = empty_cells
        vars(other)["chains"] = chains
        return other

    assert m.same_counts(map_with())
    tampered = {
        "lengths": map_with(lengths=bumped(m.table.lengths)),
        "empty_cells": map_with(empty_cells=bumped(m.table.empty_cells)),
        "a chain key": map_with(chains=(bumped(keys), counts)),
        "a chain count": map_with(chains=(keys, bumped(counts))),
    }
    for part, other in tampered.items():
        assert not m.same_counts(other), part
    assert m.same_counts(combinatorics_map("cabca"))


def test_staged_comparison_equals_the_full_one_on_every_pair_up_to_five_letters():
    texts = ["".join(t) for n in range(1, 6) for t in itertools.product("abc", repeat=n)]
    pairs = list(itertools.combinations(zip(texts, map(combinatorics_map, texts)), 2))
    assert len(pairs) == 65703
    for (a, ma), (b, mb) in pairs:
        assert ma.same_counts(mb) == ma.sparse.same(mb.sparse), (a, b)


def seeded_theorem_pairs(n: int) -> list[tuple[str, str]]:
    """Like the benchmark's theorem pairs: each test word with its permuted image and with the next test word."""
    if n == 10:
        _, _, test = datasets.gen_palindrome_dataset(10, (2, 2, 12), seed=41)
    else:
        _, _, test = datasets.gen_password_dataset((2, 2, 8), seed=42, n=n)
    clean = [w.text for w in test.words()]
    permuted = [w.text for w in datasets.permute_dataset(test, 43).words()]
    return list(zip(clean, permuted)) + list(zip(clean, clean[1:] + clean[:1]))


@pytest.mark.parametrize("n", [10, 15])
def test_staged_comparison_equals_the_full_one_on_seeded_pairs(n):
    for a, b in seeded_theorem_pairs(n):
        ma, mb = combinatorics_map(a), combinatorics_map(b)
        assert ma.same_counts(mb) == ma.sparse.same(mb.sparse), (a, b)


def counted_stages(a: str, b: str) -> tuple[bool, int, int]:
    """same_counts of two fresh maps, and how often it built a channel-0 grid and counted chains."""
    grid, built = SubwordTable.__dict__["empty_cells"], []
    counted = cached_property(lambda table: built.append(table) or grid.func(table))
    counted.__set_name__(SubwordTable, "empty_cells")
    with (
        mock.patch.object(SubwordTable, "empty_cells", counted),
        mock.patch.object(combinatorics, "_chain_keys", wraps=combinatorics._chain_keys) as chains,
    ):
        same = combinatorics_map(a).same_counts(combinatorics_map(b))
    return same, len(built), chains.call_count


def test_an_unrelated_pair_stops_at_the_first_part_that_differs():
    assert counted_stages("ab", "aa") == (False, 0, 0)  # D = 4 against 3
    ta, tb = distinct_subwords("aab"), distinct_subwords("abb")
    assert np.array_equal(ta.lengths, tb.lengths)  # so channel 0's grid settles it
    assert counted_stages("aab", "abb") == (False, 2, 0)


def test_a_related_pair_counts_both_maps_and_each_channel_0_once():
    assert counted_stages("aba", "cdc") == (True, 2, 2)


def test_a_related_pair_builds_neither_sparse_form():
    for a, b in [("aba", "cdc"), seeded_theorem_pairs(15)[0]]:
        ma, mb = combinatorics_map(a), combinatorics_map(b)
        assert ma.same_counts(mb), (a, b)
        assert "sparse" not in vars(ma) and "sparse" not in vars(mb), (a, b)


def test_a_map_keeps_no_empty_cell_grid_once_its_sparse_form_is_built():
    ma, mb = combinatorics_map("aba"), combinatorics_map("cdc")
    assert ma.same_counts(mb)  # caches both tables' grids
    ma.sparse, mb.sparse
    assert "empty_cells" not in vars(ma.table) and "empty_cells" not in vars(mb.table)
    assert np.array_equal(ma.table.empty_cells, distinct_subwords("aba").empty_cells)


@given(words_lower)
@settings(max_examples=50, deadline=None)
def test_symmetry_and_conservation(text):
    m = combinatorics_map(text)
    t = m.table
    lengths = [e.length for e in t.entries]
    totals: dict[tuple[int, int], int] = {}
    for (li, mi, nu), c in m.counts.items():
        assert m.counts.get((mi, li, nu), 0) == c
        if li and mi:
            totals[(li, mi)] = totals.get((li, mi), 0) + (lengths[nu] or 1) * c
    for li in range(1, len(t)):
        for mi in range(1, len(t)):
            assert totals.get((li, mi), 0) == lengths[li] * lengths[mi]


@given(words_lower)
@settings(max_examples=40, deadline=None)
def test_every_component_subword_is_in_table(text):
    t = distinct_subwords(text)
    for li in range(1, len(t)):
        for mi in range(1, len(t)):
            for nu in grid_components(t[li].content, t[mi].content):
                assert nu in t


def test_sparse_rows_sorted_and_positive():
    m = combinatorics_map("abca")
    rows = [list(row) for row in m.sparse.rows()]
    assert len(rows) == m.size
    triples = [(lam, mu, nu) for lam, row in enumerate(rows) for mu, nu, _ in row]
    assert triples == sorted(triples) and len(set(triples)) == len(triples)
    assert all(c > 0 for row in rows for _, _, c in row)


def test_stored_counts_positive_and_in_range():
    m = combinatorics_map("abad")
    d = m.size
    for (li, mi, nu), c in m.counts.items():
        assert c > 0
        assert 0 <= li < d and 0 <= mi < d and 0 <= nu < d


def test_conservation_on_a_word_past_int8_positions():
    """Per cell, the cells of all components add up to |lam| * |mu| on a 67-letter word."""
    text = "ab" * 33 + "c"
    m = combinatorics_map(text)
    s, d = m.sparse, m.size
    lengths = np.array([e.length for e in m.table.entries])
    rows, cols = np.triu_indices(d)
    chains = np.bincount(np.repeat(np.arange(rows.shape[0]), s.sizes), weights=lengths[s.nus] * s.counts, minlength=rows.shape[0])
    inner = (rows > 0) & (cols > 0)
    assert np.array_equal((chains + s.empty)[inner], (lengths[rows] * lengths[cols])[inner])


def test_pairs_of_a_word_past_int8_positions_match_the_flood_fill():
    text = "ab" * 33 + "c"
    m = combinatorics_map(text)
    s, t = m.sparse, m.table
    rows, cols = np.triu_indices(m.size)
    cell_of = {(int(r), int(c)): i for i, (r, c) in enumerate(zip(rows, cols))}
    starts = np.concatenate([[0], np.cumsum(s.sizes, dtype=np.int64)])
    rng = random.Random(67)
    for _ in range(25):
        li, mi = sorted(rng.sample(range(1, m.size), 2))
        q = cell_of[(li, mi)]
        got = dict(zip(s.nus[starts[q] : starts[q + 1]].tolist(), s.counts[starts[q] : starts[q + 1]].tolist()))
        got[0] = int(s.empty[q])
        want = Counter(t.index_of(nu) for nu in grid_components(t[li].content, t[mi].content))
        want[0] += 0  # the empty channel is stored even where it is zero
        assert got == want, (li, mi)


def test_map_of_a_30_letter_word_stays_within_its_memory_bound():
    rng = random.Random(6)
    text = "".join(rng.choice("abcdef") for _ in range(30))
    tracemalloc.start()
    try:
        m = combinatorics_map(text)
        m.sparse  # the map counts its chains when first asked for them
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.size == 435
    assert peak <= 40e6, f"{peak / 1e6:.1f} MB"


def test_map_of_a_48_letter_word_over_8_letters_holds_one_key_per_entry():
    # 22.8 M chains in 5.2 M entries; one key per chain peaked at 225 MB here.
    rng = random.Random(1)
    text = "".join(rng.choice("abcdefgh") for _ in range(48))
    tracemalloc.start()
    try:
        m = combinatorics_map(text)
        m.sparse  # the map counts its chains when first asked for them
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.size, m.sparse.nus.size, int(m.sparse.counts.sum(dtype=np.int64))) == (1121, 5210310, 22785326)
    assert peak <= 150e6, f"{peak / 1e6:.1f} MB"


# Both count paths: the one-block clip (bound above every grid) and the slab path (bound 0).
ONE_BLOCK, SLABS = 1 << 62, 0


def counts_by_path(table, pad_to: int, channels: int, cap: int | None, bound: int):
    with mock.patch.object(combinatorics, "_ONE_BLOCK_CELLS", bound):
        return dense_counts(table, pad_to, channels, cap)


def layouts(table):
    """The map layout, the encoder's for_length(n) and nu-cap-3 layouts, and a pad past the table size."""
    n, d = len(table.word), len(table)
    cfg = EncodingConfig.for_length(n)
    capped = dataclasses.replace(cfg, nu_cap_len=3)
    return [(d, d, None), (cfg.pad_to, channel_count(cfg), cfg.nu_cap_len), (capped.pad_to, channel_count(capped), 3), (d + 7, d + 7, None)]


def assert_paths_agree(text: str) -> None:
    table = distinct_subwords(text)
    for pad_to, channels, cap in layouts(table):
        one = counts_by_path(table, pad_to, channels, cap, ONE_BLOCK)
        slabs = counts_by_path(table, pad_to, channels, cap, SLABS)
        for name, a, b in zip(("sizes", "nus", "counts", "empty"), one._arrays(), slabs._arrays()):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b), (text, pad_to, cap, name)


words_2_to_8_letters = st.integers(2, 8).flatmap(lambda k: st.text(alphabet="abcdefgh"[:k], min_size=1, max_size=12))


@given(words_2_to_8_letters)
@settings(max_examples=60, deadline=None)
def test_one_block_and_slab_paths_give_the_same_bytes(text):
    assert_paths_agree(text)


@pytest.mark.parametrize("n, letters", [(10, "abcde"), (15, "abcdefghijkl"), (20, "abcdef")])
def test_one_block_and_slab_paths_agree_on_seeded_words(n, letters):
    rng = random.Random(n)
    for _ in range(4):
        assert_paths_agree("".join(rng.choice(letters) for _ in range(n)))


def test_the_path_is_chosen_by_the_grid_size():
    # "abca" has the main diagonal and two one-cell runs; the slab path clips only the main diagonal.
    table = distinct_subwords("abca")
    runs = table.runs()[0].shape[0]
    cells = runs * (len(table) - 1) ** 2
    clipped = []
    real = combinatorics._clipper
    with mock.patch.object(combinatorics, "_clipper", lambda *a: clipped.append(a[1].shape[0]) or real(*a)):
        for bound in (cells, cells - 1):
            with mock.patch.object(combinatorics, "_ONE_BLOCK_CELLS", bound):
                dense_counts(table, len(table), len(table), None)
    assert (runs, clipped) == (3, [3, 1])
