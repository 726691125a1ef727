import dataclasses
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from combword.combinatorics import CombinatoricsMap, _chain_contributions, _empty_cell_counts, combinatorics_map
from combword.words import distinct_subwords
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


def produced_subwords(text: str, lam: str, mu: str) -> list[str]:
    """Subwords read off by the (lam, mu) grid's components, empty cells as ''.

    Chains are produced for lam <= mu only; the (mu, lam) grid is the
    transpose and reads off the same subwords.
    """
    t = distinct_subwords(text)
    lams, mus, nus = _chain_contributions(t, None)
    li, mi = sorted((t.index_of(lam), t.index_of(mu)))
    chains = [t[int(nu)].content for l, m, nu in zip(lams, mus, nus) if l == li and m == mi]
    empties = int(_empty_cell_counts(t)[li - 1, mi - 1])
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
    assert m.count(full, full, full) == 1
    assert m.count(full, full, t.index_of("a")) == 2
    assert m.count(full, full, 0) == 4
    assert int(dense_grid(m)[full, full].sum()) == 7


def test_entry_border_rules():
    m = combinatorics_map("ab")
    ab = m.table.index_of("ab")
    assert m.count(ab, 0, 0) == 2
    assert m.count(0, ab, 0) == 2
    assert m.count(0, 0, 0) == 1
    g = dense_grid(m)
    assert int(g[ab, 0].sum()) == 2 and int(g[0, ab].sum()) == 2 and int(g[0, 0].sum()) == 1


def test_map_aa_values():
    m = combinatorics_map("aa")
    t = m.table
    a, aa = t.index_of("a"), t.index_of("aa")
    assert m.count(a, a, a) == 1
    assert m.count(aa, aa, aa) == 1
    assert m.count(a, aa, a) == 2
    assert m.count(a, 0, 0) == 1


def test_map_ab_values():
    m = combinatorics_map("ab")
    t = m.table
    ab = t.index_of("ab")
    assert m.count(ab, ab, ab) == 1
    assert m.count(ab, ab, 0) == 2
    assert m.count(t.index_of("a"), t.index_of("b"), t.index_of("a")) == 0
    assert (t.index_of("a"), t.index_of("b"), t.index_of("a")) not in m.counts


@given(words_lower)
@settings(max_examples=60)
def test_map_main_diagonal_at_least_one(text):
    m = combinatorics_map(text)
    w = m.table.index_of(text)
    assert m.count(w, w, w) >= 1


@given(words_abc)
@settings(max_examples=80, deadline=None)
def test_map_matches_flood_fill_oracle(text):
    d, expected = brute_map(text)
    m = combinatorics_map(text)
    assert m.size == d
    assert m.counts == expected


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
    ga, gb = dense_grid(ma), dense_grid(mb)
    assert ma.same_counts(mb) == (ga.shape == gb.shape and np.array_equal(ga, gb))


def test_same_counts_compares_every_array():
    m = combinatorics_map("abcab")
    for name in ("sizes", "nus", "counts", "empty"):
        changed = getattr(m.sparse, name).copy()
        changed[-1] += 1
        other = CombinatoricsMap(m.table, dataclasses.replace(m.sparse, **{name: changed}))
        assert not m.same_counts(other), name
    assert m.same_counts(combinatorics_map("cabca"))


@given(words_lower)
@settings(max_examples=50, deadline=None)
def test_symmetry_and_conservation(text):
    m = combinatorics_map(text)
    t = m.table
    lengths = [e.length for e in t.entries]
    totals: dict[tuple[int, int], int] = {}
    for (li, mi, nu), c in m.counts.items():
        assert m.count(mi, li, nu) == c
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


def test_sparse_lines_sorted_and_positive():
    m = combinatorics_map("abca")
    lines = m.sparse_lines()
    triples = [tuple(map(int, line.split()[:3])) for line in lines]
    assert triples == sorted(triples)
    assert all(int(line.split()[3]) > 0 for line in lines)


def test_stored_counts_positive_and_in_range():
    m = combinatorics_map("abad")
    d = m.size
    for (li, mi, nu), c in m.counts.items():
        assert c > 0
        assert 0 <= li < d and 0 <= mi < d and 0 <= nu < d
