"""The subword-pair count map of a word, built in one vectorized pass.

For two subwords lam = Y1..Ys and mu = Z1..Zt of the same word, the match
grid holds Y_i at cell (i, j) when Y_i == Z_j and the empty mark otherwise.
Non-empty cells chain along (i, j) -> (i+1, j+1) steps; each maximal chain
reads off a subword of the source word, and each empty cell stands alone and
reads off the empty subword. Counting, per subword pair, how many components
read off each subword nu gives a three-index integer map. Pairs involving
the empty subword are covered by fixed border rules rather than a grid.

``dense_counts`` is the only place that builds counts. Every subword is a
window into the word, so every chain in every pair grid is a clip of one of
the word's own diagonal equality runs, and all clips of one run reduce to
outer max/min over window bounds; empty-cell counts come from a 2-D prefix
sum of the equality matrix. The runs, the window bounds and the index of each
clipped window are arrays of the word's ``SubwordTable``, all read off one
agreement matrix in ``words.subword_windows``.

The map is symmetric, M[lam, mu, nu] = M[mu, lam, nu], so only the upper
half lam <= mu is built and kept, in a sparse form (``SparseCounts``): the
nonzero chain counts sorted by (lam, mu, nu), and channel 0 (nu = empty) as
a small dense triangle. ``combinatorics_map`` holds that form over the
unpadded, uncapped (D, D, D) layout; the tensor encoder keeps one per
repetition pattern over its padded, capped layout and mirrors it into each
batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .words import SubwordTable, Word, distinct_subwords


@dataclass(frozen=True, eq=False)
class SparseCounts:
    """A word's counts on the upper half lam <= mu of a (pad_to, pad_to, channels) grid.

    The cells (lam, mu) are numbered in ``np.triu_indices(pad_to)`` order.
    The nonzero chain counts (nu > 0) are sorted by (cell, nu): ``nus`` and
    ``counts`` hold them and ``sizes`` says how many belong to each cell, so
    no cell index is stored per entry. ``empty`` is channel 0 at every cell.
    The four arrays are read-only views of one buffer, so a cached form is
    one allocation.
    """

    sizes: np.ndarray
    nus: np.ndarray
    counts: np.ndarray
    empty: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self._arrays())

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return self.sizes, self.nus, self.counts, self.empty

    def same(self, other: "SparseCounts") -> bool:
        return all(np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays()))


def _one_buffer(*arrays: np.ndarray) -> list[np.ndarray]:
    """Copies of the arrays as read-only views of one new buffer, each at an aligned offset."""
    offsets, end = [], 0
    for a in arrays:
        start = -(-end // a.itemsize) * a.itemsize
        offsets.append(start)
        end = start + a.nbytes
    buf = np.empty(end, dtype=np.uint8)
    views = []
    for a, start in zip(arrays, offsets):
        view = buf[start : start + a.nbytes].view(a.dtype)
        view[...] = a
        view.flags.writeable = False
        views.append(view)
    buf.flags.writeable = False
    return views


@dataclass(frozen=True, eq=False)
class CombinatoricsMap:
    """Raw counts over canonical index triples (lam, mu, nu), upper half kept sparse.

    Together with its table this is the word's full combinatorial fingerprint.
    """

    table: SubwordTable
    sparse: SparseCounts

    @property
    def size(self) -> int:
        return len(self.table)

    @cached_property
    def counts(self) -> dict[tuple[int, int, int], int]:
        """Every nonzero triple of both halves, ascending, mapped to its count."""
        s, d = self.sparse, self.size
        rows, cols = np.triu_indices(d)
        cells = np.repeat(np.arange(rows.shape[0]), s.sizes)
        lam = np.concatenate([rows[cells], rows])
        mu = np.concatenate([cols[cells], cols])
        nu = np.concatenate([s.nus, np.zeros_like(rows)])
        values = np.concatenate([s.counts, s.empty])
        filled = values != 0
        lam, mu, nu, values = lam[filled], mu[filled], nu[filled], values[filled]
        keys = np.concatenate([(lam * d + mu) * d + nu, (mu * d + lam) * d + nu])
        # np.unique sorts the keys and drops the second copy of each lam == mu entry.
        keys, first = np.unique(keys, return_index=True)
        triples = zip(*(a.tolist() for a in np.unravel_index(keys, (d, d, d))))
        return dict(zip(triples, np.concatenate([values, values])[first].tolist()))

    def count(self, lam_idx: int, mu_idx: int, nu_idx: int) -> int:
        return self.counts.get((lam_idx, mu_idx, nu_idx), 0)

    def same_counts(self, other: "CombinatoricsMap") -> bool:
        return self.sparse.same(other.sparse)

    def sparse_lines(self) -> list[str]:
        """One `lam mu nu count` line per nonzero triple, ascending by triple."""
        return [f"{l} {m} {v} {c}" for (l, m, v), c in self.counts.items()]


_RUN_CHUNK = 16  # runs processed per broadcast block, bounds peak memory


def _chain_contributions(table: SubwordTable, nu_len_cap: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All non-empty component productions across the operand pairs lam <= mu.

    Returns parallel arrays (lam_idx, mu_idx, nu_idx), one element per
    component, with nu restricted to subwords no longer than the cap.
    Clipping one of the word's own equality runs to a window pair yields
    exactly the maximal chains of that pair's grid, so each global run
    contributes at most one component per pair and all pairs are handled
    with outer max/min over the window bounds. The pairs are the upper
    triangle of the table, so the lower half M[mu, lam] = M[lam, mu] is
    never computed.
    """
    n = len(table.word)
    p = table.starts
    pe = p + table.lengths
    u, v, m = table.runs()
    cap = n if nu_len_cap is None else min(nu_len_cap, n)
    a, b = np.triu_indices(p.shape[0])
    lam_ids, mu_ids = (a + 1).astype(np.int32), (b + 1).astype(np.int32)
    p_lam, pe_lam, p_mu, pe_mu = p[a], pe[a], p[b], pe[b]

    lams, mus, nus = [], [], []
    for c0 in range(0, u.shape[0], _RUN_CHUNK):
        uu, vv, mm = (x[c0 : c0 + _RUN_CHUNK, None] for x in (u, v, m))
        off = uu - vv
        # Clip rows to lam's window and columns, shifted onto rows, to mu's: (R, pairs).
        lo = np.maximum(np.maximum(uu, p_lam), off + p_mu)
        hi = np.minimum(np.minimum(uu + mm, pe_lam), off + pe_mu)
        k = hi - lo
        valid = (k > 0) & (k <= cap)
        if not valid.any():
            continue
        pair = np.nonzero(valid)[1]
        lams.append(lam_ids[pair])
        mus.append(mu_ids[pair])
        nus.append(table.span[lo[valid], k[valid]])
    if not lams:
        empty = np.zeros(0, np.int32)
        return empty, empty, empty
    return np.concatenate(lams), np.concatenate(mus), np.concatenate(nus)


def _empty_cell_counts(table: SubwordTable) -> np.ndarray:
    """M at nu = empty for every non-empty operand pair, as a (D-1, D-1) grid."""
    p, s = table.starts, table.lengths
    pe = p + s
    n = len(table.word)
    pref = np.zeros((n + 1, n + 1), dtype=np.int64)
    np.cumsum(np.cumsum(table.agree > 0, axis=0), axis=1, out=pref[1:, 1:])
    ones = pref[np.ix_(pe, pe)] - pref[np.ix_(p, pe)] - pref[np.ix_(pe, p)] + pref[np.ix_(p, p)]
    return s[:, None].astype(np.int64) * s[None, :] - ones


def dense_counts(table: SubwordTable, pad_to: int, channels: int, nu_len_cap: int | None) -> SparseCounts:
    """The upper half of a word's counts in a zero-padded (pad_to, pad_to, channels) layout.

    Chains producing a subword longer than nu_len_cap are left out. Channel 0
    holds the empty-cell counts and the border rules of the empty operand.
    The result is sparse; the name stays because the benchmark traces
    ``encoding.dense_counts`` and reports it as ``combinatorics.dense_counts_s``,
    so it changes together with the benchmark.
    """
    d = len(table)
    if pad_to < d:
        raise ValueError(f"pad_to={pad_to} is smaller than the table size {d}")
    lam, mu, nu = _chain_contributions(table, nu_len_cap)
    if nu.size and int(nu.max()) >= channels:
        raise ValueError(f"channel axis of {channels} cannot hold nu index {int(nu.max())}")
    lam = lam.astype(np.int64)
    cell = lam * pad_to - lam * (lam - 1) // 2 + mu - lam  # (lam, mu)'s place in np.triu_indices(pad_to)
    keys, counts = np.unique(cell * channels + nu, return_counts=True)
    cells, nus = np.divmod(keys, channels)
    n = len(table.word)
    count_type = np.min_scalar_type(n * n)  # no count, and no cell's number of nu, exceeds n^2
    plane = np.zeros((pad_to, pad_to), dtype=count_type)
    plane[1:d, 1:d] = _empty_cell_counts(table)
    plane[0, 1:d] = table.lengths
    plane[0, 0] = 1
    cell_count = pad_to * (pad_to + 1) // 2
    arrays = _one_buffer(
        np.bincount(cells, minlength=cell_count).astype(count_type),
        nus.astype(np.min_scalar_type(channels - 1)),
        counts.astype(count_type),
        plane[np.triu_indices(pad_to)],
    )
    return SparseCounts(*arrays)


def combinatorics_map(word: Word | str) -> CombinatoricsMap:
    """The full map over all D^2 operand pairs, stored as its upper half."""
    table = distinct_subwords(word)
    d = len(table)
    return CombinatoricsMap(table, dense_counts(table, d, d, None))
