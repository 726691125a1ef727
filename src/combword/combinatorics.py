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
the word's own diagonal equality runs, and all D^2 clips of one run reduce to
outer max/min over window bounds; empty-cell counts come from a 2-D prefix
sum of the equality matrix. The runs, the window bounds and the index of each
clipped window are arrays of the word's ``SubwordTable``, all read off one
agreement matrix in ``words.subword_windows``. ``combinatorics_map`` is the
unpadded, uncapped (D, D, D) grid, and the tensor encoder pads it and caps
its channel axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .words import SubwordTable, Word, distinct_subwords


@dataclass(frozen=True, eq=False)
class CombinatoricsMap:
    """Raw counts over canonical index triples (lam, mu, nu) as a (D, D, D) grid.

    Together with its table this is the word's full combinatorial fingerprint.
    """

    table: SubwordTable
    grid: np.ndarray

    @property
    def size(self) -> int:
        return len(self.table)

    @cached_property
    def counts(self) -> dict[tuple[int, int, int], int]:
        """Sparse view: the nonzero triples, ascending, mapped to their counts."""
        nz = np.nonzero(self.grid)
        return dict(zip(zip(*(a.tolist() for a in nz)), self.grid[nz].tolist()))

    def count(self, lam_idx: int, mu_idx: int, nu_idx: int) -> int:
        return int(self.grid[lam_idx, mu_idx, nu_idx])

    def same_counts(self, other: "CombinatoricsMap") -> bool:
        return np.array_equal(self.grid, other.grid)

    def sparse_lines(self) -> list[str]:
        """One `lam mu nu count` line per nonzero triple, ascending by triple."""
        return [f"{l} {m} {v} {c}" for (l, m, v), c in self.counts.items()]


_RUN_CHUNK = 16  # runs processed per broadcast block, bounds peak memory


def _chain_contributions(table: SubwordTable, nu_len_cap: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All non-empty component productions across all operand pairs.

    Returns parallel arrays (lam_idx, mu_idx, nu_idx), one element per
    component, with nu restricted to subwords no longer than the cap.
    Clipping one of the word's own equality runs to a window pair yields
    exactly the maximal chains of that pair's grid, so each global run
    contributes at most one component per pair and all pairs are handled
    with outer max/min over the window bounds.
    """
    n = len(table.word)
    p = table.starts
    pe = p + table.lengths
    u, v, m = table.runs()
    cap = n if nu_len_cap is None else min(nu_len_cap, n)
    d1 = p.shape[0]
    row_ids = np.arange(1, d1 + 1, dtype=np.int32)

    lams, mus, nus = [], [], []
    for c0 in range(0, u.shape[0], _RUN_CHUNK):
        uu, vv, mm = u[c0 : c0 + _RUN_CHUNK], v[c0 : c0 + _RUN_CHUNK], m[c0 : c0 + _RUN_CHUNK]
        off = uu - vv
        row_lo = np.maximum(uu[:, None], p[None, :])          # (R, D-1)
        row_hi = np.minimum((uu + mm)[:, None], pe[None, :])  # (R, D-1)
        col_lo = off[:, None] + p[None, :]
        col_hi = off[:, None] + pe[None, :]
        lo = np.maximum(row_lo[:, :, None], col_lo[:, None, :])  # (R, D-1, D-1)
        hi = np.minimum(row_hi[:, :, None], col_hi[:, None, :])
        k = hi - lo
        valid = (k > 0) & (k <= cap)
        if not valid.any():
            continue
        where = np.nonzero(valid)
        lams.append(row_ids[where[1]])
        mus.append(row_ids[where[2]])
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


def dense_counts(table: SubwordTable, pad_to: int, channels: int, nu_len_cap: int | None) -> np.ndarray:
    """Raw counts as a dense zero-padded (pad_to, pad_to, channels) array.

    Chains producing a subword longer than nu_len_cap are left out. Channel 0
    holds the empty-cell counts and the border rules of the empty operand.
    """
    d = len(table)
    if pad_to < d:
        raise ValueError(f"pad_to={pad_to} is smaller than the table size {d}")
    lam, mu, nu = _chain_contributions(table, nu_len_cap)
    if nu.size and int(nu.max()) >= channels:
        raise ValueError(f"channel axis of {channels} cannot hold nu index {int(nu.max())}")
    flat = (lam.astype(np.int64) * pad_to + mu) * channels + nu
    out = np.bincount(flat, minlength=pad_to * pad_to * channels).reshape(pad_to, pad_to, channels)
    out[1:d, 1:d, 0] = _empty_cell_counts(table)
    out[1:d, 0, 0] = table.lengths
    out[0, 1:d, 0] = table.lengths
    out[0, 0, 0] = 1
    return out


def combinatorics_map(word: Word | str) -> CombinatoricsMap:
    """The full map over all D^2 operand pairs: the raw (D, D, D) count grid."""
    table = distinct_subwords(word)
    d = len(table)
    return CombinatoricsMap(table, dense_counts(table, d, d, None))
