"""Subword-pair match grids, diagonal components, and the full count map.

For two subwords lam = Y1..Ys and mu = Z1..Zt of the same word, the match
grid holds Y_i at cell (i, j) when Y_i == Z_j and the empty mark otherwise.
Non-empty cells chain along (i, j) -> (i+1, j+1) steps; each maximal chain
reads off a subword of the source word, and each empty cell stands alone and
reads off the empty subword. Counting, per subword pair, how many components
read off each subword nu gives a three-index integer map. Pairs involving
the empty subword are covered by fixed border rules rather than a grid.

Two construction paths exist:

* a per-pair path (``match_matrix`` / ``diagonal_components`` /
  ``produced_subword`` / ``combinatorics_entry``) that scans one grid's
  diagonals, kept small and auditable;
* a vectorized whole-word path used by ``combinatorics_map`` and the tensor
  encoder: every subword is a window into the word, so every chain in every
  pair grid is a clip of one of the word's own diagonal equality runs, and
  all D^2 clips of one run reduce to outer max/min over window bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .words import EPSILON, SubwordTable, Word, as_text, distinct_subwords

@dataclass(frozen=True)
class MatchMatrix:
    """The s x t letter-agreement grid for a pair of non-empty subwords."""

    rows: str
    cols: str
    cells: tuple[tuple[str, ...], ...]

    @property
    def s(self) -> int:
        return len(self.rows)

    @property
    def t(self) -> int:
        return len(self.cols)


@dataclass(frozen=True)
class Component:
    """A maximal diagonal chain of matching cells, or one empty cell.

    Cells are 0-based (row, col) pairs in ascending diagonal order; the first
    one is the component's minimal-index cell.
    """

    cells: tuple[tuple[int, int], ...]
    empty: bool

    @property
    def start(self) -> tuple[int, int]:
        return self.cells[0]


def match_matrix(lam: Word | str, mu: Word | str) -> MatchMatrix:
    """Build the letter-agreement grid for two non-empty subwords."""
    a, b = as_text(lam), as_text(mu)
    if not a or not b:
        raise ValueError("match matrix operands must be non-empty; empty operands follow the border rules")
    cells = tuple(tuple(ya if ya == zb else EPSILON for zb in b) for ya in a)
    return MatchMatrix(a, b, cells)


def diagonal_components(m: MatchMatrix) -> list[Component]:
    """Partition all s*t cells into empty singletons and maximal chains.

    Components are returned in row-major order of their starting cell.
    """
    s, t = m.s, m.t
    comps: list[Component] = []
    for i in range(s):
        for j in range(t):
            if m.cells[i][j] == EPSILON:
                comps.append(Component(((i, j),), empty=True))
                continue
            if i > 0 and j > 0 and m.cells[i - 1][j - 1] != EPSILON:
                continue  # interior of a chain that started further up-left
            chain = [(i, j)]
            while chain[-1][0] + 1 < s and chain[-1][1] + 1 < t and m.cells[chain[-1][0] + 1][chain[-1][1] + 1] != EPSILON:
                chain.append((chain[-1][0] + 1, chain[-1][1] + 1))
            comps.append(Component(tuple(chain), empty=False))
    comps.sort(key=lambda c: c.start)
    return comps


def produced_subword(c: Component, m: MatchMatrix) -> str:
    """Read the subword a component spells out, walking from its minimal cell."""
    if c.empty:
        return EPSILON
    return "".join(m.cells[i][j] for i, j in c.cells)


def combinatorics_entry(table: SubwordTable, lam_idx: int, mu_idx: int) -> dict[int, int]:
    """Count, for one operand pair, how many components produce each subword.

    Returns a sparse {nu_index: count} dict. Operand index 0 is the empty
    subword and follows the border rules: only the empty output is produced,
    with multiplicity equal to the other operand's length (or 1 when both
    operands are empty).
    """
    d = len(table)
    if not (0 <= lam_idx < d and 0 <= mu_idx < d):
        raise ValueError(f"operand index out of range: ({lam_idx}, {mu_idx}) with D={d}")
    if lam_idx == 0 and mu_idx == 0:
        return {0: 1}
    if mu_idx == 0:
        return {0: table[lam_idx].length}
    if lam_idx == 0:
        return {0: table[mu_idx].length}

    m = match_matrix(table[lam_idx].content, table[mu_idx].content)
    counts: dict[int, int] = {}
    for comp in diagonal_components(m):
        nu = table.index_of(produced_subword(comp, m))
        counts[nu] = counts.get(nu, 0) + 1
    return counts


@dataclass(frozen=True)
class CombinatoricsMap:
    """Sparse counts over canonical index triples (lam, mu, nu).

    Absent triples mean zero. Together with the table size D this is the
    word's full combinatorial fingerprint.
    """

    table: SubwordTable
    counts: dict[tuple[int, int, int], int]

    @property
    def size(self) -> int:
        return len(self.table)

    def count(self, lam_idx: int, mu_idx: int, nu_idx: int) -> int:
        return self.counts.get((lam_idx, mu_idx, nu_idx), 0)

    def same_counts(self, other: "CombinatoricsMap") -> bool:
        return self.size == other.size and self.counts == other.counts

    def sparse_lines(self) -> list[str]:
        """One `lam mu nu count` line per stored triple, ascending by triple."""
        return [f"{l} {m} {v} {c}" for (l, m, v), c in sorted(self.counts.items())]


# ---------------------------------------------------------------------------
# Vectorized whole-word path.
# ---------------------------------------------------------------------------

_RUN_CHUNK = 16  # runs processed per broadcast block, bounds peak memory


def _equality_matrix(text: str) -> np.ndarray:
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    return codes[:, None] == codes[None, :]


def _diagonal_runs(eq: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal diagonal runs of True cells, as (row, col, length) arrays."""
    ones = {(int(x), int(y)) for x, y in np.argwhere(eq)}
    starts = []
    for x, y in ones:
        if (x - 1, y - 1) in ones:
            continue
        k = 1
        while (x + k, y + k) in ones:
            k += 1
        starts.append((x, y, k))
    starts.sort()
    if not starts:
        return (np.zeros(0, np.int32),) * 3
    arr = np.asarray(starts, dtype=np.int32)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def _window_bounds(table: SubwordTable) -> tuple[np.ndarray, np.ndarray]:
    """First-occurrence (start, length) arrays for entries 1..D-1."""
    p = np.asarray([e.start for e in table.entries[1:]], dtype=np.int32)
    s = np.asarray([e.length for e in table.entries[1:]], dtype=np.int32)
    return p, s


def _span_index(table: SubwordTable) -> np.ndarray:
    """(start, length) -> canonical index for every occurrence of a subword."""
    text = table.word.text
    n = len(text)
    idx = np.zeros((n, n + 1), dtype=np.int32)
    for start in range(n):
        for length in range(1, n - start + 1):
            idx[start, length] = table.index_of(text[start : start + length])
    return idx


def _chain_contributions(
    eq: np.ndarray, table: SubwordTable, nu_len_cap: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All non-empty component productions across all operand pairs.

    Returns parallel arrays (lam_idx, mu_idx, nu_idx), one element per
    component, with nu restricted to subwords no longer than the cap.
    Clipping one of the word's own equality runs to a window pair yields
    exactly the maximal chains of that pair's grid, so each global run
    contributes at most one component per pair and all pairs are handled
    with outer max/min over the window bounds.
    """
    n = eq.shape[0]
    p, s = _window_bounds(table)
    pe = p + s
    span = _span_index(table)
    u, v, m = _diagonal_runs(eq)
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
        nus.append(span[lo[valid], k[valid]])
    if not lams:
        empty = np.zeros(0, np.int32)
        return empty, empty, empty
    return np.concatenate(lams), np.concatenate(mus), np.concatenate(nus)


def _empty_cell_counts(eq: np.ndarray, table: SubwordTable) -> np.ndarray:
    """M at nu = empty for every non-empty operand pair, as a (D-1, D-1) grid."""
    p, s = _window_bounds(table)
    pe = p + s
    pref = np.zeros((eq.shape[0] + 1, eq.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(eq, axis=0), axis=1, out=pref[1:, 1:])
    ones = pref[np.ix_(pe, pe)] - pref[np.ix_(p, pe)] - pref[np.ix_(pe, p)] + pref[np.ix_(p, p)]
    return s[:, None].astype(np.int64) * s[None, :] - ones


def dense_counts(
    word: Word | str,
    table: SubwordTable,
    pad_to: int,
    channels: int,
    nu_len_cap: int | None,
) -> np.ndarray:
    """Raw counts as a dense zero-padded (pad_to, pad_to, channels) array."""
    text = as_text(word)
    d = len(table)
    if pad_to < d:
        raise ValueError(f"pad_to={pad_to} is smaller than the table size {d}")
    eq = _equality_matrix(text)
    lam, mu, nu = _chain_contributions(eq, table, nu_len_cap)
    if nu.size and int(nu.max()) >= channels:
        raise ValueError(f"channel axis of {channels} cannot hold nu index {int(nu.max())}")
    flat = (lam.astype(np.int64) * pad_to + mu) * channels + nu
    out = np.bincount(flat, minlength=pad_to * pad_to * channels).reshape(pad_to, pad_to, channels)
    out[1:d, 1:d, 0] = _empty_cell_counts(eq, table)
    lengths = np.asarray([e.length for e in table.entries[1:]], dtype=np.int64)
    out[1:d, 0, 0] = lengths
    out[0, 1:d, 0] = lengths
    out[0, 0, 0] = 1
    return out


def combinatorics_map(word: Word | str) -> CombinatoricsMap:
    """Assemble the full sparse map over all D^2 operand pairs of a word."""
    table = distinct_subwords(word)
    text = as_text(word)
    d = len(table)
    eq = _equality_matrix(text)
    lam, mu, nu = _chain_contributions(eq, table, None)
    counts: dict[tuple[int, int, int], int] = {}
    if lam.size:
        flat = (lam.astype(np.int64) * d + mu) * d + nu
        uniq, cnt = np.unique(flat, return_counts=True)
        for f, c in zip(uniq.tolist(), cnt.tolist()):
            lm, v = divmod(f, d)
            l, mm = divmod(lm, d)
            counts[(l, mm, v)] = c
    eps = _empty_cell_counts(eq, table)
    for i, j in zip(*np.nonzero(eps)):
        counts[(int(i) + 1, int(j) + 1, 0)] = int(eps[i, j])
    for idx in range(1, d):
        counts[(idx, 0, 0)] = table[idx].length
        counts[(0, idx, 0)] = table[idx].length
    counts[(0, 0, 0)] = 1
    return CombinatoricsMap(table, counts)
