"""The subword-pair count map of a word, built from its equality runs without loops over pairs.

For two subwords lam = Y1..Ys and mu = Z1..Zt of the same word, the match
grid holds Y_i at cell (i, j) when Y_i == Z_j and the empty mark otherwise.
Non-empty cells chain along (i, j) -> (i+1, j+1) steps; each maximal chain
reads off a subword of the source word, and each empty cell stands alone and
reads off the empty subword. Counting, per subword pair, how many components
read off each subword nu gives a three-index integer map. Pairs involving
the empty subword are covered by fixed border rules rather than a grid.

``dense_counts`` is the only place that builds counts. Every subword is a
window into the word, so every chain in every pair grid is a clip of one of
the word's own diagonal equality runs, and each run gives a pair at most one
chain. Clipping a run to a pair's window bounds is, per run and window, a row
interval, so a block of runs meets every pair through one outer max and one
outer min, on positions held in 8 bits up to length 63. A chain is counted
under the integer key (lam * P + mu) * P + nu, where P is the padded axis,
and one sort of the keys sums equal ones, already in (lam, mu, nu) order.

A word is counted one of two ways, chosen by its grid of runs x (D - 1)^2
(run, pair) cells alone:

- Up to _ONE_BLOCK_CELLS (2^17) cells, every run, one-cell runs included,
  is clipped against every pair in one block, and one sort counts the keys.
  Each of these steps is a numpy call on the whole grid, so the word pays
  the call overhead once. This covers every n=10 word (22k cells on average)
  and about half of the n=15 passwords; timed per word, it takes 0.58-0.78x
  the slab path's time up to 2^17 cells and 1.1-1.4x above.
- A larger word is counted in slabs of pair rows. A one-cell run (u, v) is
  a chain of the pair (lam, mu) exactly when lam's window covers u and mu's
  covers v, and it always reads off the letter at u, so per letter the
  counts of all pairs are one product of 0/1 window-coverage matrices,
  cov^T R cov, with R marking that letter's one-cell runs; most runs of most
  words are one cell long. The longer runs (the main diagonal among them)
  are clipped in blocks of a bounded number of (run, pair) cells. Per slab, a
  clipped chain is one key and a letter's product gives one key per pair
  with its count as a weight, so only one slab's keys are held at a time and
  the result holds one key per entry, however many chains it counts.

Empty-cell counts are the pairs' cell counts less their matching cells, and
those are the product cov^T E cov of the equality matrix E. The runs, the
window bounds, the coverage and the index of each clipped window are arrays
of the word's ``SubwordTable``, all read off one agreement matrix in
``words.subword_windows``.

The map is symmetric, M[lam, mu, nu] = M[mu, lam, nu], so only the upper
half lam <= mu is built and kept, in a sparse form (``SparseCounts``): the
nonzero chain counts sorted by (lam, mu, nu), and channel 0 (nu = empty) as
a small dense triangle. The tensor encoder keeps one per repetition pattern
over its padded, capped layout and mirrors it into each batch. Outside that
scatter, ``SparseCounts.rows`` is the one reader of the full map: it yields
one row lam at a time, read off the upper half's column and row lam, so
``CombinatoricsMap.counts`` and ``combword tensor`` never build both halves
at once.

``combinatorics_map`` builds only the word's subword table; the map builds
the rest over the unpadded, uncapped (D, D, D) layout when first asked for
it. Channel 0 of the non-empty pairs is the table's ``empty_cells`` grid,
one small product cached on the table. ``chains`` is the upper half's chain
counts as ``_chain_keys`` returns them, one key (lam * D + mu) * D + nu and
one count per entry, and nearly all of a map's cost. ``sparse`` is the
whole upper half laid out by ``dense_counts``, which counts the chains
afresh, takes its channel 0 from the grid and then drops it from the table,
since the result holds it. ``same_counts`` compares two maps cheapest part
first and builds the next part only while they agree: the table size D and
the subword lengths (row 0 of channel 0, free in the table), then the
tables' ``empty_cells`` (the rest of channel 0), then the two maps' chain
keys and counts, entry by entry. So two words that differ in D, a subword
length or an empty-cell count never count their chains, and two that agree
on all of channel 0 count each map's chains once and build no sparse form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    one allocation. Each is stored in the smallest unsigned type that holds
    its own largest value (``nus`` the largest channel index), which at
    n=20 keeps ``sizes`` and ``counts`` in one byte although n^2 = 400.
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

    def rows(self):
        """Row lam of the full, mirrored grid for each lam in turn: its nonzero (mu, nu, count) int triples, ascending.

        Row lam is column lam of the upper half (mu < lam), then row lam of
        it (mu >= lam), and each cell gives channel 0 and then its chains,
        so only one row of the full map is ever held.
        """
        side = (math.isqrt(8 * self.empty.shape[0] + 1) - 1) // 2
        sizes = self.sizes.astype(np.intp)  # narrow unsigned types would wrap or turn differences into floats
        starts = np.cumsum(sizes) - sizes
        mu = np.arange(side)
        diagonal = mu * side - mu * (mu - 1) // 2  # the cell (a, a); the cell (a, b >= a) is b - a further
        for lam in range(side):
            cell = diagonal[np.minimum(mu, lam)] + np.abs(mu - lam)
            chains = sizes[cell]
            entry = np.repeat(starts[cell] - (np.cumsum(chains) - chains), chains) + np.arange(chains.sum())
            # Channel 0 of every cell first, then the chains: a stable sort by mu puts each cell's channel 0 before its chains.
            row_mu = np.concatenate([mu, np.repeat(mu, chains)])
            order = np.argsort(row_mu, kind="stable")
            nus = np.concatenate([np.zeros_like(mu), self.nus[entry]])[order]
            counts = np.concatenate([self.empty[cell], self.counts[entry]])[order]
            kept = counts != 0
            yield zip(row_mu[order][kept].tolist(), nus[kept].tolist(), counts[kept].tolist())


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


class CombinatoricsMap:
    """Raw counts over canonical index triples (lam, mu, nu), upper half kept sparse.

    Together with its table this is the word's full combinatorial fingerprint.
    ``chains`` and ``sparse``, the upper half, are built when first asked
    for; a map made with its ``sparse`` given holds it as is.
    """

    def __init__(self, table: SubwordTable, sparse: SparseCounts | None = None):
        self.table = table
        if sparse is not None:
            self.sparse = sparse

    @cached_property
    def sparse(self) -> SparseCounts:
        d = self.size
        return dense_counts(self.table, d, d, None)

    @cached_property
    def chains(self) -> tuple[np.ndarray, np.ndarray]:
        """The chain counts of the pairs lam <= mu: ascending keys (lam * D + mu) * D + nu, and counts; read-only."""
        keys, counts = _chain_keys(self.table, self.size, None)
        return _read_only(keys), _read_only(counts)

    @property
    def size(self) -> int:
        return len(self.table)

    @cached_property
    def counts(self) -> dict[tuple[int, int, int], int]:
        """Every nonzero triple of both halves, ascending, mapped to its count."""
        return {(lam, mu, nu): c for lam, row in enumerate(self.sparse.rows()) for mu, nu, c in row}

    def same_counts(self, other: "CombinatoricsMap") -> bool:
        """Whether both maps hold the same counts, comparing their cheapest parts first.

        The table size D and the subword lengths are row 0 of channel 0, and
        the tables' ``empty_cells`` grids are the rest of it, so each stage
        that differs settles the answer ``sparse.same`` would give. The chain
        counts are built only for two words that agree on all of channel 0,
        and compared as keys and counts: with D equal, the keys name the same
        (lam, mu, nu) triples in both maps, so equal keys and counts are
        equal chain entries, as in ``sparse``, which is not built.
        """
        return (
            self.size == other.size
            and np.array_equal(self.table.lengths, other.table.lengths)
            and np.array_equal(self.table.empty_cells, other.table.empty_cells)
            and all(map(np.array_equal, self.chains, other.chains))
        )


_BLOCK_CELLS = 1 << 18  # (run or letter, pair) cells per block of the slab path, bounds a block's temporaries
_ONE_BLOCK_CELLS = 1 << 17  # a word with at most this many (run, pair) cells clips every run in one block


_CACHED_SIZE = 256  # masks of at most this side are kept; a larger one costs little next to its word's counts


def _per_size(build):
    """``build(size)`` kept for the 64 sizes last asked for, up to _CACHED_SIZE."""
    kept = lru_cache(maxsize=64)(build)
    return lambda size: kept(size) if size <= _CACHED_SIZE else build(size)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _key_type(pad_to: int) -> type:
    return np.int32 if pad_to**3 < 2**31 else np.int64


@_per_size
def _upper(size: int) -> np.ndarray:
    """(size, size) read-only mask of the cells a <= b; read row-major, it is np.triu_indices(size) order."""
    return _read_only(~np.tri(size, k=-1, dtype=bool))


@_per_size
def _upper_cells(size: int) -> np.ndarray:
    """Read-only flat indices of the (size, size) cells a <= b, in np.triu_indices(size) order."""
    return _read_only(np.flatnonzero(_upper(size)))


@lru_cache(maxsize=64)
def _pair_keys(d1: int, pad_to: int) -> np.ndarray:
    """key_of[a * d1 + b], the key of pair (a + 1, b + 1) at nu = 0; read-only. Kept only for one-block words."""
    key_type = _key_type(pad_to)
    ids = np.arange(1, d1 + 1, dtype=key_type) * key_type(pad_to)
    return _read_only(((ids[:, None] * pad_to) + ids).reshape(-1))


def _clipper(table: SubwordTable, u: np.ndarray, v: np.ndarray, m: np.ndarray, cap: int, key_of: np.ndarray):
    """The runs (u, v, m) clipped to the pairs' windows, as ``clip(r, a0, slab)``: one key per chain of 1..cap letters.

    ``clip`` takes the runs ``r`` (a slice) against the pairs (a, b) of rows
    a0 <= a < a0 + len(slab) whose ``slab`` cell is set. Clipping a run to
    the pair (a, b) keeps its rows inside window a and, shifted onto rows,
    its columns inside window b; both are bounds per run and window, so a
    block of runs meets every pair through one outer max and one outer min.
    Positions are held in the narrowest signed type that holds -n..2n.
    """
    n = len(table.word)
    pos = np.min_scalar_type(-2 * n - 1)
    p = table.starts.astype(pos)
    pe = p + table.lengths.astype(pos)
    d1 = p.shape[0]
    top, bottom, shift = (x.astype(pos)[:, None] for x in (u, u + m, u - v))
    row_lo, col_lo = np.maximum(top, p), np.maximum(top, shift + p)
    row_last, col_last = np.minimum(bottom, pe) - 1, np.minimum(bottom, shift + pe) - 1
    nu_of = table.span[:, 1:].reshape(-1)  # nu_of[lo * n + k - 1]: the subword of k letters at lo

    def clip(r: slice, a0: int, slab: np.ndarray) -> np.ndarray:
        a = slice(a0, a0 + slab.shape[0])
        lo = np.maximum(row_lo[r, a, None], col_lo[r, None, :])
        less = np.minimum(row_last[r, a, None], col_last[r, None, :])
        less -= lo  # the chain length less one, negative where the clip is empty
        # Read as unsigned, a negative value is large, so one compare keeps lengths 1..cap.
        flat = np.flatnonzero((less.view(f"u{pos.itemsize}") < cap) & slab)
        cell = flat - flat // slab.size * slab.size + a0 * d1
        at = lo.reshape(-1)[flat].astype(np.intp) * n + less.reshape(-1)[flat]
        return key_of[cell] + nu_of[at]

    return clip


def _letter_entries(table: SubwordTable, u: np.ndarray, v: np.ndarray, key_of: np.ndarray, upper: np.ndarray, rows: int):
    """Per slab of ``rows`` pair rows, the chains of the one-cell runs (u, v): one key per (pair, letter), and its count.

    A one-cell run is a chain of pair (a, b) exactly when window a covers u
    and window b covers v. So per letter, the chain counts of all pairs are
    cov^T R cov, where R marks that letter's one-cell runs; the float32
    products are exact while n^2 < 2^24. A slab's letters go in blocks of
    at most _BLOCK_CELLS grid cells.
    """
    cov = table.coverage
    n, d1 = cov.shape
    letter = table.span[u, 1]
    per_letter = np.bincount(letter)
    runs = np.zeros((per_letter.shape[0], n, n), dtype=np.float32)
    runs[letter, u, v] = 1
    present = np.flatnonzero(per_letter).astype(key_of.dtype)
    right = runs[present] @ cov
    layers = max(1, _BLOCK_CELLS // (rows * d1))
    for a0 in range(0, d1, rows):
        a = slice(a0, a0 + rows)
        slab = upper[a]
        keys, counts = [], []
        for c0 in range(0, present.shape[0], layers):
            c = slice(c0, c0 + layers)
            grid = cov[:, a].T @ right[c]
            flat = np.flatnonzero((grid != 0) & slab)
            layer = flat // slab.size
            cell = flat - layer * slab.size + a0 * d1
            keys.append(key_of[cell] + present[c][layer])
            counts.append(grid.reshape(-1)[flat].astype(key_of.dtype))
        grid = flat = layer = cell = None  # a suspended generator would hold them while the caller sorts
        yield np.concatenate(keys), np.concatenate(counts)


def _clip_keys(clip, runs: int, upper: np.ndarray, rows: int):
    """Per slab of ``rows`` pair rows, the keys of the chains that ``clip`` leaves of ``runs`` runs, in blocks of _BLOCK_CELLS cells."""
    d1 = upper.shape[0]
    block = max(1, _BLOCK_CELLS // (rows * d1))
    for a0 in range(0, d1, rows):
        slab = upper[a0 : a0 + rows]
        keys = [clip(slice(r0, r0 + block), a0, slab) for r0 in range(0, max(runs, 1), block)]
        yield keys[0] if len(keys) == 1 else np.concatenate(keys)


def _group_bounds(k: np.ndarray) -> np.ndarray:
    """The start of each group of equal values in the sorted k, then k's length."""
    edge = np.ones(k.shape[0] + 1, dtype=bool)
    np.not_equal(k[1:], k[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


def _chain_keys(table: SubwordTable, pad_to: int, nu_len_cap: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Every chain count of the pairs lam <= mu: ascending keys (lam * pad_to + mu) * pad_to + nu, and counts.

    A word of at most _ONE_BLOCK_CELLS (run, pair) cells clips all its runs,
    one-cell runs included, in one block, and one sort of their keys counts
    them. A larger word works in slabs of pair rows, so that only a slab's
    chains are ever held one key each: a clip key per chain of the longer
    runs, and one entry per (pair, letter) of the one-cell runs, whose count
    less one rides in the low bits of its shifted key (32-bit where that
    fits). A key has at most one letter entry, which so sorts last among its
    equals. One sort of a slab's keys groups equal keys, and a group's count
    is its size plus the low bits of its last member.
    """
    n = len(table.word)
    d1 = table.starts.shape[0]
    cap = n if nu_len_cap is None else min(nu_len_cap, n)
    if cap < 1:
        return np.zeros(0, dtype=_key_type(pad_to)), np.zeros(0, dtype=np.int32)
    upper = _upper(d1)  # a <= b over the entries 1..D-1, numbered from 0
    u, v, m = table.runs()
    if u.shape[0] * d1 * d1 <= _ONE_BLOCK_CELLS:
        k = _clipper(table, u, v, m, cap, _pair_keys(d1, pad_to))(slice(None), 0, upper)
        k.sort()
        bounds = _group_bounds(k)
        return k[bounds[:-1]], np.diff(bounds).astype(np.int32)
    key_of = _pair_keys.__wrapped__(d1, pad_to)  # a large word's table is built afresh, not kept
    one = m == 1
    longer = ~one
    # Pair rows per slab, so that a slab's letter products fit one block.
    rows = min(d1, max(1, _BLOCK_CELLS // (d1 * len(table.word.distinct_letters))))
    clips = _clip_keys(_clipper(table, u[longer], v[longer], m[longer], cap, key_of), int(longer.sum()), upper, rows)
    letters = _letter_entries(table, u[one], v[one], key_of, upper, rows) if one.any() else None
    keys, counts = [], []
    for clip in clips:
        k, shift = clip, 0
        if letters is not None:
            lk, lc = next(letters)
            shift = (int(lc.max(initial=1)) - 1).bit_length()
            k = np.concatenate([clip, lk]).astype(np.int32 if pad_to**3 << shift < 2**31 else np.int64, copy=False)
            if shift:
                k <<= shift
                k[clip.shape[0] :] |= lc - 1
        k.sort()
        low = k
        if shift:
            k = k >> shift
        bounds = _group_bounds(k)
        count = np.diff(bounds)
        if shift:
            count += low[bounds[1:] - 1] & ((1 << shift) - 1)
        keys.append(k[bounds[:-1]].astype(key_of.dtype, copy=False))
        counts.append(count.astype(np.int32))
    return (keys[0], counts[0]) if len(keys) == 1 else (np.concatenate(keys), np.concatenate(counts))


def dense_counts(table: SubwordTable, pad_to: int, channels: int, nu_len_cap: int | None) -> SparseCounts:
    """The upper half of a word's counts in a zero-padded (pad_to, pad_to, channels) layout.

    Chains producing a subword longer than nu_len_cap are left out. Channel 0
    holds the table's ``empty_cells`` grid, which is dropped from the table
    once copied, and the border rules of the empty operand.
    The chain counts come from one sorted block of clip keys for a small
    word, else from one sort per slab of pair rows (see the module
    docstring). Key order is (lam, mu, nu) order; keys are 32-bit while
    pad_to^3 < 2^31 (the encoder's pad up to word length 50), else 64-bit.
    The result is sparse; the name stays because the benchmark traces
    ``encoding.dense_counts`` and reports it as ``combinatorics.dense_counts_s``,
    so it changes together with the benchmark.
    """
    d = len(table)
    if pad_to < d:
        raise ValueError(f"pad_to={pad_to} is smaller than the table size {d}")
    keys, counts = _chain_keys(table, pad_to, nu_len_cap)
    cell = keys // pad_to  # lam * pad_to + mu
    nus = np.subtract(keys, cell * pad_to, out=keys)  # the keys' own array: they are spent
    if nus.size and int(nus.max()) >= channels:
        raise ValueError(f"channel axis of {channels} cannot hold nu index {int(nus.max())}")
    cells = _upper_cells(pad_to)
    sizes = np.bincount(cell, minlength=pad_to * pad_to).take(cells)
    plane = np.zeros((pad_to, pad_to), dtype=np.int32)
    plane[1:d, 1:d] = table.empty_cells
    del vars(table)["empty_cells"]  # the result holds channel 0; the table need not keep the grid
    plane[0, 1:d] = table.lengths
    plane[0, 0] = 1
    arrays = _one_buffer(
        _narrowest(sizes),
        nus.astype(np.min_scalar_type(channels - 1)),
        _narrowest(counts),
        _narrowest(plane.take(cells)),
    )
    return SparseCounts(*arrays)


def _narrowest(values: np.ndarray) -> np.ndarray:
    """Non-negative integers in the smallest unsigned type that holds their own maximum."""
    return values.astype(np.min_scalar_type(int(values.max(initial=0))))


def combinatorics_map(word: Word | str) -> CombinatoricsMap:
    """The full map over all D^2 operand pairs, stored as its upper half."""
    table = distinct_subwords(word)
    return CombinatoricsMap(table)
