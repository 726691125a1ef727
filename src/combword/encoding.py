"""Dense, fixed-shape numeric tensors from per-word subword-pair counts.

The classifier consumes a 3-axis tensor per word: the first two axes index
operand subwords lam and mu, the third axis is the produced subword nu acting
as the channel dimension. Axes are zero-padded to the worst case for the word
length so that words with different table sizes batch together, and channels
may be capped to subwords of bounded length to keep long-word tensors small.

A tensor depends on the word's repetition pattern alone, so ``BatchEncoder``
counts each pattern once and keeps the sparse upper half that
``combinatorics.dense_counts`` returns. A call returns an ``EncodedBatch``:
the batch's shape and dtype and its words' cached counts, never the dense
batch itself. A sample is laid out from its counts as compact rows and a
plane index (``BatchEncoder.layout``): the plane's row at each cell is the
compact row the index names, so a mirror cell and every chainless cell
share rows, and no dense plane is scattered. The first 1x1 conv runs its
GEMM on the compact rows only and gathers its ReLU rows by the index
(``layers.ReluRows``); any other reader gets a sample's plane gathered
when a tile of flat rows (``layers.PlaneRows``) first reaches it, keeping
at most two planes. So no training step or inference pass holds the whole
dense batch. ``np.asarray`` on a batch gathers every sample into one array
the same way, and ``encode_batch`` and ``encode_dense`` are that array for
one fresh encoder's call, so there is one way to lay out a tensor;
``combword tensor --format dense`` prints ``encode_dense``'s, one lam row
at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import SparseCounts, dense_counts
from .layers import PlaneRows
from .words import Alphabet, Word, as_text, distinct_subwords, max_table_size, pattern_key

NORM_NONE = "none"
NORM_LOG = "log-saturating"

# Beyond this length a full channel axis is ~tens of MB per sample, so the
# default caps channels at subwords of length <= 3.
_AUTO_CAP_THRESHOLD = 12
_AUTO_CAP = 3

_AUTO = object()


@dataclass(frozen=True)
class EncodingConfig:
    """Shape and normalization choices for encoding words of one length."""

    word_length: int
    pad_to: int
    nu_cap_len: int | None
    normalization: str

    def __post_init__(self) -> None:
        full = max_table_size(self.word_length)
        if self.pad_to < full:
            raise ValueError(f"pad_to={self.pad_to} cannot hold every length-{self.word_length} word (need {full})")
        if self.nu_cap_len is not None and self.nu_cap_len < 1:
            raise ValueError(f"nu_cap_len must be >= 1, got {self.nu_cap_len}")
        if self.normalization not in (NORM_NONE, NORM_LOG):
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @classmethod
    def for_length(cls, n: int, nu_cap_len=_AUTO, normalization: str = NORM_LOG) -> "EncodingConfig":
        if nu_cap_len is _AUTO:
            nu_cap_len = _AUTO_CAP if n > _AUTO_CAP_THRESHOLD else None
        return cls(word_length=n, pad_to=max_table_size(n), nu_cap_len=nu_cap_len, normalization=normalization)


def channel_count(cfg: EncodingConfig) -> int:
    """Size of the channel axis: worst-case number of capped nu indices.

    The empty subword counts with length 0; a word of length n has at most
    n - L + 1 distinct subwords of length L, and channels never exceed the
    padded axis length.
    """
    n = cfg.word_length
    if cfg.nu_cap_len is None:
        return cfg.pad_to
    cap = min(cfg.nu_cap_len, n)
    return min(cfg.pad_to, 1 + cap * (n + 1) - cap * (cap + 1) // 2)


def _norm_lookup(cfg: EncodingConfig, dtype) -> np.ndarray:
    """Value of every raw count 0..n^2 in ``dtype``: the count itself, or its normalization rounded to float32 first."""
    top = cfg.word_length * cfg.word_length
    counts = np.arange(top + 1, dtype=np.float64)
    if cfg.normalization == NORM_NONE:
        return counts.astype(dtype)
    return (np.log1p(counts) / np.log1p(float(top))).astype(np.float32).astype(dtype)


def encode_dense(word: Word | str, cfg: EncodingConfig, dtype=np.float32) -> np.ndarray:
    """Encode one word as a (pad_to, pad_to, channels) float tensor.

    A deterministic function of the word alone: entries beyond the word's own
    table size are exactly zero, and the log-saturating normalization maps
    each raw count c to log(1+c)/log(1+n^2), keeping every value in [0, 1].
    """
    return encode_batch([word], cfg, dtype)[0]


def encode_batch(words, cfg: EncodingConfig, dtype=np.float32) -> np.ndarray:
    """Per-word encodings in input order: one fresh ``BatchEncoder``'s call, as one array."""
    return np.asarray(BatchEncoder(cfg, dtype)(words))


class BatchEncoder:
    """Encodes batches of words, computing each repetition pattern's counts once.

    A word's tensor depends only on its pattern (``words.pattern_key``), so
    the encoder keeps one read-only ``SparseCounts`` per pattern it has seen.
    A call looks up (or counts and stores) each word's form and returns them
    as an ``EncodedBatch``. ``layout`` lays a sample out from its form as
    compact rows and a plane index, and no dense plane: a pattern seen for
    the first time is laid out like any other, so a batch's bits never
    depend on what the encoder saw before.

    The compact rows start with ``shared``, one row per channel-0 value
    0..n^2 (its normalized value at channel 0, zeros elsewhere), the same
    for every sample. Then comes one row per upper-half cell that holds a
    chain: channel 0 and the chains, through the normalization table. The
    index gives, for each of the pad_to^2 cells of the plane, the compact
    row it reads: a chainless cell, padding included, reads the shared row
    of its channel-0 value, and a mirror cell reads its upper cell's row.
    """

    def __init__(self, cfg: EncodingConfig, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.channels = channel_count(cfg)
        # The table comes in the output dtype, rounded as float32 first.
        self._lut = _norm_lookup(cfg, self.dtype)
        self.shared = np.zeros((len(self._lut), self.channels), dtype=self.dtype)
        self.shared[:, 0] = self._lut
        self.shared.flags.writeable = False
        p = cfg.pad_to
        rows, cols = np.triu_indices(p)
        upper = np.empty((p, p), dtype=np.intp)
        upper[rows, cols] = upper[cols, rows] = np.arange(len(rows))
        self._upper = upper.ravel()  # each cell's upper-half cell, in np.triu_indices order
        self._patterns: dict[tuple[int, ...], SparseCounts] = {}

    def __len__(self) -> int:
        return len(self._patterns)

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached count forms."""
        return sum(s.nbytes for s in self._patterns.values())

    def counts(self, word: Word | str) -> SparseCounts:
        """The word's pattern's count form, computed on first sight."""
        text = as_text(word)
        if len(text) != self.cfg.word_length:
            raise ValueError(f"word length {len(text)} does not match config length {self.cfg.word_length}")
        key = pattern_key(text)
        found = self._patterns.get(key)
        if found is None:
            found = dense_counts(distinct_subwords(text), self.cfg.pad_to, self.channels, self.cfg.nu_cap_len)
            self._patterns[key] = found
        return found

    def layout(self, form: SparseCounts, rows: np.ndarray | None = None, index: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """A form's compact rows, at the head of ``rows``, and its plane index, into ``index``.

        ``rows`` holds at least ``len(shared)`` plus the form's chain cells
        rows and ``index`` pad_to^2 entries of the intp type; each defaults
        to a new array of just that size.
        """
        shared, lut = len(self.shared), self._lut
        chained = np.flatnonzero(form.sizes)
        if rows is None:
            rows = np.empty((shared + len(chained), self.channels), dtype=self.dtype)
        if index is None:
            index = np.empty(len(self._upper), dtype=np.intp)
        row = form.empty.astype(np.intp)
        row[chained] = np.arange(shared, shared + len(chained))
        np.take(row, self._upper, out=index, mode="clip")
        out = rows[: shared + len(chained)]
        out[:shared] = self.shared
        chains = out[shared:]
        chains[...] = 0
        chains[:, 0] = lut.take(form.empty[chained])
        starts = np.repeat(np.arange(0, chains.size, self.channels), form.sizes[chained])
        chains.reshape(-1)[starts + form.nus] = lut.take(form.counts)
        return out, index

    def __call__(self, words) -> "EncodedBatch":
        return EncodedBatch(self, [self.counts(w) for w in words])


class EncodedBatch(PlaneRows):
    """A batch of encoded words that is read a range of flat rows at a time.

    Holds each sample's cached count form and gives the first conv the
    ``layers.PlaneRows`` protocol: a plane is one sample's (pad_to * pad_to,
    channels) rows. ``compact`` lays a sample out (``BatchEncoder.layout``);
    a sample's plane is its compact rows gathered by its index, into a new
    array when a range first reaches it. The batch keeps the last two it
    gathered, so reading the rows in order lays each sample out once and
    never holds the whole batch, and rows read earlier stay as they were
    after later reads. ``np.asarray(batch)`` gathers the whole dense array.
    ``ReluRows`` reads the compact rows themselves and builds no plane.
    """

    def __init__(self, encoder: BatchEncoder, forms: list[SparseCounts]):
        p = encoder.cfg.pad_to
        super().__init__((len(forms), p, p, encoder.channels), encoder.dtype, p * p)
        self._encoder = encoder
        self._forms = forms
        self.shared = encoder.shared
        # The most compact rows a sample can have, when every upper-half cell holds a chain. Buffers reused
        # across samples take this size, so every pass makes the same allocations.
        self.compact_rows = len(self.shared) + p * (p + 1) // 2

    def _reset(self) -> None:
        self._planes: dict[int, np.ndarray] = {}

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def compact(self, sample: int, rows: np.ndarray | None = None, index: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Sample ``sample``'s compact rows and plane index (``BatchEncoder.layout``)."""
        return self._encoder.layout(self._forms[sample], rows, index)

    def _plane(self, sample: int) -> np.ndarray:
        """Sample ``sample``'s read-only (pad_to * pad_to, channels) rows, gathered on first use."""
        plane = self._planes.get(sample)
        if plane is None:
            if len(self._planes) == 2:
                del self._planes[next(iter(self._planes))]  # before the new plane, so that two stay live
            rows, index = self.compact(sample)
            plane = rows.take(index, axis=0)
            plane.flags.writeable = False
            self._planes[sample] = plane
        return plane

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("an encoded batch has no array to share; np.asarray builds one")
        out = np.empty((len(self._forms), self._per, self.shape[-1]), dtype=self.dtype)
        for sample, plane in enumerate(out):
            rows, index = self.compact(sample)
            np.take(rows, index, axis=0, out=plane, mode="clip")
        out = out.reshape(self.shape)
        return out if dtype is None else out.astype(dtype, copy=False)


def encode_onehot(word: Word | str, alphabet: Alphabet) -> np.ndarray:
    """Raw character input for the baseline model: (n, 1, |alphabet|) one-hot."""
    text = as_text(word)
    pos = alphabet.positions
    out = np.zeros((len(text), 1, len(alphabet)), dtype=np.float32)
    for i, ch in enumerate(text):
        out[i, 0, pos[ch]] = 1.0
    return out


def onehot_batch(words, alphabet: Alphabet) -> np.ndarray:
    """The words' one-hot inputs stacked; no words give an empty (0, 0, 1, |alphabet|) batch."""
    if not words:
        return np.zeros((0, 0, 1, len(alphabet)), dtype=np.float32)
    return np.stack([encode_onehot(w, alphabet) for w in words])
