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
batch itself. The first conv reads it a tile of flat rows at a time
(``layers.PlaneRows``), and the batch scatters each sample's plane (the
upper half and its mirror, into zeros) only when a tile reaches it, keeping
at most two planes. So no training step or inference pass holds the whole
dense batch.
``np.asarray`` on a batch scatters every sample into one array the same way,
and ``encode_batch`` and ``encode_dense`` are that array for one fresh
encoder's call, so there is one way to build a tensor; ``combword tensor
--format dense`` prints ``encode_dense``'s, one lam row at a time.
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


def _norm_lookup(cfg: EncodingConfig, dtype) -> np.ndarray | None:
    """Normalized value of every raw count 0..n^2, rounded to float32, then cast to dtype."""
    if cfg.normalization == NORM_NONE:
        return None
    top = cfg.word_length * cfg.word_length
    lut = np.log1p(np.arange(top + 1, dtype=np.float64)) / np.log1p(float(top))
    return lut.astype(np.float32).astype(dtype)


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
    as an ``EncodedBatch``; ``place`` builds a sample's plane from its form:
    scatter the upper half and its mirror into zeros, mapping the counts
    through the normalization table. A pattern seen for the first time is
    placed like any other, so a batch's bits never depend on what the
    encoder saw before.
    """

    def __init__(self, cfg: EncodingConfig, dtype=np.float32):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.channels = channel_count(cfg)
        # The table comes in the output dtype, rounded as float32 first.
        self._lut = _norm_lookup(cfg, self.dtype)
        p, c = cfg.pad_to, self.channels
        rows, cols = np.triu_indices(p)
        # Flat offset of channel 0 at every upper-half cell and at its mirror.
        self._cells = ((rows * p + cols) * c, (cols * p + rows) * c)
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

    def place(self, flat: np.ndarray, form: SparseCounts) -> None:
        """Scatter a form and its mirror into ``flat``, one sample's zeroed (pad_to * pad_to * channels) plane."""
        upper, lower = self._cells
        chains, empty = (form.counts, form.empty) if self._lut is None else (self._lut[form.counts], self._lut[form.empty])
        flat[upper] = empty
        flat[lower] = empty
        flat[np.repeat(upper, form.sizes) + form.nus] = chains
        flat[np.repeat(lower, form.sizes) + form.nus] = chains

    def __call__(self, words) -> "EncodedBatch":
        forms = [self.counts(w) for w in words]
        p = self.cfg.pad_to
        return EncodedBatch(self.place, forms, (p, p, self.channels), self.dtype)


class EncodedBatch(PlaneRows):
    """A batch of encoded words that is read a range of flat rows at a time.

    Holds each sample's cached count form and gives the first conv the
    ``layers.PlaneRows`` protocol: a plane is one sample's (pad_to * pad_to,
    channels) rows. A sample's plane is scattered into fresh zeros when a
    range first reaches it, and the batch keeps the last two it scattered,
    so reading the rows in order scatters each sample once and never holds
    the whole batch. No plane is ever written again, so rows read earlier
    stay as they were after later reads. ``np.asarray(batch)`` builds the
    whole dense array.
    """

    def __init__(self, place, forms: list[SparseCounts], plane_shape: tuple[int, int, int], dtype):
        super().__init__((len(forms), *plane_shape), dtype, plane_shape[0] * plane_shape[1])
        self._place = place
        self._forms = forms

    def _reset(self) -> None:
        self._planes: dict[int, np.ndarray] = {}

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def _plane(self, sample: int) -> np.ndarray:
        """Sample ``sample``'s read-only (pad_to * pad_to, channels) rows, scattered on first use."""
        plane = self._planes.get(sample)
        if plane is None:
            if len(self._planes) == 2:
                del self._planes[next(iter(self._planes))]  # before the new plane, so that two stay live
            plane = np.zeros(self._per * self.shape[-1], dtype=self.dtype)
            self._place(plane, self._forms[sample])
            plane = plane.reshape(self._per, -1)
            plane.flags.writeable = False
            self._planes[sample] = plane
        return plane

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("an encoded batch has no array to share; np.asarray builds one")
        out = np.zeros((len(self._forms), self._per * self.shape[-1]), dtype=self.dtype)
        for flat, form in zip(out, self._forms):
            self._place(flat, form)
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
