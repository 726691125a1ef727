"""Dense, fixed-shape numeric tensors from per-word subword-pair counts.

The classifier consumes a 3-axis tensor per word: the first two axes index
operand subwords lam and mu, the third axis is the produced subword nu acting
as the channel dimension. Axes are zero-padded to the worst case for the word
length so that words with different table sizes batch together, and channels
may be capped to subwords of bounded length to keep long-word tensors small.

A tensor depends on the word's repetition pattern alone, so ``BatchEncoder``
counts each pattern once, keeps the sparse upper half that
``combinatorics.dense_counts`` returns, and builds every batch by scattering
it and its mirror into zeros. ``encode_batch`` and ``encode_dense`` are one
fresh encoder's call, so there is one way to build a tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import SparseCounts, dense_counts
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

    def to_dict(self) -> dict:
        return {
            "word_length": self.word_length,
            "pad_to": self.pad_to,
            "nu_cap_len": self.nu_cap_len,
            "normalization": self.normalization,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncodingConfig":
        return cls(
            word_length=int(d["word_length"]),
            pad_to=int(d["pad_to"]),
            nu_cap_len=None if d["nu_cap_len"] is None else int(d["nu_cap_len"]),
            normalization=str(d["normalization"]),
        )


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
    return min(cfg.pad_to, 1 + sum(n - length + 1 for length in range(1, cap + 1)))


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
    """Per-word encodings in input order: one fresh ``BatchEncoder``'s call."""
    return BatchEncoder(cfg, dtype)(words)


class BatchEncoder:
    """Encodes batches of words, computing each repetition pattern's counts once.

    A word's tensor depends only on its pattern (``words.pattern_key``), so
    the encoder keeps one read-only ``SparseCounts`` per pattern it has seen
    and builds every batch from those: zero-fill, scatter the upper half and
    its mirror, and map the counts through the normalization table. A pattern
    seen for the first time is counted and stored, then placed like any
    other, so a batch's bits never depend on what the encoder saw before.
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

    def __call__(self, words) -> np.ndarray:
        forms = [self.counts(w) for w in words]
        out = np.zeros((len(forms), self.cfg.pad_to, self.cfg.pad_to, self.channels), dtype=self.dtype)
        upper, lower = self._cells
        for slot, s in zip(out, forms):
            flat = slot.reshape(-1)
            chains, empty = (s.counts, s.empty) if self._lut is None else (self._lut[s.counts], self._lut[s.empty])
            flat[upper] = empty
            flat[lower] = empty
            flat[np.repeat(upper, s.sizes) + s.nus] = chains
            flat[np.repeat(lower, s.sizes) + s.nus] = chains
        return out


def encode_onehot(word: Word | str, alphabet: Alphabet) -> np.ndarray:
    """Raw character input for the baseline model: (n, 1, |alphabet|) one-hot."""
    text = as_text(word)
    pos = alphabet.positions
    out = np.zeros((len(text), 1, len(alphabet)), dtype=np.float32)
    for i, ch in enumerate(text):
        out[i, 0, pos[ch]] = 1.0
    return out


def onehot_batch(words, alphabet: Alphabet) -> np.ndarray:
    return np.stack([encode_onehot(w, alphabet) for w in words])


def dense_text_lines(tensor: np.ndarray) -> list[str]:
    """Text form of a dense tensor: `P P C` header, then row-major values."""
    p0, p1, c = tensor.shape
    lines = [f"{p0} {p1} {c}"]
    lines.extend(f"{v:.9g}" for v in tensor.ravel(order="C"))
    return lines
