"""Dense, fixed-shape numeric tensors from per-word subword-pair counts.

The classifier consumes a 3-axis tensor per word: the first two axes index
operand subwords lam and mu, the third axis is the produced subword nu acting
as the channel dimension. Axes are zero-padded to the worst case for the word
length so that words with different table sizes batch together, and channels
may be capped to subwords of bounded length to keep long-word tensors small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import dense_counts
from .words import Alphabet, Word, as_text, distinct_subwords, max_table_size

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
    """Per-word encodings in input order, each written straight into its batch slot."""
    words = [as_text(w) for w in words]
    out = np.empty((len(words), cfg.pad_to, cfg.pad_to, channel_count(cfg)), dtype=dtype)
    # The table comes in the output dtype: np.take would not cast float32 into float64.
    lut = _norm_lookup(cfg, dtype)
    for text, slot in zip(words, out):
        if len(text) != cfg.word_length:
            raise ValueError(f"word length {len(text)} does not match config length {cfg.word_length}")
        counts = dense_counts(distinct_subwords(text), cfg.pad_to, slot.shape[2], cfg.nu_cap_len)
        if lut is None:
            slot[...] = counts
        else:
            # No count exceeds n^2, the table's last index, so clipping changes
            # nothing; the default mode="raise" would stage the result in a copy.
            np.take(lut, counts, out=slot, mode="clip")
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
