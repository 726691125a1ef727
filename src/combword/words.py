"""Words over explicit alphabets, their distinct subwords, and letter bijections.

The canonical ordering of subwords used everywhere downstream is
(length, first-occurrence start index), with the empty subword at index 0.
That key depends only on where subwords occur, never on which letters they
contain, which is what keeps every derived structure invariant under a
one-to-one relabeling of the alphabet.

``subword_windows`` is the one place that works the order out. It fills the
word's agreement matrix (the common-prefix length of every pair of suffixes)
and reads off it each window's first occurrence, the canonical index of
every window, and the diagonal runs of equal letters that the count map is
built from. A ``SubwordTable`` holds those arrays and builds its string
entries, window coverage and empty-cell grid only when asked for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

EPSILON = ""


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of distinct single-character symbols."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise ValueError("alphabet must be non-empty")
        for ch in self.letters:
            if not isinstance(ch, str) or len(ch) != 1:
                raise ValueError(f"alphabet symbol {ch!r} is not a single character")
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("alphabet contains duplicate symbols")

    @classmethod
    def of(cls, symbols: str) -> "Alphabet":
        return cls(tuple(symbols))

    @cached_property
    def _members(self) -> frozenset[str]:
        return frozenset(self.letters)

    @cached_property
    def positions(self) -> dict[str, int]:
        return {ch: i for i, ch in enumerate(self.letters)}

    def __contains__(self, ch: str) -> bool:
        return ch in self._members

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)


@dataclass(frozen=True)
class Word:
    """A non-empty sequence of letters drawn from a fixed alphabet."""

    text: str
    alphabet: Alphabet

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("empty word")
        if not self.alphabet._members.issuperset(self.text):
            i, ch = next((i, ch) for i, ch in enumerate(self.text) if ch not in self.alphabet)
            raise ValueError(f"symbol {ch!r} at position {i} is not in the alphabet")

    def __len__(self) -> int:
        return len(self.text)

    def __str__(self) -> str:
        return self.text

    @property
    def distinct_letters(self) -> frozenset[str]:
        return frozenset(self.text)


def as_text(word: "Word | str") -> str:
    """Accept either a Word or a plain string and return the raw text."""
    return word.text if isinstance(word, Word) else word


@dataclass(frozen=True)
class Bijection:
    """An injective letter map, stored as sorted (source, target) pairs."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        sources = [s for s, _ in self.pairs]
        targets = [t for _, t in self.pairs]
        if len(set(sources)) != len(sources):
            raise ValueError("bijection maps a source letter twice")
        if len(set(targets)) != len(targets):
            raise ValueError("bijection is not injective")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "Bijection":
        return cls(tuple(sorted(mapping.items())))

    @cached_property
    def forward(self) -> dict[str, str]:
        return dict(self.pairs)

    def inverse(self) -> "Bijection":
        return Bijection(tuple(sorted((t, s) for s, t in self.pairs)))

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SubwordEntry:
    """One distinct subword: its content, length, and first-occurrence start."""

    content: str
    length: int
    start: int


@dataclass(frozen=True, eq=False)
class SubwordTable:
    """All distinct contiguous subwords of a word, canonically ordered.

    Entry 0 is the empty subword; entries 1..D-1 are sorted ascending by
    (length, first-occurrence start), a key that is unique per entry. The
    table is the arrays ``subword_windows`` reads off the word's agreement
    matrix; the string entries and their lookup are built only when asked for.
    """

    word: Word
    agree: np.ndarray  # (n, n): length of the common prefix of text[i:] and text[j:]
    starts: np.ndarray  # (D-1,): first-occurrence start of entries 1..D-1
    lengths: np.ndarray  # (D-1,): length of entries 1..D-1
    span: np.ndarray  # (n, n+1): canonical index of text[i:i+L] at [i, L], 0 where it overruns

    @cached_property
    def entries(self) -> tuple[SubwordEntry, ...]:
        text = self.word.text
        rest = (SubwordEntry(text[p : p + s], s, p) for p, s in zip(self.starts.tolist(), self.lengths.tolist()))
        return (SubwordEntry(EPSILON, 0, 0), *rest)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {e.content: i for i, e in enumerate(self.entries)}

    def index_of(self, content: str) -> int:
        try:
            return self._index[content]
        except KeyError:
            raise ValueError(f"{content!r} is not a subword of {self.word.text!r}") from None

    def __contains__(self, content: str) -> bool:
        return content in self._index

    def __len__(self) -> int:
        return self.starts.shape[0] + 1

    def __getitem__(self, i: int) -> SubwordEntry:
        return self.entries[i]

    @cached_property
    def coverage(self) -> np.ndarray:
        """(n, D-1) 0/1 float32: 1 where position u lies in the window of entry a + 1."""
        pos = np.arange(len(self.word), dtype=np.int32)[:, None]
        return ((pos >= self.starts) & (pos < self.starts + self.lengths)).astype(np.float32)

    @cached_property
    def empty_cells(self) -> np.ndarray:
        """(D-1, D-1) symmetric float32: the empty cells of every pair of non-empty entries.

        A pair's empty cells are its s_lam * s_mu cells less its matching
        ones, and the matching cells of every pair are one product
        cov^T (eq cov); the float32 values are exact while n^2 < 2^24.
        """
        cov = self.coverage
        matches = cov.T @ ((self.agree > 0).astype(np.float32) @ cov)
        s = self.lengths.astype(np.float32)
        return np.subtract(np.multiply.outer(s, s), matches, out=matches)

    def runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Maximal diagonal runs of equal letters, as (row, col, length) arrays in row-major order.

        A run starts at each matching cell whose up-left neighbour does not
        match, and its length is the agreement at that cell.
        """
        eq = self.agree > 0
        head = eq.copy()
        head[1:, 1:] &= ~eq[:-1, :-1]
        rows, cols = np.nonzero(head)
        return rows.astype(np.int32), cols.astype(np.int32), self.agree[rows, cols]


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Validate text against an alphabet and wrap it as a Word."""
    return Word(text, alphabet)


def word_over_own_letters(text: str) -> Word:
    """Wrap text as a Word whose alphabet is its own distinct letters, sorted."""
    if not text:
        raise ValueError("empty word")
    return Word(text, Alphabet(tuple(sorted(set(text)))))


def max_table_size(n: int) -> int:
    """Upper bound on the number of table entries for a word of length n."""
    if n < 1:
        raise ValueError(f"word length must be >= 1, got {n}")
    return n * (n + 1) // 2 + 1


@lru_cache(maxsize=8)
def _window_grids(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (length, start) grids of a length-n word: lengths 1..n, starts 0..n-1, which windows fit, row offsets L-1 times n."""
    length = np.arange(1, n + 1, dtype=np.int32)[:, None, None]
    start = np.arange(n, dtype=np.int32)[None, :]
    fits = start + length[:, :, 0] <= n
    row = (np.arange(n, dtype=np.intp) * n)[:, None]
    for a in (length, start, fits, row):
        a.flags.writeable = False
    return length, start, fits, row


def subword_windows(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The canonical order of a word's subwords: (agree, starts, lengths, span).

    ``agree[i, j]`` is the length of the common prefix of text[i:] and
    text[j:], the run of equal letters down the diagonal from (i, j): the
    equality matrix sits in a buffer with a False row and column after it,
    so a strided (n + 1, n, n) view of cells (i + k, j + k) meets a False by
    k = n, and one argmin finds the first. The window (i, L) first occurs at
    the smallest j with agree[i, j] >= L; the windows that are their own
    first occurrence are the distinct subwords, and counting them in
    (L, start) order gives each its canonical index. Nothing here looks at
    which letters match, only where.
    """
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    n = codes.shape[0]
    eq = np.zeros((2 * n + 1, n + 1), dtype=bool)  # holds the view's last cell, (2n - 1)(n + 2)
    np.equal(codes[:, None], codes[None, :], out=eq[:n, :n])
    diagonals = np.ndarray((n + 1, n, n), dtype=bool, buffer=eq, strides=(n + 2, n + 1, 1))
    agree = diagonals.argmin(axis=0).astype(np.int32)
    # first, fits, debut and rank below are (length, start) grids: row L-1, column i.
    length, start, fits, row = _window_grids(n)
    first = (agree >= length).argmax(axis=2)
    debut = fits & (first == start)
    rank = np.cumsum(debut, dtype=np.int32)
    span = np.zeros((n, n + 1), dtype=np.int32)
    span[:, 1:] = np.where(fits, rank[first + row], 0).T
    lengths, starts = np.nonzero(debut)
    return agree, starts.astype(np.int32), (lengths + 1).astype(np.int32), span


def distinct_subwords(word: Word | str) -> SubwordTable:
    """Enumerate every distinct contiguous subword, canonically ordered."""
    w = word if isinstance(word, Word) else word_over_own_letters(word)
    return SubwordTable(w, *subword_windows(w.text))


def apply_bijection(word: Word, phi: Bijection) -> Word:
    """Relabel a word letterwise through an injective map."""
    fwd = phi.forward
    out = []
    for ch in word.text:
        if ch not in fwd:
            raise ValueError(f"letter {ch!r} is not mapped by the bijection")
        out.append(fwd[ch])
    mapped = "".join(out)
    if all(ch in word.alphabet for ch in mapped):
        return Word(mapped, word.alphabet)
    return word_over_own_letters(mapped)


def pattern_key(text: str) -> tuple[int, ...]:
    """The word's repetition pattern: each position numbered by its letter's first occurrence.

    Two words have the same key exactly when one is the letterwise image of
    the other under an injective map, which is when their count maps agree.
    """
    order: dict[str, int] = {}
    return tuple(order.setdefault(ch, len(order)) for ch in text)


def is_palindrome(word: Word | str) -> bool:
    text = as_text(word)
    return text == text[::-1]
