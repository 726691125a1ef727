"""Generation, labeling, persistence, and relabeling of the two word tasks.

Palindrome task: fixed-length lowercase words, label 1 for palindromes built
by mirroring a random prefix, label 0 for uniformly drawn non-palindromes.
Password task: fixed-length words over the 94 printable ASCII characters,
label 1 for strong passwords. Strength is a pure function of length and
distinct-character count, so both labels depend only on the pattern of letter
repetitions and survive any relabeling of the alphabet.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .words import Alphabet, Bijection, Word, apply_bijection, as_text, is_palindrome

PALINDROME_ALPHABET = Alphabet.of("abcdefghijklmnopqrstuvwxyz")
PASSWORD_ALPHABET = Alphabet(tuple(chr(c) for c in range(0x21, 0x7F)))  # 94 printable, no whitespace

TASK_PALINDROME = "palindrome"
TASK_PASSWORD = "password"
_TASK_ALPHABETS = {TASK_PALINDROME: PALINDROME_ALPHABET, TASK_PASSWORD: PASSWORD_ALPHABET}
TASKS = tuple(_TASK_ALPHABETS)

STRONG_THRESHOLD = 0.7
_WEAK_POOL_RANGE = (2, 11)
_MIN_STRONG_DISTINCT = 12
_MAX_ATTEMPTS_PER_ITEM = 10_000


class DatasetFormatError(ValueError):
    """A dataset file violates the one-record-per-line format."""


def task_alphabet(task: str) -> Alphabet:
    try:
        return _TASK_ALPHABETS[task]
    except KeyError:
        raise ValueError(f"unknown task {task!r}") from None


@dataclass
class LabeledDataset:
    items: list[tuple[Word, int]]
    task: str
    split: str
    seed: int | None
    word_length: int

    def __len__(self) -> int:
        return len(self.items)

    def words(self) -> list[Word]:
        return [w for w, _ in self.items]

    def labels(self) -> list[int]:
        return [y for _, y in self.items]


@dataclass(frozen=True)
class StrengthScore:
    value: float
    entropy_bits: float
    distinct_chars: int

    @property
    def strong(self) -> bool:
        return self.value > STRONG_THRESHOLD


def strength_score(password: Word | str) -> StrengthScore:
    """Score a password in [0, 1] from its length and distinct-char count.

    entropy = L * log2(k) bits for k distinct characters, and the score
    saturates as 1 - 2^(-entropy/30); a single repeated character scores 0.
    """
    text = as_text(password)
    if not text:
        raise ValueError("empty password")
    k = len(set(text))
    entropy = 0.0 if k == 1 else len(text) * math.log2(k)
    return StrengthScore(value=1.0 - 2.0 ** (-entropy / 30.0), entropy_bits=entropy, distinct_chars=k)


def _mirror(prefix: str, n: int) -> str:
    """Extend a ceil(n/2)-letter prefix to a length-n palindrome."""
    return prefix + prefix[: n - len(prefix)][::-1]


def _check_feasible(n: int, per_class: tuple[int, int, int], alphabet_size: int) -> None:
    palindromes = alphabet_size ** math.ceil(n / 2)
    total = sum(per_class)
    if total > palindromes:
        raise ValueError(f"cannot draw {total} distinct palindromes of length {n}: only {palindromes} exist")
    non_palindromes = alphabet_size**n - palindromes
    if total > non_palindromes:
        raise ValueError(f"cannot draw {total} distinct non-palindromes of length {n}: only {non_palindromes} exist")


def _draw_unique(seen: set[str], make, what: str) -> str:
    for _ in range(_MAX_ATTEMPTS_PER_ITEM):
        w = make()
        if w is not None and w not in seen:
            seen.add(w)
            return w
    raise ValueError(f"gave up generating a fresh {what} after {_MAX_ATTEMPTS_PER_ITEM} attempts")


def gen_palindrome_dataset(
    n: int, counts: tuple[int, int, int], seed: int
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Three splits of length-n lowercase words, `counts` items per class each.

    Palindromes mirror a random prefix; non-palindromes are resampled until
    they fail the palindrome test. No word repeats anywhere across splits.
    """
    if n < 2:
        raise ValueError(f"palindrome task needs word length >= 2, got {n}")
    if any(c < 1 for c in counts):
        raise ValueError("every split needs at least one item per class")
    _check_feasible(n, counts, len(PALINDROME_ALPHABET))
    rng = random.Random(seed)
    letters = PALINDROME_ALPHABET.letters
    half = math.ceil(n / 2)
    seen: set[str] = set()

    def palindrome() -> str:
        return _mirror("".join(rng.choice(letters) for _ in range(half)), n)

    def non_palindrome() -> str | None:
        w = "".join(rng.choice(letters) for _ in range(n))
        return None if is_palindrome(w) else w

    splits = []
    for split_name, count in zip(("train", "val", "test"), counts):
        items = [(Word(_draw_unique(seen, palindrome, "palindrome"), PALINDROME_ALPHABET), 1) for _ in range(count)]
        items += [(Word(_draw_unique(seen, non_palindrome, "non-palindrome"), PALINDROME_ALPHABET), 0) for _ in range(count)]
        rng.shuffle(items)
        splits.append(LabeledDataset(items, TASK_PALINDROME, split_name, seed, n))
    return tuple(splits)


def gen_password_dataset(
    counts: tuple[int, int, int], seed: int, n: int = 15
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Three splits of length-n passwords, `counts` per class, half weak half strong.

    Weak items are drawn from a small per-item pool (2 to 11 characters);
    strong items are drawn from all 94 characters and resampled until they
    use at least 12 distinct ones. Every label is re-verified by the scorer.
    """
    if n < 2:
        raise ValueError(f"password task needs word length >= 2, got {n}")
    if any(c < 1 for c in counts):
        raise ValueError("every split needs at least one item per class")
    rng = random.Random(seed)
    letters = PASSWORD_ALPHABET.letters
    seen: set[str] = set()

    def weak() -> str | None:
        pool = rng.sample(letters, rng.randint(*_WEAK_POOL_RANGE))
        w = "".join(rng.choice(pool) for _ in range(n))
        return w if not strength_score(w).strong else None

    def strong() -> str | None:
        w = "".join(rng.choice(letters) for _ in range(n))
        if len(set(w)) < _MIN_STRONG_DISTINCT:
            return None
        return w if strength_score(w).strong else None

    splits = []
    for split_name, count in zip(("train", "val", "test"), counts):
        items = [(Word(_draw_unique(seen, strong, "strong password"), PASSWORD_ALPHABET), 1) for _ in range(count)]
        items += [(Word(_draw_unique(seen, weak, "weak password"), PASSWORD_ALPHABET), 0) for _ in range(count)]
        rng.shuffle(items)
        splits.append(LabeledDataset(items, TASK_PASSWORD, split_name, seed, n))
    return tuple(splits)


def alphabet_permutation(alphabet: Alphabet, seed: int) -> Bijection:
    """One seeded random permutation of a whole alphabet."""
    rng = random.Random(seed)
    shuffled = list(alphabet.letters)
    rng.shuffle(shuffled)
    return Bijection.from_mapping(dict(zip(alphabet.letters, shuffled)))


def apply_permutation(ds: LabeledDataset, phi: Bijection) -> LabeledDataset:
    """Relabel every word through the same letter map; labels are kept."""
    items = [(apply_bijection(w, phi), y) for w, y in ds.items]
    return LabeledDataset(items, ds.task, ds.split, ds.seed, ds.word_length)


def permute_dataset(ds: LabeledDataset, seed: int) -> LabeledDataset:
    """Apply one seeded random permutation of the task alphabet to every word."""
    return apply_permutation(ds, alphabet_permutation(task_alphabet(ds.task), seed))


def write_dataset(ds: LabeledDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for w, y in ds.items:
            fh.write(f"{y}\t{w.text}\n")


def _infer_task(words: list[str]) -> str:
    alpha = PALINDROME_ALPHABET
    if all(all(ch in alpha for ch in w) for w in words):
        return TASK_PALINDROME
    return TASK_PASSWORD


def read_dataset(
    path, task: str | None = None, split: str = "custom", seed: int | None = None
) -> LabeledDataset:
    """Load a `<label><TAB><word>` file back into a dataset.

    The file stores records only; task is inferred from the character set
    unless given, and split/seed metadata must be supplied by the caller.
    """
    records: list[tuple[int, int, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                raise DatasetFormatError(f"{path}: line {lineno}: empty record")
            head, tab, word = line.partition("\t")
            if not tab or not word:
                raise DatasetFormatError(f"{path}: line {lineno}: expected <label><TAB><word>")
            if head not in ("0", "1"):
                raise DatasetFormatError(f"{path}: line {lineno}: invalid label {head!r}")
            records.append((lineno, int(head), word))
    if not records:
        raise DatasetFormatError(f"{path}: empty dataset")
    lengths = {len(w) for _, _, w in records}
    if len(lengths) != 1:
        raise DatasetFormatError(f"{path}: mixed word lengths {sorted(lengths)}")
    if task is None:
        task = _infer_task([w for _, _, w in records])
    alphabet = task_alphabet(task)
    items = []
    for lineno, y, w in records:
        try:
            items.append((Word(w, alphabet), y))
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from None
    return LabeledDataset(items, task, split, seed, lengths.pop())
