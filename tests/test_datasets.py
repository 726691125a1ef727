import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combword.datasets import (
    DatasetFormatError,
    PALINDROME_ALPHABET,
    PASSWORD_ALPHABET,
    alphabet_permutation,
    apply_permutation,
    gen_palindrome_dataset,
    gen_password_dataset,
    permute_dataset,
    read_dataset,
    strength_score,
    write_dataset,
)
from combword.words import Bijection, is_palindrome

from damage import damaged


def test_password_alphabet_is_94_printable():
    assert len(PASSWORD_ALPHABET) == 94
    assert " " not in PASSWORD_ALPHABET and "\t" not in PASSWORD_ALPHABET
    assert "!" in PASSWORD_ALPHABET and "~" in PASSWORD_ALPHABET


def test_strength_twelve_distinct_is_strong():
    s = strength_score("abcdefghijkl" + "aaa")  # 15 chars, 12 distinct
    assert s.distinct_chars == 12
    assert s.entropy_bits == pytest.approx(15 * math.log2(12), abs=1e-9)
    assert s.value == pytest.approx(1 - 1 / math.sqrt(12), abs=1e-12)
    assert s.value == pytest.approx(0.7113, abs=5e-4)
    assert s.strong


def test_strength_eleven_distinct_is_weak():
    s = strength_score("abcdefghijk" + "aaaa")  # 15 chars, 11 distinct
    assert s.entropy_bits == pytest.approx(15 * math.log2(11), abs=1e-9)
    assert s.value == pytest.approx(0.6985, abs=5e-4)
    assert not s.strong


def test_strength_degenerate():
    s = strength_score("a" * 15)
    assert s.entropy_bits == 0 and s.value == 0 and not s.strong


def test_strength_monotone_in_distinct_chars():
    values = [strength_score("abcdefghijklmnop"[:k] + "a" * (15 - k)).value for k in range(1, 16)]
    assert values == sorted(values)


def test_gen_palindromes_shapes_and_labels():
    tr, va, te = gen_palindrome_dataset(10, (50, 20, 20), seed=3)
    assert (len(tr), len(va), len(te)) == (100, 40, 40)
    for ds in (tr, va, te):
        assert sum(ds.labels()) * 2 == len(ds)
        assert all(len(w) == 10 for w in ds.words())
        for w, y in ds.items:
            assert is_palindrome(w) == bool(y)
    all_words = [w.text for ds in (tr, va, te) for w in ds.words()]
    assert len(set(all_words)) == len(all_words), "duplicate across splits"


def test_gen_palindromes_deterministic():
    a = gen_palindrome_dataset(8, (10, 5, 5), seed=42)
    b = gen_palindrome_dataset(8, (10, 5, 5), seed=42)
    for da, db in zip(a, b):
        assert [(w.text, y) for w, y in da.items] == [(w.text, y) for w, y in db.items]


def test_gen_palindromes_odd_length():
    tr = gen_palindrome_dataset(7, (10, 1, 1), seed=0)[0]
    assert all(len(w) == 7 for w in tr.words())
    assert all(is_palindrome(w) == bool(y) for w, y in tr.items)


def test_gen_palindromes_impossible_request():
    with pytest.raises(ValueError, match="26"):
        gen_palindrome_dataset(2, (100, 10, 10), seed=0)


def test_gen_passwords_shapes_and_labels():
    tr, va, te = gen_password_dataset((40, 15, 15), seed=11)
    assert (len(tr), len(va), len(te)) == (80, 30, 30)
    for ds in (tr, va, te):
        assert sum(ds.labels()) * 2 == len(ds)
        assert all(len(w) == 15 for w in ds.words())
        for w, y in ds.items:
            assert strength_score(w).strong == bool(y)


def test_gen_passwords_rejects_lengths_without_strong_passwords():
    # 13 distinct characters give 13 * log2(13) = 48.1 bits, short of the 52.1 a score above 0.7 needs.
    with pytest.raises(ValueError, match=">= 14"):
        gen_password_dataset((1, 1, 1), seed=1, n=13)


def test_gen_passwords_at_the_shortest_strong_length():
    tr, va, te = gen_password_dataset((3, 1, 1), seed=1, n=14)
    for ds in (tr, va, te):
        assert all(len(w) == 14 for w in ds.words())
        assert all(strength_score(w).strong == bool(y) for w, y in ds.items)
        assert sum(ds.labels()) * 2 == len(ds)


def test_gen_passwords_rejects_lengths_without_weak_passwords():
    # Two distinct characters give 53 bits at length 53, above the 52.1 a score above 0.7 needs.
    with pytest.raises(ValueError, match="<= 52"):
        gen_password_dataset((1, 1, 1), seed=1, n=53)


def test_gen_passwords_at_the_longest_weak_length():
    tr, va, te = gen_password_dataset((2, 1, 1), seed=1, n=52)
    for ds in (tr, va, te):
        assert all(len(w) == 52 for w in ds.words())
        assert all(strength_score(w).strong == bool(y) for w, y in ds.items)
        assert sum(ds.labels()) * 2 == len(ds)


def test_gen_passwords_deterministic():
    a = gen_password_dataset((10, 4, 4), seed=7)
    b = gen_password_dataset((10, 4, 4), seed=7)
    for da, db in zip(a, b):
        assert [(w.text, y) for w, y in da.items] == [(w.text, y) for w, y in db.items]


def test_permute_preserves_palindrome_labels():
    tr = gen_palindrome_dataset(8, (20, 5, 5), seed=1)[0]
    permuted = permute_dataset(tr, seed=99)
    assert permuted.labels() == tr.labels()
    for (w, y), (pw, py) in zip(tr.items, permuted.items):
        assert is_palindrome(pw) == bool(py)
    assert any(w.text != pw.text for (w, _), (pw, _) in zip(tr.items, permuted.items))


def test_permute_identity_mapping_is_noop():
    tr = gen_palindrome_dataset(6, (5, 2, 2), seed=1)[0]
    identity = Bijection.from_mapping({ch: ch for ch in PALINDROME_ALPHABET})
    same = apply_permutation(tr, identity)
    assert [w.text for w in same.words()] == [w.text for w in tr.words()]


def test_permute_preserves_password_scores():
    tr = gen_password_dataset((10, 2, 2), seed=3)[0]
    permuted = permute_dataset(tr, seed=5)
    for (w, _), (pw, _) in zip(tr.items, permuted.items):
        assert strength_score(pw).value == pytest.approx(strength_score(w).value, abs=0)


def test_permutation_is_full_alphabet_bijection():
    phi = alphabet_permutation(PALINDROME_ALPHABET, seed=4)
    assert sorted(s for s, _ in phi.pairs) == sorted(PALINDROME_ALPHABET.letters)
    assert sorted(t for _, t in phi.pairs) == sorted(PALINDROME_ALPHABET.letters)


def test_write_read_roundtrip(tmp_path):
    tr = gen_palindrome_dataset(6, (5, 2, 2), seed=8)[0]
    path = tmp_path / "train.tsv"
    write_dataset(tr, path)
    back = read_dataset(path, task=tr.task, split=tr.split, seed=tr.seed)
    assert back == tr
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    write_dataset(tr, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == raw


def test_read_infers_task(tmp_path):
    tr = gen_password_dataset((3, 1, 1), seed=2)[0]
    write_dataset(tr, tmp_path / "x.tsv")
    assert read_dataset(tmp_path / "x.tsv").task == "password"


def test_read_rejects_bad_label(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("1\tabc\n2\tabc\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 2"):
        read_dataset(p)


def test_read_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="empty"):
        read_dataset(p)


def test_read_rejects_missing_tab(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("1abc\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="line 1"):
        read_dataset(p)


def test_read_rejects_bytes_that_are_not_utf8_naming_the_line(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_bytes(b"0\tabcde\n1\tab\xffba\n")
    with pytest.raises(DatasetFormatError, match=r"bad.tsv: line 2: not valid UTF-8"):
        read_dataset(p)


def _valid_files():
    pal = gen_palindrome_dataset(6, (4, 1, 1), seed=3)[0]
    pwd = gen_password_dataset((2, 1, 1), seed=3)[0]
    return [b"".join(f"{y}\t{w.text}\n".encode() for w, y in ds.items) for ds in (pal, pwd)]


VALID_FILES = _valid_files()


@settings(max_examples=150)
@given(data=st.sampled_from(VALID_FILES).flatmap(damaged), task=st.sampled_from([None, "palindrome", "password"]))
def test_read_damaged_file_loads_or_raises_format_error(tmp_path_factory, data, task):
    path = tmp_path_factory.mktemp("fuzz") / "d.tsv"
    path.write_bytes(data)
    try:
        ds = read_dataset(path, task=task)
    except DatasetFormatError:
        return
    assert len(ds) >= 1 and all(len(w) == ds.word_length for w in ds.words())
