import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combword.words import (
    Alphabet,
    Bijection,
    Word,
    apply_bijection,
    distinct_subwords,
    is_palindrome,
    max_table_size,
    parse_word,
    subword_windows,
    word_over_own_letters,
)
from oracles import enum_subwords, equality_runs

ABC = Alphabet.of("abc")
LOWER = Alphabet.of("abcdefghijklmnopqrstuvwxyz")

words_abc = st.text(alphabet="abc", min_size=1, max_size=12)
# Up to six letters, including accented, CJK and non-BMP ones.
words_unicode = st.lists(st.sampled_from("abàé中😀"), min_size=1, max_size=6, unique=True).flatmap(
    lambda letters: st.text(alphabet=letters, min_size=1, max_size=20)
)


def random_bijection(draw, text):
    letters = sorted(set(text))
    targets = draw(st.permutations(list("nopqrstuvwxyz"[: len(letters)])))
    return Bijection.from_mapping(dict(zip(letters, targets)))


bijections_for = st.text(alphabet="abc", min_size=1, max_size=12).flatmap(
    lambda t: st.permutations(list("xyz"[: len(set(t))])).map(
        lambda perm: (t, Bijection.from_mapping(dict(zip(sorted(set(t)), perm))))
    )
)


def test_parse_word_basic():
    w = parse_word("aba", Alphabet.of("ab"))
    assert w.text == "aba" and len(w) == 3


def test_parse_word_empty():
    with pytest.raises(ValueError, match="empty"):
        parse_word("", Alphabet.of("a"))


def test_parse_word_symbol_outside_alphabet_names_position():
    with pytest.raises(ValueError, match=r"'z'.*position 2"):
        parse_word("abz", Alphabet.of("ab"))


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet.of("aba")
    with pytest.raises(ValueError):
        Alphabet(())


def test_distinct_subwords_ab():
    t = distinct_subwords("ab")
    assert [(e.content, e.length, e.start) for e in t.entries] == [
        ("", 0, 0),
        ("a", 1, 0),
        ("b", 1, 1),
        ("ab", 2, 0),
    ]


def test_distinct_subwords_collapses_duplicates():
    t = distinct_subwords("aaa")
    assert [e.content for e in t.entries] == ["", "a", "aa", "aaa"]


def test_distinct_subwords_aba():
    t = distinct_subwords("aba")
    assert [e.content for e in t.entries] == ["", "a", "b", "ab", "ba", "aba"]
    assert len(t) == 6


@given(words_abc)
@settings(max_examples=100)
def test_table_matches_brute_force(text):
    got = [(e.content, e.length, e.start) for e in distinct_subwords(text).entries]
    assert got == enum_subwords(text)


@given(words_unicode)
@settings(max_examples=200, deadline=None)
def test_subword_windows_match_brute_force(text):
    agree, starts, lengths, span = subword_windows(text)
    n = len(text)
    for i in range(n):
        for j in range(n):
            k = 0
            while max(i, j) + k < n and text[i + k] == text[j + k]:
                k += 1
            assert agree[i, j] == k
    table = enum_subwords(text)
    assert list(zip(starts.tolist(), lengths.tolist())) == [(start, length) for _, length, start in table[1:]]
    index = {content: k for k, (content, _, _) in enumerate(table)}
    for i in range(n):
        assert span[i, 0] == 0
        for length in range(1, n + 1):
            assert span[i, length] == (index[text[i : i + length]] if i + length <= n else 0)
    rows, cols, runs = distinct_subwords(text).runs()
    assert list(zip(rows.tolist(), cols.tolist(), runs.tolist())) == equality_runs(text)


@given(words_abc)
def test_table_size_bounds(text):
    d = len(distinct_subwords(text))
    assert 2 <= d <= max_table_size(len(text))


@given(words_abc)
def test_sort_keys_unique(text):
    keys = [(e.length, e.start) for e in distinct_subwords(text).entries]
    assert len(set(keys)) == len(keys)


@given(bijections_for)
def test_canonical_keys_invariant_under_bijection(pair):
    text, phi = pair
    w = word_over_own_letters(text)
    keys = lambda tab: [(e.length, e.start) for e in tab.entries]
    assert keys(distinct_subwords(w)) == keys(distinct_subwords(apply_bijection(w, phi)))


def test_max_table_size_values():
    assert max_table_size(10) == 56
    assert max_table_size(15) == 121
    assert max_table_size(20) == 211
    with pytest.raises(ValueError):
        max_table_size(0)


def test_apply_bijection_examples():
    w = parse_word("aba", Alphabet.of("abcd"))
    phi = Bijection.from_mapping({"a": "c", "b": "d"})
    assert apply_bijection(w, phi).text == "cdc"
    same = apply_bijection(parse_word("aa", Alphabet.of("a")), Bijection.from_mapping({"a": "a"}))
    assert same.text == "aa"


def test_apply_bijection_unmapped_letter():
    w = parse_word("ab", Alphabet.of("ab"))
    with pytest.raises(ValueError, match="'b'"):
        apply_bijection(w, Bijection.from_mapping({"a": "b"}))


def test_bijection_rejects_non_injective():
    with pytest.raises(ValueError):
        Bijection.from_mapping({"a": "c", "b": "c"})


@given(bijections_for)
def test_bijection_roundtrip(pair):
    text, phi = pair
    w = word_over_own_letters(text)
    assert apply_bijection(apply_bijection(w, phi), phi.inverse()).text == text


def test_is_palindrome():
    assert is_palindrome("abccba")
    assert not is_palindrome("ab")
    assert is_palindrome("a")
    assert is_palindrome(parse_word("aba", ABC))


def test_word_validates_letters():
    with pytest.raises(ValueError, match="position 1"):
        Word("axa", Alphabet.of("a"))
    with pytest.raises(ValueError, match=r"'y' at position 2"):  # the first of several bad letters
        Word("aaybyx", Alphabet.of("ab"))
