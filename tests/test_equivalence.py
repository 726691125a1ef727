import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combword.equivalence import (
    check_theorem,
    equivalent_by_tensor,
    find_bijection,
    find_bijection_exhaustive,
)
from combword.combinatorics import combinatorics_map
from combword import words
from oracles import brute_bijection, pattern_key

words_abc = st.text(alphabet="abc", min_size=1, max_size=7)
# Unrelated pairs, same-length pairs, and a word with its image under an injective map into abcd.
word_pairs = st.one_of(
    st.tuples(words_abc, words_abc),
    words_abc.flatmap(lambda t: st.tuples(st.just(t), st.text(alphabet="abc", min_size=len(t), max_size=len(t)))),
    words_abc.flatmap(
        lambda t: st.permutations("abcd").map(lambda perm: (t, t.translate(str.maketrans("abc", "".join(perm[:3])))))
    ),
)


def test_find_bijection_examples():
    phi = find_bijection("aba", "cdc")
    assert phi is not None and phi.forward == {"a": "c", "b": "d"}
    assert find_bijection("aba", "cdd") is None
    assert find_bijection("ab", "cc") is None
    assert find_bijection("ab", "abc") is None


@given(words_abc, words_abc)
@settings(max_examples=200)
def test_find_bijection_matches_exhaustive(a, b):
    fast = find_bijection(a, b)
    slow = brute_bijection(a, b)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert all(fast.forward[x] == y for x, y in zip(a, b))


@given(words_abc, words_abc)
@settings(max_examples=100)
def test_find_bijection_exhaustive_agrees_with_fast(a, b):
    assert (find_bijection(a, b) is None) == (find_bijection_exhaustive(a, b) is None)


def test_exhaustive_refuses_large_letter_sets():
    a = "abcdefghi"
    b = "abcdefghi"
    with pytest.raises(ValueError):
        find_bijection_exhaustive(a, b)


def test_equivalent_by_tensor_examples():
    assert equivalent_by_tensor("aba", "cdc")
    assert not equivalent_by_tensor("ab", "aa")
    assert equivalent_by_tensor("abacab", "abacab")


def test_check_theorem_related_pair():
    r = check_theorem("aba", "cdc")
    assert r.agree and r.tensor_equal and r.bijection is not None


def test_check_theorem_swap_pair():
    r = check_theorem("ab", "ba")
    assert r.agree and r.tensor_equal
    assert r.bijection.forward == {"a": "b", "b": "a"}


def test_check_theorem_unrelated_pair():
    r = check_theorem("aab", "abb")
    assert r.agree and not r.tensor_equal and r.bijection is None


def test_check_theorem_with_oracle():
    assert check_theorem("abca", "bcab", use_oracle=True).agree


@given(words_abc)
def test_reflexive(a):
    assert equivalent_by_tensor(a, a)


@given(words_abc, words_abc)
@settings(max_examples=60, deadline=None)
def test_symmetric(a, b):
    assert equivalent_by_tensor(a, b) == equivalent_by_tensor(b, a)


def test_transitive_spot_check():
    triples = [("aba", "cdc", "efe"), ("aab", "bba", "ccd"), ("abc", "cab", "bca")]
    for a, b, c in triples:
        if equivalent_by_tensor(a, b) and equivalent_by_tensor(b, c):
            assert equivalent_by_tensor(a, c)


@given(words_abc, words_abc)
@settings(max_examples=80, deadline=None)
def test_soundness_bijection_implies_tensor_equal(a, b):
    if find_bijection(a, b) is not None:
        assert equivalent_by_tensor(a, b)


def test_exhaustive_length_four_theorem():
    words = ["".join(t) for n in range(1, 5) for t in itertools.product("abc", repeat=n)]
    for a, b in itertools.combinations(words, 2):
        same_pattern = len(a) == len(b) and pattern_key(a) == pattern_key(b)
        assert equivalent_by_tensor(a, b) == same_pattern, (a, b)


@given(word_pairs)
@settings(max_examples=200, deadline=None)
def test_pattern_key_iff_bijection_iff_same_counts(pair):
    a, b = pair
    same_key = words.pattern_key(a) == words.pattern_key(b)
    assert words.pattern_key(a) == pattern_key(a)
    assert same_key == (find_bijection(a, b) is not None)
    assert same_key == combinatorics_map(a).same_counts(combinatorics_map(b))
