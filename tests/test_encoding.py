import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combword.combinatorics import combinatorics_map
from combword.datasets import gen_palindrome_dataset, gen_password_dataset, permute_dataset
from combword.encoding import (
    NORM_LOG,
    NORM_NONE,
    BatchEncoder,
    EncodingConfig,
    channel_count,
    dense_text_lines,
    encode_batch,
    encode_dense,
    encode_onehot,
)
from combword import words
from combword.words import Alphabet, Bijection, apply_bijection, distinct_subwords, word_over_own_letters

words_abcd = st.text(alphabet="abcd", min_size=2, max_size=9)


def cfg_raw(n):
    return EncodingConfig.for_length(n, nu_cap_len=None, normalization=NORM_NONE)


def test_for_length_defaults():
    assert EncodingConfig.for_length(10).nu_cap_len is None
    assert EncodingConfig.for_length(12).nu_cap_len is None
    assert EncodingConfig.for_length(13).nu_cap_len == 3
    assert EncodingConfig.for_length(10).pad_to == 56
    assert EncodingConfig.for_length(10).normalization == NORM_LOG


def test_config_validation():
    with pytest.raises(ValueError):
        EncodingConfig(word_length=4, pad_to=5, nu_cap_len=None, normalization=NORM_NONE)
    with pytest.raises(ValueError):
        EncodingConfig.for_length(5, nu_cap_len=0)
    with pytest.raises(ValueError):
        EncodingConfig.for_length(5, normalization="sqrt")


def test_channel_count():
    assert channel_count(EncodingConfig.for_length(20, nu_cap_len=3, normalization=NORM_NONE)) == 58
    assert channel_count(cfg_raw(10)) == 56
    assert channel_count(EncodingConfig.for_length(4, nu_cap_len=99, normalization=NORM_NONE)) == 11


def test_encode_ab_raw_counts():
    cfg = EncodingConfig(word_length=2, pad_to=4, nu_cap_len=None, normalization=NORM_NONE)
    t = encode_dense("ab", cfg)
    assert t.shape == (4, 4, 4) and t.dtype == np.float32
    assert t[3, 3, 3] == 1  # full word produced once by the main diagonal
    assert t[3, 3, 0] == 2  # two empty cells in the 2x2 grid
    assert t[1, 1, 1] == 1
    assert t[3, 0, 0] == 2 and t[0, 3, 0] == 2 and t[0, 0, 0] == 1


def test_encode_matches_map_counts():
    text = "abcabd"
    cfg = cfg_raw(len(text))
    t = encode_dense(text, cfg)
    m = combinatorics_map(text)
    d = m.size
    dense = np.zeros((d, d, d), dtype=np.int64)
    for (li, mi, nu), c in m.counts.items():
        dense[li, mi, nu] = c
    assert np.array_equal(t[:d, :d, :d], dense.astype(np.float32))
    assert np.all(t[d:] == 0) and np.all(t[:, d:] == 0) and np.all(t[:, :, d:] == 0)


def test_log_normalization_formula_and_range():
    text = "abcab"
    n = len(text)
    raw = encode_dense(text, cfg_raw(n))
    logged = encode_dense(text, EncodingConfig.for_length(n, nu_cap_len=None, normalization=NORM_LOG))
    expected = np.log1p(raw.astype(np.float64)) / math.log1p(n * n)
    assert np.allclose(logged, expected, atol=1e-7)
    assert logged.min() >= 0.0 and logged.max() <= 1.0


def test_bijection_invariance_fixed_pair():
    cfg = EncodingConfig.for_length(3)
    assert encode_dense("aba", cfg).tobytes() == encode_dense("cdc", cfg).tobytes()


@given(words_abcd, st.permutations(list("wxyz")))
@settings(max_examples=60, deadline=None)
def test_bijection_invariance_random(text, targets):
    w = word_over_own_letters(text)
    phi = Bijection.from_mapping(dict(zip("abcd", targets)))
    cfg = EncodingConfig.for_length(len(text))
    assert encode_dense(w, cfg).tobytes() == encode_dense(apply_bijection(w, phi), cfg).tobytes()


@given(words_abcd)
@settings(max_examples=40, deadline=None)
def test_plane_symmetry(text):
    t = encode_dense(text, EncodingConfig.for_length(len(text)))
    assert np.array_equal(t, t.transpose(1, 0, 2))


@given(words_abcd)
@settings(max_examples=40, deadline=None)
def test_zero_padding_beyond_table(text):
    cfg = cfg_raw(len(text))
    t = encode_dense(text, cfg)
    d = len(distinct_subwords(text))
    assert np.abs(t[d:]).sum() == 0
    assert np.abs(t[:, d:]).sum() == 0
    assert np.abs(t[:, :, d:]).sum() == 0


def test_determinism():
    cfg = EncodingConfig.for_length(8)
    word = "abacabad"
    assert encode_dense(word, cfg).tobytes() == encode_dense(word, cfg).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("normalization", [NORM_NONE, NORM_LOG])
@pytest.mark.parametrize("nu_cap_len", [None, 2])
def test_encode_batch_equals_stacked_encode_dense(dtype, normalization, nu_cap_len):
    words = ["aaaaaaa", "abcdefg", "abcabca", "abbabba", "aabbaab"]  # table sizes 8 to 29
    assert len({len(distinct_subwords(w)) for w in words}) == len(words)
    cfg = EncodingConfig.for_length(7, nu_cap_len=nu_cap_len, normalization=normalization)
    batch = encode_batch(iter(words), cfg, dtype)
    stacked = np.stack([encode_dense(w, cfg, dtype) for w in words])
    assert batch.dtype == stacked.dtype == dtype and batch.shape == stacked.shape
    assert batch.tobytes() == stacked.tobytes()
    # One encoder over several calls: new and repeated patterns inside a batch,
    # then only cached ones, then a short last batch.
    encoder = BatchEncoder(cfg, dtype)
    for call in (words[:3] + ["bbbbbbb", "xyzxyzx", "abcdefg"], words[2:], ["zzzzzzz"]):
        got = encoder(iter(call))
        assert got.dtype == dtype
        assert got.tobytes() == np.stack([encode_dense(w, cfg, dtype) for w in call]).tobytes()
    assert len(encoder) == len(words)


def test_cached_counts_are_read_only():
    encoder = BatchEncoder(EncodingConfig.for_length(6))
    encoder(["abcabd"])
    cached = encoder.counts("xyzxyw")
    assert cached is encoder.counts("abcabd") and len(encoder) == 1
    for a in (cached.sizes, cached.nus, cached.counts, cached.empty):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
        with pytest.raises(ValueError):
            a.flags.writeable = True


def test_cached_pattern_bytes_at_n15():
    """The cache's memory per pattern: the upper half of the counts only."""
    words = gen_password_dataset((32, 1, 1), 5, n=15)[0].words()
    assert len(words) == 64
    encoder = BatchEncoder(EncodingConfig.for_length(15))
    for w in words:
        encoder.counts(w)
    assert encoder.nbytes / len(encoder) <= 60_000


def test_permuted_split_adds_no_cache_entry():
    val = gen_palindrome_dataset(8, (1, 24, 1), seed=4)[1]
    permuted = permute_dataset(val, 9)
    assert len(val.words()) == 48
    assert [w.text for w in val.words()] != [w.text for w in permuted.words()]
    cfg = EncodingConfig.for_length(8)
    encoder = BatchEncoder(cfg)
    clean_batches = [val.words()[i : i + 16] for i in range(0, 48, 16)]
    permuted_batches = [permuted.words()[i : i + 16] for i in range(0, 48, 16)]
    clean = [encoder(b).tobytes() for b in clean_batches]
    seen = len(encoder)
    assert [encoder(b).tobytes() for b in permuted_batches] == clean
    assert len(encoder) == seen
    assert [encode_batch(b, cfg).tobytes() for b in permuted_batches] == clean


def test_encode_batch_builds_no_subword_entries(monkeypatch):
    """Encoding reads the table's arrays; its string entries are built only for inspection."""

    def refuse(*args):
        raise AssertionError("a SubwordEntry was built while encoding")

    monkeypatch.setattr(words, "SubwordEntry", refuse)
    batch = encode_batch(["abcab", "aaaaa"], EncodingConfig.for_length(5))
    assert batch.shape[0] == 2
    with pytest.raises(AssertionError, match="SubwordEntry"):
        distinct_subwords("abcab").entries


def test_word_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        encode_dense("abc", EncodingConfig.for_length(4))


def test_channel_cap_drops_long_subwords_only():
    text = "aaaa"
    capped = EncodingConfig.for_length(4, nu_cap_len=2, normalization=NORM_NONE)
    t = encode_dense(text, capped)
    assert t.shape[2] == channel_count(capped) == 1 + 4 + 3
    raw = encode_dense(text, cfg_raw(4))
    # channels that exist in both setups carry identical counts
    assert np.array_equal(t[:, :, :3], raw[:, :, :3])
    # the word's own length-3 and length-4 subwords are dropped by the cap
    assert np.all(t[:, :, 3:] == 0)
    assert raw[4, 4, 4] == 1  # present uncapped


def test_cap_keeps_epsilon_channel():
    t = encode_dense("abab", EncodingConfig.for_length(4, nu_cap_len=1, normalization=NORM_NONE))
    assert t[0, 0, 0] == 1
    assert t[1, 0, 0] == 1


def test_dense_text_lines_layout():
    t = encode_dense("ab", EncodingConfig(word_length=2, pad_to=4, nu_cap_len=None, normalization=NORM_NONE))
    lines = dense_text_lines(t)
    assert lines[0] == "4 4 4"
    assert len(lines) == 1 + 4 * 4 * 4
    flat = t.ravel()
    assert lines[1 + 63] == f"{flat[63]:.9g}"


def test_onehot_shape_and_content():
    alpha = Alphabet.of("abc")
    x = encode_onehot("cab", alpha)
    assert x.shape == (3, 1, 3)
    assert x[0, 0, 2] == 1 and x[1, 0, 0] == 1 and x[2, 0, 1] == 1
    assert x.sum() == 3


def test_random_lengths_roundtrip_against_map():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(1, 12)
        text = "".join(rng.choice("abcdef") for _ in range(n))
        cfg = cfg_raw(n)
        t = encode_dense(text, cfg)
        m = combinatorics_map(text)
        for (li, mi, nu), c in m.counts.items():
            assert t[li, mi, nu] == c
        assert int(t.sum()) == sum(m.counts.values()) + 0  # no stray mass
