import math
import random
import tracemalloc

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
    encode_batch,
    encode_dense,
    encode_onehot,
)
from combword.layers import TILE_ROWS
from combword import words
from combword.words import Alphabet, Bijection, apply_bijection, distinct_subwords, word_over_own_letters
from oracles import brute_map, enum_subwords, repetition_patterns, scatter_plane

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


def looped_channel_count(cfg: EncodingConfig) -> int:
    """The channel count as a sum over subword lengths, one term per length up to the cap."""
    n = cfg.word_length
    if cfg.nu_cap_len is None:
        return cfg.pad_to
    cap = min(cfg.nu_cap_len, n)
    return min(cfg.pad_to, 1 + sum(n - length + 1 for length in range(1, cap + 1)))


def test_channel_count_equals_the_sum_over_subword_lengths():
    for n in range(1, 61):
        for cap in [None, *range(1, n + 3)]:
            for extra in (0, 5):
                cfg = EncodingConfig(n, words.max_table_size(n) + extra, cap, NORM_NONE)
                assert channel_count(cfg) == looped_channel_count(cfg), (n, cap, extra)


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
        got = np.asarray(encoder(iter(call)))
        assert got.dtype == dtype
        assert got.tobytes() == np.stack([encode_dense(w, cfg, dtype) for w in call]).tobytes()
    assert len(encoder) == len(words)


def raw_count_values(cfg: EncodingConfig, dtype) -> np.ndarray:
    """What each raw count 0..n^2 encodes to: itself, or log(1+c)/log(1+n^2) rounded to float32."""
    top = cfg.word_length**2
    counts = np.arange(top + 1, dtype=np.float64)
    if cfg.normalization == NORM_NONE:
        return counts.astype(dtype)
    return (np.log1p(counts) / math.log1p(top)).astype(np.float32).astype(dtype)


def compact_layout_words(nu_cap_len):
    """Every repetition pattern of length <= 7, then seeded words of each length 1 to 20 over 1 to 6 letters.

    Uncapped planes grow as n^3, so uncapped seeded words stop at n=15.
    """
    rng = random.Random(38)
    for n in range(1, 8):
        yield n, list(repetition_patterns(n))
    for n in range(1, 21 if nu_cap_len else 16):
        yield n, ["".join(rng.choice("abcdef"[: rng.randint(1, 6)]) for _ in range(n)) for _ in range(3)]


@pytest.mark.parametrize("nu_cap_len", [1, 2, 3, None])
def test_compact_rows_gathered_by_the_plane_index_are_the_scattered_plane(nu_cap_len):
    for n, texts in compact_layout_words(nu_cap_len):
        counting = BatchEncoder(EncodingConfig.for_length(n, nu_cap_len=nu_cap_len))
        forms = [counting.counts(t) for t in texts]
        p, c = counting.cfg.pad_to, counting.channels
        for normalization in (NORM_NONE, NORM_LOG):
            cfg = EncodingConfig.for_length(n, nu_cap_len=nu_cap_len, normalization=normalization)
            for dtype in (np.float32, np.float64):
                encoder, values = BatchEncoder(cfg, dtype), raw_count_values(cfg, dtype)
                for text, form in zip(texts, forms):
                    # One row per channel-0 value, then one per upper-half cell with a chain.
                    size = len(values) + np.count_nonzero(form.sizes)
                    rows, index = np.full((size + 1, c), np.nan, dtype=dtype), np.empty(p * p, dtype=np.intp)
                    compact, _ = encoder.layout(form, rows, index)
                    assert len(compact) == size, (text, cfg)
                    plane = scatter_plane(form, p, c, values)
                    assert compact[index].reshape(p, p, c).tobytes() == plane.tobytes(), (text, cfg, dtype)
                dense = np.asarray(encoder(texts[:3]))
                assert dense.tobytes() == np.stack([scatter_plane(f, p, c, values) for f in forms[:3]]).tobytes(), (n, cfg)


def encoded_rows_cases():
    """Seeded batches for the row-slice tests: float32 and float64 at n=5 to 10, and one n=15 batch."""
    for n, dtype in ((5, np.float32), (6, np.float64), (8, np.float32), (10, np.float64), (10, np.float32)):
        yield n, dtype, gen_palindrome_dataset(n, (6, 1, 1), seed=40 + n)[0].words()
    yield 15, np.float32, gen_password_dataset((2, 1, 1), 41, n=15)[0].words()


@pytest.mark.parametrize("n, dtype, batch_words", list(encoded_rows_cases()), ids=lambda v: getattr(v, "__name__", None))
def test_encoded_batch_rows_equal_the_dense_batch(n, dtype, batch_words):
    cfg = EncodingConfig.for_length(n)
    batch = BatchEncoder(cfg, dtype)(batch_words)
    dense = np.asarray(batch)
    assert batch.shape == dense.shape and batch.dtype == dense.dtype == dtype and batch.size == dense.size
    flat, rows = batch.reshape(-1, dense.shape[-1]), dense.reshape(-1, dense.shape[-1])
    total, per = rows.shape[0], cfg.pad_to * cfg.pad_to
    assert flat.shape == rows.shape
    tiles = [(r0, min(r0 + TILE_ROWS, total)) for r0 in range(0, total, TILE_ROWS)]  # the last one short
    straddling = [(s * per - 7, s * per + 5) for s in range(1, len(batch_words))] + [(per - 1, 2 * per + 3), (0, total)]
    out_of_order = [(total - 3, total), (0, 4), (per + 2, per + 9), (3, 11), (total - 3, total), (0, 4)]
    for lo, hi in tiles + straddling + out_of_order + tiles[::-1]:
        got = flat[lo:hi]
        assert isinstance(got, np.ndarray) and got.dtype == dtype and not got.flags.writeable
        assert got.tobytes() == rows[lo:hi].tobytes(), (lo, hi)
        with pytest.raises(ValueError):
            got[...] = 1


def test_encoded_batch_rows_stay_put_after_later_reads():
    cfg = EncodingConfig.for_length(6)
    words = gen_palindrome_dataset(6, (4, 1, 1), seed=3)[0].words()
    batch = BatchEncoder(cfg)(words)
    flat, rows = batch.reshape(-1, batch.shape[-1]), np.asarray(batch).reshape(-1, batch.shape[-1])
    per = cfg.pad_to * cfg.pad_to
    held = [(lo, flat[lo : lo + 10]) for lo in range(0, rows.shape[0] - 10, per)]
    for lo, got in held:
        assert got.tobytes() == rows[lo : lo + 10].tobytes()


def test_reading_an_encoded_batch_sample_by_sample_keeps_at_most_two_planes_live():
    # The oldest plane goes before the next is gathered; the rest of the room is the sample's compact rows and index.
    cfg = EncodingConfig.for_length(10)
    batch = BatchEncoder(cfg)(["abcdefghij", "abcabcabca", "aabbccddee", "abcdeedcba", "aaaaabbbbb"])
    flat = batch.reshape(-1, batch.shape[-1])
    per = cfg.pad_to * cfg.pad_to
    plane = per * batch.shape[-1] * batch.dtype.itemsize
    tracemalloc.start()
    try:
        for s in range(batch.shape[0]):
            flat[s * per : (s + 1) * per]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * plane, peak / plane


def test_encoded_batch_offers_only_flat_row_slices():
    batch = BatchEncoder(EncodingConfig.for_length(5))(["abcab", "aaaaa"])
    with pytest.raises(ValueError, match="reshapes only"):
        batch.reshape(2, -1)
    with pytest.raises(TypeError):
        batch[0:1]
    flat = batch.reshape(-1, batch.shape[-1])
    with pytest.raises(TypeError):
        flat[::2]
    with pytest.raises(TypeError):
        flat[3]
    assert flat[4:4].shape == (0, batch.shape[-1])


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


def test_cached_counts_are_typed_by_their_own_maximum_at_n20():
    # n^2 = 400 would need uint16, but no n=20 chain count or cell size reaches 256.
    encoder = BatchEncoder(EncodingConfig.for_length(20))
    for w in gen_palindrome_dataset(20, (2, 1, 1), seed=303)[0].words():
        s = encoder.counts(w)
        assert s.sizes.dtype == s.counts.dtype == np.uint8
        for a in (s.sizes, s.counts, s.empty):
            assert a.dtype == np.min_scalar_type(int(a.max())), a.dtype


def test_permuted_split_adds_no_cache_entry():
    val = gen_palindrome_dataset(8, (1, 24, 1), seed=4)[1]
    permuted = permute_dataset(val, 9)
    assert len(val.words()) == 48
    assert [w.text for w in val.words()] != [w.text for w in permuted.words()]
    cfg = EncodingConfig.for_length(8)
    encoder = BatchEncoder(cfg)
    clean_batches = [val.words()[i : i + 16] for i in range(0, 48, 16)]
    permuted_batches = [permuted.words()[i : i + 16] for i in range(0, 48, 16)]
    clean = [np.asarray(encoder(b)).tobytes() for b in clean_batches]
    seen = len(encoder)
    assert [np.asarray(encoder(b)).tobytes() for b in permuted_batches] == clean
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


CAPPED_WORDS = [
    "abcabcabcabca",  # multi-cell runs
    "abababababababab",
    "aaaaaaaaaaaaaa",
    "abcdefgfedcbaa",  # one-cell runs beside the main diagonal
    "qwertyuiopasdfg",  # the main diagonal only
    *(pytest.param(w.text, id=f"password-{i}") for i, (w, _) in enumerate(gen_password_dataset((1, 1, 1), seed=3)[0].items)),
    pytest.param(gen_palindrome_dataset(14, (1, 1, 1), seed=3)[0].items[0][0].text, id="palindrome-14"),
]


@pytest.mark.parametrize("text", CAPPED_WORDS)
def test_capped_encoding_matches_the_flood_fill_oracle(text):
    """The default layout past length 12 caps channels; each kept entry is the oracle's count."""
    cfg = EncodingConfig.for_length(len(text), normalization=NORM_NONE)
    assert cfg.nu_cap_len is not None
    subwords = enum_subwords(text)
    _, counts = brute_map(text)
    expect = np.zeros((cfg.pad_to, cfg.pad_to, channel_count(cfg)))
    for (lam, mu, nu), c in counts.items():
        if subwords[nu][1] <= cfg.nu_cap_len:
            expect[lam, mu, nu] = c
    assert np.array_equal(encode_dense(text, cfg, np.float64), expect)
