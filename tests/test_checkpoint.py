import hashlib
import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combword import checkpoint
from combword.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from combword.cli import main
from combword.datasets import gen_palindrome_dataset, write_dataset
from combword.encoding import BatchEncoder, EncodingConfig
from combword.network import build_char_cnn, build_combinatorial_cnn, param_shapes
from combword.training import predict_probs

from damage import flipped, truncated


@pytest.fixture(scope="module")
def model():
    m = build_combinatorial_cnn(EncodingConfig.for_length(6), seed=17)
    m.meta["task"] = "palindrome"
    return m


def test_roundtrip_bit_identical(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.specs == model.specs
    assert back.input_shape == model.input_shape
    assert back.meta == model.meta
    for p, q in zip(model.params(), back.params()):
        assert p.tobytes() == q.tobytes()


def test_roundtrip_preserves_evaluation(model, tmp_path):
    ds = gen_palindrome_dataset(6, (8, 4, 1), seed=2)[1]
    enc = BatchEncoder(EncodingConfig.for_length(6))
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert predict_probs(model, ds, enc).tobytes() == predict_probs(back, ds, enc).tobytes()


def test_save_is_deterministic(model, tmp_path):
    save_checkpoint(model, tmp_path / "a.ckpt")
    save_checkpoint(model, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_char_model_roundtrip(tmp_path):
    m = build_char_cnn(8, 26, seed=3)
    save_checkpoint(m, tmp_path / "c.ckpt")
    back = load_checkpoint(tmp_path / "c.ckpt")
    assert back.meta["model"] == "char"
    assert back.input_shape == (8, 1, 26)


def test_bad_magic(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"something else\n{}\n")
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(p)


def test_corrupted_header(model, tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(MAGIC + b"\n{not json\n")
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(p)


def test_wrong_version(model, tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(model, p)
    data = p.read_bytes().replace(b'"version": 1', b'"version": 9')
    p.write_bytes(data)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(p)


# The header line ``save_checkpoint`` writes for two seeded n=4 models; files saved before keep loading unchanged.
@pytest.mark.parametrize(
    "build, sha1",
    [
        (lambda: build_combinatorial_cnn(EncodingConfig.for_length(4), seed=5), "e426647463b8c0a331796c5167dbac5d5e5002af"),
        (lambda: build_char_cnn(4, 26, seed=3), "656e6596ca66fc3ba491baaa91b7a5a67ec8e5ff"),
    ],
    ids=["tensor", "char"],
)
def test_header_bytes_are_pinned(tmp_path, build, sha1):
    m = build()
    m.meta["task"] = "palindrome"
    save_checkpoint(m, tmp_path / "m.ckpt")
    header = (tmp_path / "m.ckpt").read_bytes().split(b"\n")[1]
    assert hashlib.sha1(header).hexdigest() == sha1
    assert load_checkpoint(tmp_path / "m.ckpt").meta == m.meta


def test_truncated_blob_reports_sizes(model, tmp_path):
    p = tmp_path / "x.ckpt"
    save_checkpoint(model, p)
    data = p.read_bytes()
    p.write_bytes(data[:-4])
    with pytest.raises(CheckpointError, match=r"expected \d+"):
        load_checkpoint(p)


def _rewrite_header(path, edit):
    magic, header, blob = path.read_bytes().split(b"\n", 2)
    path.write_bytes(magic + b"\n" + json.dumps(edit(json.loads(header))).encode("utf-8") + b"\n" + blob)


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _put(key, value):
    return lambda h: {**h, key: value}


def _put_spec_field(key, value):
    return lambda h: {**h, "specs": [{**h["specs"][0], key: value}] + h["specs"][1:]}


def _put_spec(i, **fields):
    return lambda h: {**h, "specs": [{**d, **fields} if j == i else d for j, d in enumerate(h["specs"])]}


def _put_meta(**fields):
    return lambda h: {**h, "meta": {**h["meta"], **fields}}


def _put_encoding(**fields):
    return lambda h: {**h, "meta": {**h["meta"], "encoding": {**h["meta"]["encoding"], **fields}}}


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda h: [], "not a JSON object"),
        (lambda h: "specs", "not a JSON object"),
        *[(_drop(key), repr(key)) for key in ("specs", "input_shape", "seed", "shapes", "meta")],
        (_put("specs", "conv"), "'specs'"),
        (_put("specs", [1]), "'specs'"),
        (_put_spec_field("kernel", "1x1"), "'specs'"),
        (_put_spec_field("filters", 2.5), "'specs'"),
        (_put_spec_field("kind", None), "'specs'"),
        (_put("input_shape", [11, 11]), "'input_shape'"),
        (_put("input_shape", "11x11x6"), "'input_shape'"),
        (_put("seed", "17"), "'seed'"),
        (_put("seed", True), "'seed'"),
        (_put("meta", []), "'meta'"),
        (_put("meta", {}), "'encoding'"),
        (_put("meta", {"model": "combinatorial", "encoding": "log"}), "'encoding'"),
        (_put_encoding(pad_to="eleven"), "'encoding'"),
        (_put_encoding(normalization="cube-root"), "'encoding'"),
        (_put_encoding(word_length=float("inf")), "'encoding'"),
        (_put_encoding(nu_cap_len=1), "does not match input_shape"),
        (_put_encoding(pad_to=29), "does not match input_shape"),
        (_put_encoding(pad_to=29, nu_cap_len=6), "does not match input_shape"),
        (_put("shapes", [[1, "a"]]), "'shapes'"),
        (_put("shapes", None), "'shapes'"),
        (_put_spec_field("kind", "bogus"), "invalid architecture"),
        (_put_spec_field("filters", -4), "invalid architecture"),
        (_put("seed", -1), "invalid architecture"),
        (_put_spec(4, pool=[0, 2]), "invalid architecture"),
        (_put_spec(9, units=0), "invalid architecture"),
        (_put_spec(8, kind="relu"), "invalid architecture"),  # dense on an unflattened plane
        (_put_meta(task="anagram"), "unknown task"),
        (_put_meta(task=["palindrome"]), "unknown task"),
        (_put_meta(model="foo"), "unknown model 'foo'"),
        (_put_meta(model="char"), "'word_length'/'alphabet_size' do not match"),
        # No value is cast: each of these loaded when the encoding was read with int() and str().
        (_put_encoding(pad_to=22.0), "'encoding'"),
        (_put_encoding(pad_to=22.9), "'encoding'"),
        (_put_encoding(nu_cap_len="6"), "'encoding'"),
        (_put_encoding(word_length="6"), "'encoding'"),
        # An object has exactly its dataclass's fields.
        (_put("comment", "hand-edited"), r"unknown fields \['comment'\]"),
        (_put_spec_field("stride", 1), "'specs'"),
        (_put_encoding(channels=11), "'encoding'"),
        # The version is checked first, and true == 1 == 1.0 in Python.
        (_put("version", True), "unsupported version True"),
        (_put("version", 1.0), "unsupported version 1.0"),
    ],
)
def test_malformed_header_raises_checkpoint_error(model, tmp_path, edit, match):
    p = tmp_path / "x.ckpt"
    save_checkpoint(model, p)
    _rewrite_header(p, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(p)


# The one error line shows a rejected value shortened, and names only the field lists that are not empty.
@pytest.mark.parametrize(
    "edit, message",
    [
        (_put("meta", list(range(10**4))), "header['meta'] is not an object: [0, 1, 2, 3, 4, 5, ...]"),
        (_put("input_shape", [11] * 10**4), "header['input_shape'] is not a list of 3: [11, 11, 11, 11, 11, 11, ...]"),
        (_put("seed", "7" * 10**4), "header['seed'] is not an integer: '777777777777...7777777777777'"),
        (_drop("seed"), "header has missing fields ['seed']"),
        (_put("comment", "hand-edited"), "header has unknown fields ['comment']"),
        (lambda h: {**_drop("seed")(h), "comment": 1}, "header has missing fields ['seed'] and unknown fields ['comment']"),
    ],
)
def test_a_rejected_header_value_is_named_briefly(model, tmp_path, edit, message):
    p = tmp_path / "x.ckpt"
    save_checkpoint(model, p)
    _rewrite_header(p, edit)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(p)
    assert str(info.value) == f"{p}: corrupted header: {message}"


@pytest.fixture(scope="module")
def char_model():
    m = build_char_cnn(8, 26, seed=3)
    m.meta["task"] = "palindrome"
    return m


@pytest.mark.parametrize(
    "edit, match",
    [
        (_put_meta(word_length=9), "'word_length'/'alphabet_size' do not match"),
        (_put_meta(alphabet_size=94), "'word_length'/'alphabet_size' do not match"),
        (_put_meta(word_length="8"), "'word_length'/'alphabet_size' do not match"),
        (lambda h: {**h, "meta": {"model": "char", "alphabet_size": 26}}, "'word_length'/'alphabet_size' do not match"),
        (_put_meta(task="anagram"), "unknown task"),
        (_put_meta(task="password"), "'word_length'/'alphabet_size' do not match"),  # 26 letters, not 94
        (_put_meta(model="foo"), "unknown model 'foo'"),
    ],
)
def test_char_model_meta_must_match_input_shape(char_model, tmp_path, edit, match):
    p = tmp_path / "c.ckpt"
    save_checkpoint(char_model, p)
    _rewrite_header(p, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(p)


def test_model_without_task_loads(tmp_path):
    for m in (build_combinatorial_cnn(EncodingConfig.for_length(5), seed=1), build_char_cnn(5, 26, seed=1)):
        assert "task" not in m.meta
        save_checkpoint(m, tmp_path / "m.ckpt")
        assert load_checkpoint(tmp_path / "m.ckpt").meta == m.meta


# The tensor CNN's first dense layer, widened to 10^12 units: ~18 TB of float32.
_HUGE = 10**12


def _huge_dense(h):
    return _put_spec(9, units=_HUGE)(h)


def _huge_dense_with_shapes(h):
    h = _huge_dense(h)
    shapes = list(h["shapes"])
    shapes[6:9] = [[shapes[6][0], _HUGE], [_HUGE], [_HUGE, 1]]
    return {**h, "shapes": shapes}


@pytest.mark.parametrize(
    "edit, match",
    [
        (_huge_dense, "header shapes do not match"),
        (_huge_dense_with_shapes, r"blob is \d+ bytes, expected \d{13,}$"),
    ],
)
def test_oversized_header_rejected_before_allocation(model, tmp_path, monkeypatch, edit, match):
    p = tmp_path / "x.ckpt"
    save_checkpoint(model, p)
    _rewrite_header(p, edit)

    def no_build(*args, **kwargs):
        raise AssertionError("the model was built before its size was checked")

    monkeypatch.setattr(checkpoint, "Network", no_build)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "last"])
def test_non_finite_parameter_raises_checkpoint_error(model, tmp_path, value, where):
    p = tmp_path / "x.ckpt"
    save_checkpoint(model, p)
    data = bytearray(p.read_bytes())
    at = len(data) - 4 if where == "last" else len(data) - 4 * model.param_count()
    data[at : at + 4] = np.float32(value).astype("<f4").tobytes()
    p.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(p)


@pytest.fixture(scope="module")
def saved_small(tmp_path_factory):
    """A saved n=4 tensor model (~30 KB) and a dataset it can evaluate."""
    root = tmp_path_factory.mktemp("fuzz")
    m = build_combinatorial_cnn(EncodingConfig.for_length(4), seed=5)
    m.meta["task"] = "palindrome"
    save_checkpoint(m, root / "m.ckpt")
    write_dataset(gen_palindrome_dataset(4, (1, 2, 1), seed=1)[1], root / "val.tsv")
    return root, (root / "m.ckpt").read_bytes()


@st.composite
def digit_edits(draw, data: bytes, lo: int, hi: int) -> bytes:
    """``data`` with one digit between bytes ``lo`` and ``hi`` changed to another digit."""
    at = draw(st.sampled_from([i for i in range(lo, hi) if chr(data[i]).isdigit()]))
    digit = draw(st.sampled_from(b"0123456789".replace(data[at : at + 1], b"")))
    return data[:at] + bytes([digit]) + data[at + 1 :]


@settings(max_examples=200)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_checkpoint_error(saved_small, data):
    root, good = saved_small
    header_end = good.index(b"\n", len(MAGIC) + 1) + 1
    bad = data.draw(
        st.one_of(
            truncated(good),
            flipped(good, 0, header_end),
            flipped(good, header_end),
            digit_edits(good, len(MAGIC) + 1, header_end),
        )
    )
    path = root / "bad.ckpt"
    path.write_bytes(bad)
    try:
        loaded = load_checkpoint(path)
    except CheckpointError:
        argv = ["eval", "--checkpoint", str(path), "--data", str(root / "val.tsv"), "--out", str(root)]
        assert main(argv) == 3
        return
    assert [p.shape for p in loaded.params()] == param_shapes(loaded.specs, loaded.input_shape)
    assert all(np.isfinite(p).all() for p in loaded.params())


@pytest.fixture(scope="module")
def saved_headers(tmp_path_factory):
    """Saved n=4 tensor and char models, each as (magic, parsed header, blob), and a dataset both evaluate."""
    root = tmp_path_factory.mktemp("leaves")
    saved = {}
    for kind, m in (("tensor", build_combinatorial_cnn(EncodingConfig.for_length(4), seed=5)), ("char", build_char_cnn(4, 26, seed=3))):
        m.meta["task"] = "palindrome"
        save_checkpoint(m, root / "m.ckpt")
        magic, header, blob = (root / "m.ckpt").read_bytes().split(b"\n", 2)
        saved[kind] = magic, json.loads(header), blob
    write_dataset(gen_palindrome_dataset(4, (1, 2, 1), seed=1)[1], root / "val.tsv")
    return root, saved


def _leaves(value, path=()):
    """The path of every leaf (number, string, bool or null) of parsed JSON."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _leaves(v, (*path, k))]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _leaves(v, (*path, i))]
    return [path]


_LEAF_VALUES = [True, 1.0, 11.9, "4", -1, 0, 10**30, float("nan"), [], [1], {}, None, "x"]


def _write_with_leaf(ckpt, saved, path, value) -> bool:
    """Write ``saved`` with the header leaf at ``path`` set to ``value``; whether that changes the leaf's JSON type.

    The one leaf whose declared type admits two JSON types is the encoding's ``nu_cap_len``: ``int | None``.
    """
    magic, header, blob = saved
    edited = json.loads(json.dumps(header))
    *parents, last = path
    target = edited
    for key in parents:
        target = target[key]
    old, target[last] = target[last], value
    ckpt.write_bytes(magic + b"\n" + json.dumps(edited).encode("utf-8") + b"\n" + blob)
    return type(value) not in ({int, type(None)} if last == "nu_cap_len" else {type(old)})


def _loads(ckpt) -> bool:
    try:
        load_checkpoint(ckpt)
    except CheckpointError:
        return False
    return True


def test_no_header_leaf_of_another_json_type_loads(saved_headers):
    root, saved = saved_headers
    ckpt = root / "edited.ckpt"
    loaded = [
        (kind, path, value)
        for kind in sorted(saved)
        for path in _leaves(saved[kind][1])
        for value in _LEAF_VALUES
        if _write_with_leaf(ckpt, saved[kind], path, value) and _loads(ckpt)
    ]
    assert loaded == []


@settings(max_examples=200)
@given(data=st.data())
def test_every_header_leaf_of_another_value_loads_or_exits_io_in_eval(saved_headers, data):
    root, saved = saved_headers
    kind = data.draw(st.sampled_from(sorted(saved)))
    path = data.draw(st.sampled_from(_leaves(saved[kind][1])))
    ckpt = root / "edited.ckpt"
    retyped = _write_with_leaf(ckpt, saved[kind], path, data.draw(st.sampled_from(_LEAF_VALUES)))
    loads = _loads(ckpt)
    assert not (retyped and loads)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(root / "val.tsv"), "--out", str(root)])
    assert code == (0 if loads else 3) and "Traceback" not in err.getvalue(), err.getvalue()
