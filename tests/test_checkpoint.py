import json

import numpy as np
import pytest

from combword.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from combword.datasets import gen_palindrome_dataset
from combword.encoding import EncodingConfig
from combword.network import build_char_cnn, build_combinatorial_cnn
from combword.training import combinatorial_encoder, predict_probs


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
    enc = combinatorial_encoder(EncodingConfig.for_length(6))
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
        (_put_meta(task="anagram"), "unknown task"),
        (_put_meta(task=["palindrome"]), "unknown task"),
    ],
)
def test_malformed_header_raises_checkpoint_error(model, tmp_path, edit, match):
    p = tmp_path / "x.ckpt"
    save_checkpoint(model, p)
    _rewrite_header(p, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(p)


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
