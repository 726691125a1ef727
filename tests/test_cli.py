import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from combword.checkpoint import load_checkpoint, save_checkpoint
from combword.cli import main
from combword import combinatorics, encoding
from combword.encoding import BatchEncoder, EncodingConfig, channel_count, encode_dense
from combword.datasets import DatasetFormatError, gen_password_dataset, read_dataset, write_dataset
from combword.network import Network, build_char_cnn, dense, flatten, pool, relu, sigmoid
from combword.training import accuracy_by_pattern, encoder_for, predict_probs

from damage import damaged
from oracles import brute_map


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_writes_splits_and_manifest(tmp_path, capsys):
    out = tmp_path / "data"
    code, _, _ = run(capsys, "gen", "palindromes", "--len", "6", "--train", "8", "--val", "4", "--test", "4", "--seed", "5", "--out", str(out))
    assert code == 0
    assert (out / "train.tsv").exists() and (out / "val.tsv").exists() and (out / "test.tsv").exists()
    assert len((out / "train.tsv").read_text().splitlines()) == 16
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["task"] == "palindrome" and manifest["seed"] == 5


def test_gen_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["gen", "passwords", "--len", "15", "--train", "4", "--val", "2", "--test", "2", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    for name in ("train.tsv", "val.tsv", "test.tsv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_impossible_request_exits_usage(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "palindromes", "--len", "2", "--train", "100", "--val", "1", "--test", "1", "--out", str(tmp_path / "x"))
    assert code == 1
    assert err.startswith("error: usage:")


# A 20-letter word over 8 letters, drawn by np.random.default_rng(20).integers(0, 8, 20).
WORD_20 = "hccdhabebdcaaafhhfhd"
# sha1 of `tensor`'s stdout per word and flag set: its text is a fixed format.
TENSOR_SHA1 = {
    ("abracadabra", "sparse"): "24d7689356101cbedb7ed9e45289693b025a4e1b",
    ("abracadabra", "dense"): "043c93a2166ee6c32cf8faccf3791b0b38286ae1",
    ("abracadabra", "dense-raw"): "eb5aa84f9ee2f3efaac030d67359893808ce9084",
    ("abracadabra", "dense-cap2"): "d37040937370895e778e9cd8ed5939380217a736",
    ("abba", "sparse"): "cccf9aee9dd5f2a14d89be7af160b13e841a0610",
    ("abba", "dense"): "ae78f3ac5971a98ce4b74f12df845106dd075ef9",
    ("abba", "dense-raw"): "9dc72b61fb830b2a6fdc9d69f945560b7adfb9ac",
    ("abba", "dense-cap2"): "da05bad4315dec89ae3f3e7efd93e6ca10d16085",
    (WORD_20, "sparse"): "3ef7315c10f98073740f7dae2d3b25f3c111b208",
    (WORD_20, "dense"): "ade95449a3ee9d763c7e1aac0a0ec64e27ed7a64",
    (WORD_20, "dense-raw"): "bd5921626ff50d7c42d7b802405649bc29a7d245",
    (WORD_20, "dense-cap2"): "07475d189ecd52ed87b9dd463c25ca11ee0dce6e",
}
TENSOR_FLAGS = {
    "sparse": [],
    "dense": ["--format", "dense"],
    "dense-raw": ["--format", "dense", "--norm", "none"],
    "dense-cap2": ["--format", "dense", "--nu-cap", "2"],
}


@pytest.mark.parametrize("word, form", list(TENSOR_SHA1), ids=[f"{w}-{f}" for w, f in TENSOR_SHA1])
def test_tensor_stdout_is_pinned(capsys, word, form):
    code, out, err = run(capsys, "tensor", "--word", word, *TENSOR_FLAGS[form])
    assert code == 0 and err == ""
    assert hashlib.sha1(out.encode()).hexdigest() == TENSOR_SHA1[word, form]


@pytest.mark.parametrize("form", ["sparse", "dense"])
def test_tensor_internal_value_error_exits_invariant(capsys, monkeypatch, form):
    def broken(*args):
        raise ValueError("channel axis of 1 cannot hold nu index 2")

    monkeypatch.setattr(combinatorics, "dense_counts", broken)
    monkeypatch.setattr(encoding, "dense_counts", broken)
    code, out, err = run(capsys, "tensor", "--word", "abba", *TENSOR_FLAGS[form])
    assert code == 2 and out == ""
    assert err == "error: invariant: internal error: channel axis of 1 cannot hold nu index 2\n"


def test_tensor_sparse_known_lines(capsys):
    _, out, _ = run(capsys, "tensor", "--word", "ab")
    lines = out.splitlines()
    assert "3 3 3 1" in lines  # the word produced once from its own pair
    assert "3 3 0 2" in lines
    assert "0 0 0 1" in lines


def test_tensor_dense_header_and_size(capsys):
    code, out, _ = run(capsys, "tensor", "--word", "aba", "--format", "dense", "--norm", "none")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "7 7 7"
    assert len(lines) == 1 + 7 * 7 * 7
    values = np.array([float(v) for v in lines[1:]])
    assert values.max() == 4  # empty-cell count of the full-word pair


def test_tensor_dense_respects_cap(capsys):
    _, out, _ = run(capsys, "tensor", "--word", "abcd", "--format", "dense", "--nu-cap", "1", "--norm", "none")
    cfg = EncodingConfig.for_length(4, nu_cap_len=1, normalization="none")
    assert out.splitlines()[0] == f"{cfg.pad_to} {cfg.pad_to} {channel_count(cfg)}"


def test_equiv_agreeing_pair(capsys):
    code, out, _ = run(capsys, "equiv", "--a", "aba", "--b", "cdc")
    assert code == 0
    assert out.strip() == "equal=true bijection=a->c,b->d agree=true"


def test_equiv_unrelated_pair(capsys):
    code, out, _ = run(capsys, "equiv", "--a", "aab", "--b", "abb", "--oracle")
    assert code == 0
    assert out.strip() == "equal=false bijection=none agree=true"


def test_equiv_pair_of_different_table_sizes(capsys):
    code, out, _ = run(capsys, "equiv", "--a", "ab", "--b", "aa")
    assert code == 0
    assert out.strip() == "equal=false bijection=none agree=true"


@pytest.mark.parametrize("word", ["ab", "aa", "aab", "abb", "aba", "cdc"])
def test_tensor_output_matches_the_flood_fill_oracle(capsys, word):
    _, expected = brute_map(word)
    _, out, _ = run(capsys, "tensor", "--word", word)
    assert out.splitlines() == [f"{l} {m} {v} {c}" for (l, m, v), c in sorted(expected.items())]
    _, out, _ = run(capsys, "tensor", "--word", word, "--format", "dense", "--norm", "none")
    cfg = EncodingConfig.for_length(len(word), normalization="none")
    dense = np.zeros((cfg.pad_to, cfg.pad_to, channel_count(cfg)))
    for triple, c in expected.items():
        dense[triple] = c
    assert out.splitlines() == [f"{cfg.pad_to} {cfg.pad_to} {channel_count(cfg)}"] + [f"{v:.9g}" for v in dense.ravel()]


def test_tensor_dense_layout(capsys):
    _, out, _ = run(capsys, "tensor", "--word", "ab", "--format", "dense", "--norm", "none")
    lines = out.splitlines()
    assert lines[0] == "4 4 4"
    assert len(lines) == 1 + 4 * 4 * 4
    flat = encode_dense("ab", EncodingConfig(word_length=2, pad_to=4, nu_cap_len=None, normalization="none")).ravel()
    assert lines[1:] == [f"{v:.9g}" for v in flat]


def test_gradcheck_passes(capsys):
    code, out, _ = run(capsys, "gradcheck", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all("PASS" in line for line in lines)


def test_unknown_flag_exits_usage(capsys):
    code, _, err = run(capsys, "tensor", "--word", "ab", "--frobnicate")
    assert code == 1
    assert err.startswith("error: usage:")


def test_missing_data_file_exits_io(tmp_path, capsys):
    code, _, err = run(
        capsys, "train", "--task", "palindrome", "--data", str(tmp_path / "nope"), "--epochs", "1", "--out", str(tmp_path / "run")
    )
    assert code == 3
    assert err.startswith("error: io:")


def test_bad_word_symbol_in_dataset(tmp_path, capsys):
    data = tmp_path / "d"
    data.mkdir()
    (data / "train.tsv").write_text("1\tabc\nX\tddd\n")
    (data / "val.tsv").write_text("1\tabc\n")
    code, _, err = run(capsys, "train", "--task", "palindrome", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "r"))
    assert code == 3 and "line 2" in err


def test_word_symbol_outside_alphabet_in_dataset_exits_io(tmp_path, capsys):
    data = tmp_path / "d"
    data.mkdir()
    (data / "train.tsv").write_text("1\tabc\n0\tabA\n")
    (data / "val.tsv").write_text("1\tabc\n")
    code, _, err = run(capsys, "train", "--task", "palindrome", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "r"))
    assert code == 3
    assert "train.tsv: line 2" in err and "'A'" in err


@pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.001"])
def test_train_rejects_non_finite_or_non_positive_lr(tmp_path, capsys, lr):
    data = tmp_path / "d"
    data.mkdir()
    (data / "train.tsv").write_text("1\tabccba\n0\tabcdef\n")
    (data / "val.tsv").write_text("1\tabccba\n")
    out = tmp_path / "r"
    code, _, err = run(capsys, "train", "--task", "palindrome", "--data", str(data), "--epochs", "1", "--lr", lr, "--out", str(out))
    assert code == 1 and "learning rate" in err
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--epochs", "-3", "epochs"),
        ("--stop-at-val-acc", "nan", "stop-at-val-acc"),
        ("--stop-at-val-acc", "1.5", "stop-at-val-acc"),
        ("--stop-at-val-acc", "-0.1", "stop-at-val-acc"),
    ],
)
def test_train_rejects_negative_epochs_and_a_stop_accuracy_outside_0_1(tmp_path, capsys, flag, value, message):
    data = tmp_path / "d"
    data.mkdir()
    (data / "train.tsv").write_text("1\tabccba\n0\tabcdef\n")
    (data / "val.tsv").write_text("1\tabccba\n")
    out = tmp_path / "r"
    epochs = [] if flag == "--epochs" else ["--epochs", "1"]
    code, _, err = run(capsys, "train", "--task", "palindrome", "--data", str(data), *epochs, flag, value, "--out", str(out))
    assert code == 1 and err.startswith("error: usage:") and message in err
    assert not (out / "model.ckpt").exists()


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    data, out = root / "data", root / "run"
    assert main(["gen", "palindromes", "--len", "6", "--train", "24", "--val", "8", "--test", "8", "--seed", "3", "--out", str(data)]) == 0
    assert (
        main(
            [
                "train", "--task", "palindrome", "--data", str(data), "--epochs", "2",
                "--seed", "4", "--out", str(out), "--batch-size", "8", "--steps-per-epoch", "4",
            ]
        )
        == 0
    )
    return data, out


def test_train_outputs(mini_run):
    _, out = mini_run
    assert (out / "model.ckpt").exists()
    csv = (out / "metrics.csv").read_text().splitlines()
    assert csv[0] == "epoch,train_loss,train_acc,val_acc"
    assert len(csv) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "train" and manifest["epochs_run"] == 2
    assert manifest["peak_rss_mb"] > 0 and manifest["minor_page_faults"] > 0
    assert manifest["encoder_cache"]["patterns"] > 0 and manifest["encoder_cache"]["cache_mb"] > 0
    model = load_checkpoint(out / "model.ckpt")
    assert model.meta["task"] == "palindrome"
    for field in ("peak_rss_mb", "minor_page_faults", "cache", "val_by_pattern"):
        assert field not in json.dumps(model.meta)


def test_train_manifest_splits_val_accuracy_by_seen_pattern(mini_run):
    data, out = mini_run
    split = json.loads((out / "manifest.json").read_text())["val_by_pattern"]
    val_words = (data / "val.tsv").read_text().splitlines()
    last_val_acc = float((out / "metrics.csv").read_text().splitlines()[-1].split(",")[-1])
    assert split["seen"]["words"] + split["unseen"]["words"] == len(val_words)
    assert split["seen"]["correct"] + split["unseen"]["correct"] == round(last_val_acc * len(val_words))
    for group in split.values():
        assert set(group) == {"words", "correct", "accuracy"}
        assert group["accuracy"] == (group["correct"] / group["words"] if group["words"] else None)
    assert "seen" not in (out / "metrics.csv").read_text()


def test_train_manifest_split_equals_one_recomputed_from_the_checkpoint(mini_run):
    data, out = mini_run
    model = load_checkpoint(out / "model.ckpt")
    train_ds = read_dataset(data / "train.tsv", task="palindrome", split="train")
    val_ds = read_dataset(data / "val.tsv", task="palindrome", split="val")
    probs = predict_probs(model, val_ds, encoder_for(model, "palindrome"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["val_by_pattern"] == accuracy_by_pattern(probs, train_ds, val_ds)


def test_train_without_epochs_splits_the_untrained_models_val_accuracy(mini_run, tmp_path, capsys):
    data, _ = mini_run
    out = tmp_path / "zero"
    code, _, _ = run(capsys, "train", "--task", "palindrome", "--data", str(data), "--epochs", "0", "--seed", "4", "--out", str(out))
    assert code == 0 and (out / "metrics.csv").read_text() == "epoch,train_loss,train_acc,val_acc\n"
    split = json.loads((out / "manifest.json").read_text())["val_by_pattern"]
    assert split["seen"]["words"] + split["unseen"]["words"] == len((data / "val.tsv").read_text().splitlines())


def test_eval_prints_accuracy(mini_run, capsys):
    data, out = mini_run
    code, text, _ = run(capsys, "eval", "--checkpoint", str(out / "model.ckpt"), "--data", str(data / "val.tsv"))
    assert code == 0
    assert text.startswith("accuracy=")
    manifest = json.loads((out / "manifest-eval.json").read_text())
    assert manifest["peak_rss_mb"] > 0 and manifest["minor_page_faults"] > 0


def test_eval_permuted_equals_clean_for_combinatorial(mini_run, capsys):
    data, out = mini_run
    _, clean, _ = run(capsys, "eval", "--checkpoint", str(out / "model.ckpt"), "--data", str(data / "val.tsv"))
    _, permuted, _ = run(
        capsys, "eval", "--checkpoint", str(out / "model.ckpt"), "--data", str(data / "val.tsv"), "--permute-seed", "5"
    )
    assert clean == permuted


def _eval_edited_header(capsys, mini_run, tmp_path, edit):
    data, out = mini_run
    magic, header, blob = (out / "model.ckpt").read_bytes().split(b"\n", 2)
    fields = json.loads(header)
    edit(fields)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(magic + b"\n" + json.dumps(fields).encode("utf-8") + b"\n" + blob)
    return run(capsys, "eval", "--checkpoint", str(bad), "--data", str(data / "val.tsv"))


def test_eval_checkpoint_header_without_specs_exits_io(mini_run, tmp_path, capsys):
    code, text, err = _eval_edited_header(capsys, mini_run, tmp_path, lambda h: h.pop("specs"))
    assert code == 3 and text == ""
    assert err.startswith("error: io:") and "'specs'" in err and "Traceback" not in err


def test_eval_checkpoint_with_empty_meta_exits_io(mini_run, tmp_path, capsys):
    code, text, err = _eval_edited_header(capsys, mini_run, tmp_path, lambda h: h.update(meta={}))
    assert code == 3 and text == ""
    assert err.startswith("error: io:") and "'encoding'" in err and "Traceback" not in err


def test_eval_checkpoint_with_unknown_task_exits_io(mini_run, tmp_path, capsys):
    code, text, err = _eval_edited_header(capsys, mini_run, tmp_path, lambda h: h["meta"].update(task="anagram"))
    assert code == 3 and text == ""
    assert err.startswith("error: io:") and "unknown task 'anagram'" in err and "Traceback" not in err


def test_eval_checkpoint_with_nan_parameter_exits_io(mini_run, tmp_path, capsys):
    data, out = mini_run
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes((out / "model.ckpt").read_bytes()[:-4] + np.float32(np.nan).tobytes())
    code, text, err = run(capsys, "eval", "--checkpoint", str(bad), "--data", str(data / "val.tsv"))
    assert code == 3 and text == ""
    assert err.startswith("error: io:") and "non-finite" in err and "Traceback" not in err


def test_gen_passwords_shorter_than_a_strong_password_is_rejected(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "passwords", "--len", "13", "--train", "2", "--val", "1", "--test", "1", "--out", str(tmp_path / "d"))
    assert code == 1 and ">= 14" in err and "Traceback" not in err


def test_gen_passwords_longer_than_a_weak_password_is_rejected(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "passwords", "--len", "53", "--train", "2", "--val", "1", "--test", "1", "--out", str(tmp_path / "d"))
    assert code == 1 and "<= 52" in err and "Traceback" not in err
    code, _, _ = run(capsys, "gen", "passwords", "--len", "52", "--train", "2", "--val", "1", "--test", "1", "--out", str(tmp_path / "d"))
    assert code == 0
    assert all(len(line) == 2 + 52 for line in (tmp_path / "d" / "train.tsv").read_text().splitlines())


@pytest.mark.parametrize("name", ["train.tsv", "val.tsv"])
def test_train_dataset_not_utf8_exits_io(tmp_path, capsys, name):
    data = tmp_path / "d"
    data.mkdir()
    (data / "train.tsv").write_bytes(b"1\tabba\n0\tabcd\n")
    (data / "val.tsv").write_bytes(b"1\tabba\n")
    (data / name).write_bytes(b"0\tabcd\n1\tab\xffba\n")
    code, _, err = run(capsys, "train", "--task", "palindrome", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "r"))
    assert code == 3 and f"{name}: line 2: not valid UTF-8" in err and "Traceback" not in err


def test_eval_dataset_not_utf8_exits_io(mini_run, tmp_path, capsys):
    _, out = mini_run
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"1\tab\xffba\n")
    code, text, err = run(capsys, "eval", "--checkpoint", str(out / "model.ckpt"), "--data", str(bad))
    assert code == 3 and text == ""
    assert err.startswith("error: io:") and "bad.tsv: line 1: not valid UTF-8" in err


@pytest.mark.parametrize("model", ["combinatorial", "char"])
def test_eval_rejects_dataset_of_another_word_length(tmp_path, capsys, model):
    small, large = tmp_path / "d6", tmp_path / "d8"
    for n, data in ((6, small), (8, large)):
        assert main(["gen", "palindromes", "--len", str(n), "--train", "8", "--val", "4", "--test", "4", "--out", str(data)]) == 0
    out = tmp_path / "run"
    argv = ["train", "--task", "palindrome", "--data", str(small), "--epochs", "1", "--model", model, "--out", str(out)]
    assert main(argv + ["--batch-size", "8", "--steps-per-epoch", "1"]) == 0
    capsys.readouterr()
    code, text, err = run(capsys, "eval", "--checkpoint", str(out / "model.ckpt"), "--data", str(large / "val.tsv"))
    assert code == 3 and text == ""
    assert err.startswith("error: io:") and "Traceback" not in err
    assert str(large / "val.tsv") in err and str(out / "model.ckpt") in err
    assert "length 8" in err and "length 6" in err


@pytest.mark.parametrize("model", ["combinatorial", "char"])
def test_train_rejects_a_val_split_of_another_word_length_before_training(tmp_path, capsys, model):
    data, other = tmp_path / "d6", tmp_path / "d8"
    for n, path in ((6, data), (8, other)):
        assert main(["gen", "palindromes", "--len", str(n), "--train", "8", "--val", "4", "--test", "4", "--out", str(path)]) == 0
    (data / "val.tsv").write_bytes((other / "val.tsv").read_bytes())
    out = tmp_path / "run"
    capsys.readouterr()
    argv = ["train", "--task", "palindrome", "--data", str(data), "--epochs", "1", "--model", model, "--out", str(out)]
    code, text, err = run(capsys, *argv, "--batch-size", "8", "--steps-per-epoch", "1")
    assert code == 3 and text == ""
    assert err.startswith("error: io:") and str(data / "val.tsv") in err and "Traceback" not in err
    assert "length 8" in err and "length 6" in err
    assert not (out / "model.ckpt").exists() and not (out / "metrics.csv").exists()


# Bytes that are not UTF-8 reach argv as lone surrogates: b"a\xff" as "a\udcff", an encoded surrogate as three.
@pytest.mark.parametrize(
    "argv, at",
    [
        (["tensor", "--word", "a\udcff"], 2),
        (["tensor", "--word", "a\udcff", "--format", "dense"], 2),
        (["tensor", "--word", "\udced\udca0\udc80"], 1),
        (["equiv", "--a", "a\udcff", "--b", "ab"], 2),
        (["equiv", "--a", "ab", "--b", "ab\udcff", "--oracle"], 3),
    ],
    ids=["tensor", "tensor-dense", "tensor-surrogate", "equiv-a", "equiv-b-oracle"],
)
def test_word_that_is_not_utf8_exits_usage(capsys, argv, at):
    code, text, err = run(capsys, *argv)
    assert code == 1 and text == ""
    assert err == f"error: usage: word is not valid UTF-8 at character {at}\n"


@settings(max_examples=60)
@given(bad=damaged(b"1\tabccba\n0\tabcdef\n1\tqwwwwq\n0\txyzzyq\n"))
def test_eval_on_a_damaged_dataset_exits_io_or_evaluates(mini_run, bad):
    _, out = mini_run
    path = out.parent / "damaged.tsv"
    path.write_bytes(bad)
    code = main(["eval", "--checkpoint", str(out / "model.ckpt"), "--data", str(path), "--out", str(out.parent / "fuzz")])
    try:
        ds = read_dataset(path, task="palindrome")
    except DatasetFormatError:
        assert code == 3
        return
    assert code == (0 if ds.word_length == 6 else 3)


def test_eval_char_checkpoint_with_wrong_word_length_exits_io(mini_run, tmp_path, capsys):
    data, _ = mini_run
    ckpt = tmp_path / "char.ckpt"
    model = build_char_cnn(6, 26, seed=1)
    model.meta.update(task="palindrome", word_length=7)
    save_checkpoint(model, ckpt)
    code, text, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data / "val.tsv"))
    assert code == 3 and text == ""
    assert err.startswith("error: io:") and "'word_length'/'alphabet_size'" in err and "Traceback" not in err


def test_eval_of_a_char_checkpoint_ignores_an_encoding_in_its_meta(tmp_path, capsys):
    # Pattern twins (abccba/xyzzyx, abcabc/qrsqrs, ...) differ in their letters, which the char model reads.
    data = tmp_path / "twins.tsv"
    data.write_text("1\tabccba\n1\txyzzyx\n0\tabcabc\n0\tqrsqrs\n1\taabbaa\n1\tkkmmkk\n0\tabcdef\n0\tuvwxyz\n")
    model = build_char_cnn(6, 26, seed=3)
    model.meta["task"] = "palindrome"
    plain, extra = tmp_path / "plain.ckpt", tmp_path / "extra.ckpt"
    save_checkpoint(model, plain)
    model.meta["encoding"] = asdict(EncodingConfig.for_length(6))
    save_checkpoint(model, extra)
    outputs = [run(capsys, "eval", "--checkpoint", str(path), "--data", str(data)) for path in (plain, extra)]
    assert outputs[0] == outputs[1] == (0, "accuracy=0.625000\n", "")
    ds = read_dataset(data, task="palindrome")
    probs = [predict_probs(m, ds, encoder_for(m, "palindrome")) for m in map(load_checkpoint, (plain, extra))]
    assert probs[0].tobytes() == probs[1].tobytes()
    assert probs[0][0] != probs[0][1]  # for contrast: the twins abccba and xyzzyx get their own rows


def test_eval_of_a_char_checkpoint_whose_alphabet_is_not_its_tasks_exits_io(tmp_path, capsys):
    data = tmp_path / "val.tsv"
    write_dataset(gen_password_dataset((2, 2, 2), seed=1, n=15)[1], data)
    model = build_char_cnn(15, 26, seed=1)
    model.meta["task"] = "password"
    ckpt = tmp_path / "char.ckpt"
    save_checkpoint(model, ckpt)
    code, text, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(tmp_path))
    assert code == 3 and text == ""
    assert err.startswith(f"error: io: {ckpt}: corrupted header:") and "'alphabet_size'" in err
    assert len(err.splitlines()) == 1


def test_eval_of_a_checkpoint_of_an_unknown_model_kind_exits_io(mini_run, tmp_path, capsys):
    code, text, err = _eval_edited_header(capsys, mini_run, tmp_path, lambda h: h["meta"].update(model="foo"))
    assert code == 3 and text == ""
    assert err == f"error: io: {tmp_path / 'bad.ckpt'}: corrupted header: meta names an unknown model 'foo'\n"


def child_cli(address_space: int | None = None) -> tuple[list[str], dict]:
    """The argv prefix that runs the CLI in a child process, and its subprocess keyword arguments.

    The child imports this checkout's src with one BLAS thread, and
    ``address_space``, if given, caps its address space (RLIMIT_AS) in bytes.
    """
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cli = [sys.executable, "-c", "import sys; from combword.cli import main; sys.exit(main())"]
    return cli, {"env": env, "preexec_fn": cap_address_space if address_space else None}


def test_train_on_an_input_too_large_for_memory_exits_usage(tmp_path):
    # At n=100 the tensor model's first dense layer is 6 GB; the child's address space is capped at 2 GiB.
    cli, child = child_cli(2 << 30)
    procs = [
        subprocess.run(cli + argv, **child, capture_output=True, text=True, timeout=600)
        for argv in (
            ["gen", "palindromes", "--len", "100", "--train", "2", "--val", "2", "--test", "2", "--out", str(tmp_path / "d")],
            ["train", "--task", "palindrome", "--data", str(tmp_path / "d"), "--epochs", "1", "--out", str(tmp_path / "r")],
        )
    ]
    assert procs[0].returncode == 0, procs[0].stderr
    assert procs[1].returncode == 1 and procs[1].stdout == ""
    assert procs[1].stderr.startswith("error: usage: memory ran out") and len(procs[1].stderr.splitlines()) == 1
    assert "Traceback" not in procs[1].stderr


def test_tensor_of_a_40_letter_word_fits_the_address_space_of_its_map(tmp_path):
    """Printed a row at a time, the map of a 40-letter word over 8 letters (4.8M lines) fits in 512 MiB.

    The map alone peaks near 75 MB of resident memory, interpreter
    included; holding every line's text before printing peaked near 1 GB.
    """
    word = "efafdhaadfahfdacfegfgahacfbaeagcfbbgbgbb"  # np.random.default_rng(40).integers(0, 8, 40) over a..h
    cli, child = child_cli(512 << 20)
    out = tmp_path / "out.txt"
    with out.open("wb") as f:
        proc = subprocess.run(cli + ["tensor", "--word", word], **child, stdout=f, stderr=subprocess.PIPE, timeout=30)
    assert proc.returncode == 0 and proc.stderr == b""
    assert hashlib.sha1(out.read_bytes()).hexdigest() == "aa35701d1655c438249862829d92ab84b79e8292"


@pytest.mark.parametrize("form", ["sparse", "dense"])
def test_tensor_into_a_pipe_closed_after_its_first_line_exits_io(form):
    cli, child = child_cli()
    proc = subprocess.Popen(cli + ["tensor", "--word", WORD_20, *TENSOR_FLAGS[form]], **child, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1].decode()
    finally:
        proc.kill()
    assert first == {"sparse": b"0 0 0 1\n", "dense": b"211 211 58\n"}[form]
    assert proc.returncode == 3 and err.startswith("error: io:") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("first", ["relu", "pool"])
def test_eval_of_a_tensor_checkpoint_whose_first_layer_is_no_conv(tmp_path, capsys, first):
    data = tmp_path / "d"
    assert main(["gen", "palindromes", "--len", "4", "--train", "4", "--val", "6", "--test", "2", "--seed", "2", "--out", str(data)]) == 0
    cfg = EncodingConfig.for_length(4)
    specs = [relu() if first == "relu" else pool(2, 2), flatten(), dense(1), sigmoid()]
    meta = {"model": "combinatorial", "encoding": asdict(cfg), "task": "palindrome"}
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(Network(specs, (cfg.pad_to, cfg.pad_to, channel_count(cfg)), seed=3, meta=meta), ckpt)
    capsys.readouterr()
    code, text, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data / "val.tsv"), "--out", str(tmp_path / "e"))
    assert code == 0 and "Traceback" not in err
    ds = read_dataset(data / "val.tsv", task="palindrome")
    probs = load_checkpoint(ckpt).forward(np.asarray(BatchEncoder(cfg)(ds.words())), train=False)
    assert text == f"accuracy={np.mean((probs > 0.5) == np.asarray(ds.labels())):.6f}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "passwords", "--len", "15", "--train", "0", "--val", "1", "--test", "1"], "at least one item"),
        (["tensor", "--word", "abc", "--format", "dense", "--nu-cap", "0"], "nu_cap_len"),
        (["tensor", "--word", "abc", "--nu-cap", "0"], "nu_cap_len"),
        (["tensor", "--word", ""], "empty word"),
        (["tensor", "--word", "abba", "--nu-cap", "1"], "--format sparse takes no --nu-cap"),
        (["tensor", "--word", "abba", "--norm", "none"], "--format sparse takes no --norm"),
        (["tensor", "--word", "abba", "--format", "sparse", "--norm", "log"], "--format sparse takes no --norm"),
        (["equiv", "--a", "", "--b", "ab"], "empty word"),
        (["equiv", "--a", "abcdefghi", "--b", "bcdefghia", "--oracle"], "at most 8 distinct letters"),
        (["train", "--task", "palindrome", "--epochs", "1", "--model", "char"], "word length >= 4"),
        (["train", "--task", "palindrome", "--epochs", "1", "--batch-size", "0"], "batch_size"),
        (["train", "--task", "palindrome", "--epochs", "1", "--model", "char", "--nu-cap", "0"], "nu_cap_len"),
        (["eval", "--permute-seed", "-1"], "seed must be an integer >= 0"),
        (["gradcheck", "--seed", "-2"], "seed must be an integer >= 0"),
    ],
    ids=[
        "gen",
        "tensor-cap",
        "tensor-sparse-cap",
        "tensor-word",
        "tensor-sparse-nu-cap",
        "tensor-sparse-norm-none",
        "tensor-sparse-norm-log",
        "equiv-word",
        "equiv-oracle",
        "train-char",
        "train-config",
        "train-char-cap",
        "eval",
        "gradcheck",
    ],
)
def test_each_subcommand_reports_a_value_it_cannot_take_as_usage(mini_run, tmp_path, capsys, argv, message):
    data, out = mini_run
    (tmp_path / "train.tsv").write_text("1\taba\n0\tabc\n")
    (tmp_path / "val.tsv").write_text("1\taba\n")
    where = {
        "gen": ["--out", str(tmp_path / "g")],
        "train": ["--data", str(tmp_path if "char" in argv else data), "--out", str(tmp_path / "r")],
        "eval": ["--checkpoint", str(out / "model.ckpt"), "--data", str(data / "val.tsv"), "--out", str(tmp_path / "e")],
    }.get(argv[0], [])
    code, _, err = run(capsys, *argv, *where)
    assert code == 1 and err.startswith("error: usage:") and message in err, err
    assert "Traceback" not in err and not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_internal_value_error_exits_invariant_in_one_line(mini_run, tmp_path, capsys, monkeypatch, command):
    data, out = mini_run

    def broken(self, x, train=True):
        raise ValueError("input shape (1, 2)\ndoes not match")

    monkeypatch.setattr(Network, "forward", broken)
    if command == "train":
        argv = ["train", "--task", "palindrome", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "r")]
    else:
        argv = ["eval", "--checkpoint", str(out / "model.ckpt"), "--data", str(data / "val.tsv"), "--out", str(tmp_path / "e")]
    code, text, err = run(capsys, *argv)
    assert code == 2 and text == ""
    assert err == "error: invariant: internal error: input shape (1, 2) does not match\n"


def test_train_rerun_byte_identical(mini_run, tmp_path, capsys):
    data, out = mini_run
    out2 = tmp_path / "run2"
    code, _, _ = run(
        capsys,
        "train", "--task", "palindrome", "--data", str(data), "--epochs", "2",
        "--seed", "4", "--out", str(out2), "--batch-size", "8", "--steps-per-epoch", "4",
    )
    assert code == 0
    assert (out2 / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()
    assert (out2 / "model.ckpt").read_bytes() == (out / "model.ckpt").read_bytes()


def test_train_checkpoint_identical_across_blas_thread_counts(tmp_path, capsys):
    # BLAS fixes its thread count when numpy loads, so each count trains in its own process.
    data = tmp_path / "data"
    assert main(["gen", "palindromes", "--len", "8", "--train", "100", "--val", "50", "--test", "50", "--seed", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    src = str(Path(__file__).resolve().parent.parent / "src")
    ckpts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [
            sys.executable, "-c", "import sys; from combword.cli import main; sys.exit(main())",
            "train", "--task", "palindrome", "--data", str(data), "--epochs", "2",
            "--steps-per-epoch", "5", "--seed", "4", "--out", str(out),
        ]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        ckpts.append((out / "model.ckpt").read_bytes())
    assert ckpts[0] == ckpts[1]


def test_char_model_cli_trains(tmp_path, capsys):
    data = tmp_path / "d"
    assert main(["gen", "palindromes", "--len", "6", "--train", "16", "--val", "4", "--test", "4", "--seed", "6", "--out", str(data)]) == 0
    out = tmp_path / "charrun"
    code = main(
        [
            "train", "--task", "palindrome", "--data", str(data), "--epochs", "1", "--model", "char",
            "--seed", "2", "--out", str(out), "--batch-size", "8", "--steps-per-epoch", "2",
        ]
    )
    capsys.readouterr()
    assert code == 0
    model = load_checkpoint(out / "model.ckpt")
    assert model.meta["model"] == "char"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["peak_rss_mb"] > 0 and manifest["minor_page_faults"] > 0 and "encoder_cache" not in manifest
    val_words = len((data / "val.tsv").read_text().splitlines())
    assert manifest["val_by_pattern"]["seen"]["words"] + manifest["val_by_pattern"]["unseen"]["words"] == val_words
