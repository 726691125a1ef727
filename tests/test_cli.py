import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from combword.checkpoint import load_checkpoint, save_checkpoint
from combword.cli import main
from combword.combinatorics import combinatorics_map
from combword.encoding import EncodingConfig, channel_count
from combword.network import build_char_cnn


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


def test_tensor_sparse_matches_library(capsys):
    code, out, _ = run(capsys, "tensor", "--word", "ab", "--format", "sparse")
    assert code == 0
    assert out.splitlines() == combinatorics_map("ab").sparse_lines()


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
    model = load_checkpoint(out / "model.ckpt")
    assert model.meta["task"] == "palindrome"


def test_eval_prints_accuracy(mini_run, capsys):
    data, out = mini_run
    code, text, _ = run(capsys, "eval", "--checkpoint", str(out / "model.ckpt"), "--data", str(data / "val.tsv"))
    assert code == 0
    assert text.startswith("accuracy=")
    assert (out / "manifest-eval.json").exists()


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


def test_eval_char_checkpoint_with_wrong_word_length_exits_io(mini_run, tmp_path, capsys):
    data, _ = mini_run
    ckpt = tmp_path / "char.ckpt"
    model = build_char_cnn(6, 26, seed=1)
    model.meta.update(task="palindrome", word_length=7)
    save_checkpoint(model, ckpt)
    code, text, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(data / "val.tsv"))
    assert code == 3 and text == ""
    assert err.startswith("error: io:") and "'word_length'/'alphabet_size'" in err and "Traceback" not in err


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
