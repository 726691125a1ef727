"""Smoke test of the benchmark at a tiny size (length-5 palindromes, two rounds).

    python3 -m pytest benchmark
"""

import fnmatch
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import bench  # noqa: E402
from combword.datasets import PALINDROME_ALPHABET, LabeledDataset  # noqa: E402
from combword.words import Word  # noqa: E402

TINY = bench.Workload("palindrome", 5, rounds=2, epochs=2, steps=2, train_words=32, val_words=32, eval_words=32, pairs=8)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(monkeypatch, capsys, tmp_path, trace):
    monkeypatch.setitem(bench.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    assert bench.main(["--workload", "tiny", "--seed", "3", "--seconds", str(bench.REF_SECONDS), "--trace", str(trace)], 0.1) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench.load_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines[:-1])


def test_mismatched_permuted_split_counts_as_failed(tmp_path):
    st = bench.set_up(TINY, 3)
    # A non-injective relabeling: every word becomes "aaaaa", so most outputs must change.
    st.permuted = LabeledDataset(
        [(Word("a" * TINY.n, PALINDROME_ALPHABET), y) for _, y in st.permuted.items], "palindrome", "test", 3, TINY.n
    )
    run, _ = bench.run_timed(st, 3, tmp_path)
    assert run.failures["permuted_probs_differ"] > 0
    assert run.failures["theorem"] > 0
    assert 0 < sum(run.failures.values()) <= run.attempted


def test_every_per_layer_metric_has_a_prediction():
    rules = json.loads((BENCH / "predictions.json").read_text())["per_layer"]
    for m in bench.load_spec()["per_layer"]:
        assert any(fnmatch.fnmatchcase(m["name"], pat) for rule in rules for pat in rule["metrics"]), m["name"]
