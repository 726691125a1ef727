"""scripts/run.py, run as a user would: one epoch of the desk and robustness presets."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_run_palindrome_desk_one_epoch(tmp_path):
    argv = [sys.executable, str(ROOT / "scripts" / "run.py"), "palindrome-desk", "--epochs", "1", "--out", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    clean = lines[lines.index("clean validation:") + 1]
    permuted = lines[lines.index("alphabet-permuted validation:") + 1]
    assert clean.startswith("accuracy=") and clean == permuted


def test_run_robustness_one_epoch(tmp_path):
    argv = [sys.executable, str(ROOT / "scripts" / "run.py"), "robustness", "--epochs", "1", "--out", str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = {line.split(":")[0]: line for line in proc.stdout.splitlines() if line.startswith(("combinatorial:", "char:"))}
    assert set(lines) == {"combinatorial", "char"}
    for name, line in lines.items():
        assert re.fullmatch(rf"{name}: clean=\d\.\d{{4}} permuted=\d\.\d{{4}} delta=[+-]\d\.\d{{4}}", line), line
    assert lines["combinatorial"].endswith(" delta=+0.0000")


@pytest.mark.parametrize("codes, expected", [((0, 0), 0), ((3, 0), 3), ((0, 4), 4), ((3, 4), 3)])
def test_run_palindrome_desk_returns_the_first_failing_eval_code(monkeypatch, capsys, tmp_path, codes, expected):
    spec = importlib.util.spec_from_file_location("run_script", ROOT / "scripts" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    evals = iter(codes)
    calls = []

    def cli(argv):
        calls.append(argv[0])
        return next(evals) if argv[0] == "eval" else 0

    monkeypatch.setattr(run, "cli", cli)
    monkeypatch.setattr(sys, "argv", ["run.py", "palindrome-desk", "--epochs", "1", "--out", str(tmp_path)])
    assert run.main() == expected
    assert calls == ["gen", "train", "eval", "eval"]  # the permuted eval runs after a failed clean one too
