"""scripts/run.py, run as a user would: one epoch of the desk and robustness presets."""

import re
import subprocess
import sys
from pathlib import Path

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
