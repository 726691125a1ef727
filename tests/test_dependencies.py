"""The package stays numpy-only: importing it loads nothing outside the standard library and numpy."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Imports every combword module in a fresh interpreter and prints the top-level
# names of the modules that appeared, outside the standard library.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import combword
for info in pkgutil.iter_modules(combword.__path__):
    importlib.import_module("combword." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names))))
"""


def test_every_module_imports_only_the_standard_library_and_numpy():
    proc = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "src")], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) <= {"combword", "numpy"}
