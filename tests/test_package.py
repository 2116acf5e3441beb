"""The package adds nothing to the import of its modules: each name is
imported from the module that defines it, and the modules that need no
numpy load none. README's library example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SCRIPT = """
import sys
import vgmine.records, vgmine.dataset, vgmine.lexicon, vgmine.miner
assert "numpy" not in sys.modules, "numpy loaded"
from vgmine import cli, miner, toymodel
assert cli.main and miner.mine and toymodel.train
"""


def test_numpy_free_modules_import_without_numpy():
    result = subprocess.run([sys.executable, "-c", SCRIPT],
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs_from_the_repository_root():
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    check = "assert [g.shape for g in stack.glimpses] == [(14, 14)] * 2\n"
    result = subprocess.run([sys.executable, "-c", example + check], cwd=ROOT,
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
