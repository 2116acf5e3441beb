"""The benchmark checks every run's outputs against the reference miner and
the brute-force rasterizer in ``perfbench/worker.py``. A change that breaks
those checks (say, a lexicon storage the reference miner cannot read) fails
here, not only in a benchmark run."""

import shutil
import sys

import numpy as np

from conftest import ALIASES, FIG3, WORDNET_DIR, load_perfbench


def test_output_checks_pass_on_fig3(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker prepends its own
    worker = load_perfbench("worker")
    # the inputs laid out as the worker reads them
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    shutil.copytree(WORDNET_DIR, inputs / "wordnet")
    shutil.copy(ALIASES, inputs / "wordnet" / "aliases.txt")
    for name in ("regions.json", "objects.json", "qa.json"):
        shutil.copy(FIG3 / name, inputs / name)
    out.mkdir()
    workload = worker.Pipeline(inputs, out)
    for _, argv in workload.commands()[:2]:  # mine, then rasterize --grid 14 14
        code, err = worker.run_command(argv)
        assert code == 0, err
    rng = np.random.default_rng(7)
    assert worker.check_oracle_mine(workload, rng) is None
    assert worker.check_glimpse_sums(workload, workload.labels_path) is None
    assert worker.check_maps(workload, workload.labels_path, rng) is None
