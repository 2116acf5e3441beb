"""The benchmark checks every run's outputs against the reference miner and
the brute-force rasterizer in ``perfbench/worker.py``, and checks the exits
and the rank CSV of its commands. A change that breaks those checks (say, a
lexicon storage the reference miner cannot read) fails here, not only in a
benchmark run."""

import json
import shutil
import sys

import numpy as np

from conftest import ALIASES, FIG3, GOLDEN, WORDNET_DIR, load_perfbench


def test_output_checks_pass_on_fig3(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the worker prepends its own
    worker = load_perfbench("worker")
    # the inputs laid out as the worker reads them
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    shutil.copytree(WORDNET_DIR, inputs / "wordnet")
    shutil.copy(ALIASES, inputs / "wordnet" / "aliases.txt")
    for name in ("regions.json", "objects.json", "qa.json"):
        shutil.copy(FIG3 / name, inputs / name)
    noise = np.random.default_rng(31)
    # the reference maps: the golden fig3 maps with noise, so that no map is constant
    with open(inputs / "reference_maps.ndjson", "w") as fp:
        for line in (GOLDEN / "fig3_maps.ndjson").read_text().splitlines():
            row = json.loads(line)
            row["values"] = (np.array(row["values"])
                             + noise.uniform(0, 1e-3, len(row["values"]))).tolist()
            fp.write(json.dumps(row) + "\n")
    out.mkdir()
    workload = worker.Pipeline(inputs, out)
    record = {"exits": {}, "errors": {}}  # one pass: mine, rasterize --grid 14 14, eval-rank
    for name, argv in workload.commands():
        record["exits"][name], record["errors"][name] = worker.run_command(argv)
    assert set(record["exits"].values()) == {0}, record["errors"]
    assert worker.check_exits(workload, [record]) is None
    assert worker.check_rank_csv(workload) is None
    rng = np.random.default_rng(7)
    assert worker.check_oracle_mine(workload, rng) is None
    assert worker.check_glimpse_sums(workload, workload.labels_path) is None
    assert worker.check_maps(workload, workload.labels_path, rng) is None
