"""Tests of the benchmark itself (not of vgmine).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _generate(workload: str, seed: int, out: Path) -> None:
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out)], check=True, cwd=ROOT)


def _tree(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def _measure(workload: str, trace: bool, inputs: Path | None = None, seconds: float = 1.0):
    return run.measure(workload, 5, seconds, trace, time.monotonic() + 170, inputs=inputs)


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    _generate(workload, 3, tmp_path / "a")
    _generate(workload, 3, tmp_path / "b")
    _generate(workload, 4, tmp_path / "c")
    first = _tree(tmp_path / "a")
    assert first and first == _tree(tmp_path / "b")
    assert first != _tree(tmp_path / "c")


@pytest.mark.parametrize("workload", ["pipeline_vg", "maps_eval"])
def test_traced_and_untraced_runs_agree(workload, tmp_path):
    _generate(workload, 5, tmp_path)
    plain = _measure(workload, False, tmp_path)
    traced = _measure(workload, True, tmp_path)
    for result in (plain, traced):
        assert all(check["ok"] for check in result["checks"]), result["checks"]
    fingerprints = {json.dumps(p["fingerprints"], sort_keys=True)
                    for p in plain["passes"] + traced["passes"]}
    assert len(fingerprints) == 1

    assert set(run.end_to_end(plain)) == {m["name"] for m in BENCHMARK["end_to_end"]}
    layers = run.per_layer(traced)
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert {name: unit for name, (_, unit) in layers.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert layers["cli.rasterize_s"][0] > 0
    assert 0 < layers["trace.self_share"][0] <= 1


def _truncate_last_line(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) - 40], encoding="utf-8")


@pytest.mark.parametrize("workload, corrupt", [("maps_eval", "labels.ndjson"),
                                               ("maps_eval", "qa.json"),
                                               ("pipeline_vg", "regions.json"),
                                               ("pipeline_vg", "qa.json")])
def test_corrupted_input_is_counted_not_fatal(workload, corrupt, tmp_path):
    _generate(workload, 5, tmp_path)
    _truncate_last_line(tmp_path / corrupt)
    result = _measure(workload, False, tmp_path)
    attempted, failed = run.operations(result)
    assert attempted > failed >= len(result["passes"])
    assert not next(c for c in result["checks"] if c["name"] == "exit_codes")["ok"]


def test_constant_map_is_a_counted_failure(tmp_path):
    """eval-rank exits 2 on a constant map; the run reports it as a failed
    operation and stays correct."""
    _generate("maps_eval", 5, tmp_path)
    path = tmp_path / "labels.ndjson"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    qa = json.loads((tmp_path / "qa.json").read_text(encoding="utf-8"))[0]
    label = json.loads(lines[0])
    label["object_boxes"] = [[0, 0, qa["image_width"] - 1, qa["image_height"] - 1]]
    lines[0] = json.dumps(label, separators=(", ", ": ")) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    result = _measure("maps_eval", False, tmp_path)
    assert run.operations(result)[1] == len(result["passes"])
    assert all(p["exits"]["eval_rank"] == 2 for p in result["passes"])
    assert all(check["ok"] for check in result["checks"]), result["checks"]


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline_vg",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_untraceable_name_fails_a_check(tmp_path, monkeypatch):
    """A wrapped name the program no longer has must not read as a layer
    that costs nothing."""
    import worker
    from vgmine import toymodel

    _generate("maps_eval", 5, tmp_path)
    monkeypatch.delattr(toymodel, "_sample_metrics")
    worker.main(["run", "--workload", "maps_eval", "--inputs", str(tmp_path), "--seed", "5",
                 "--seconds", "0.5", "--trace", "1", "--result", str(tmp_path / "r.json")])
    result = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    checks = {check["name"]: check for check in result["checks"]}
    assert not checks["trace_names"]["ok"]
    assert "_sample_metrics" in checks["trace_names"]["detail"]
    assert all(check["ok"] for name, check in checks.items() if name != "trace_names")


def test_maps_eval_labels_follow_the_mined_table(tmp_path):
    import gen

    _generate("maps_eval", 5, tmp_path)
    stats = json.loads(gen.LABEL_STATS.read_text(encoding="utf-8"))
    shapes = {tuple(row[:5]) for row in stats["shapes"]}
    words = {tuple(row[:3]) for row in stats["matched_words"]}
    lines = (tmp_path / "labels.ndjson").read_text(encoding="utf-8").splitlines()
    labels = [json.loads(line) for line in lines]
    for label in labels:
        assert (label["is_counting"], len(label["object_boxes"]), len(label["region_boxes"]),
                label["region_match_count"], len(label["matched_words"])) in shapes
        matched = [tuple(m) for m in label["matched_words"]]
        assert len(set(matched)) == len(matched) and set(matched) <= words
    share = sum(label["is_counting"] for label in labels) / len(labels)
    assert abs(share - stats["counting_share"]) < 0.06
