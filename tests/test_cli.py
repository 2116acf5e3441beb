import ast
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vgmine.cli
import vgmine.miner
from vgmine import __version__
from vgmine.attention import BLOCK_SIZE, AttentionMap, read_maps
from vgmine.dataset import BoundingBox
from vgmine.records import INTERRUPTS

from conftest import ALIASES, FIG3, GOLDEN, WORDNET_DIR, no_child_left, time_limit
from corpusgen import dense_corpus
from oracles import (brute_force_rasterize, pgm_reference, reference_eval_rank,
                     reference_maps_lines)

MINE_ARGS = [
    "mine",
    "--regions", FIG3 / "regions.json",
    "--objects", FIG3 / "objects.json",
    "--qa", FIG3 / "qa.json",
    "--wordnet-dir", WORDNET_DIR,
    "--aliases", ALIASES,
]


@pytest.fixture()
def mined(run_cli, tmp_path):
    labels = tmp_path / "labels.ndjson"
    code, _, err = run_cli(*MINE_ARGS, "--out", labels)
    assert code == 0, err
    return labels


class TestMine:
    def test_fig3_matches_golden_byte_for_byte(self, mined):
        assert mined.read_bytes() == (GOLDEN / "fig3_labels.ndjson").read_bytes()

    def test_manifest_written_with_digests(self, mined):
        manifest = json.loads(
            mined.with_name(mined.name + ".manifest.json").read_text())
        assert manifest["command"] == "mine"
        assert len(manifest["input_digests"]) == 8
        assert manifest["config"]["iou_threshold"] == 0.5
        assert "doing" not in manifest["config"]["stopwords"]

    def test_reaches_the_miner_names_the_benchmark_tracer_wraps(self, run_cli, tmp_path,
                                                                 monkeypatch):
        """The tracer counts ``mine``'s calls through these module names, so
        code that stops calling them would make those layer metrics read 0."""
        calls = {}
        for name in ("informative_words", "tokenize", "normalize_token"):
            def counted(*args, _name=name, _wrapped=getattr(vgmine.miner, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _wrapped(*args, **kwargs)
            monkeypatch.setattr(vgmine.miner, name, counted)
        code, _, err = run_cli(*MINE_ARGS, "--out", tmp_path / "labels.ndjson")
        assert code == 0, err
        assert sorted(calls) == ["informative_words", "normalize_token", "tokenize"]

    def test_empty_qa_gives_empty_labels_exit_zero(self, run_cli, tmp_path):
        empty_qa = tmp_path / "qa.json"
        empty_qa.write_text("[]")
        out = tmp_path / "labels.ndjson"
        args = list(MINE_ARGS)
        args[args.index("--qa") + 1] = empty_qa
        code, _, _ = run_cli(*args, "--out", out)
        assert code == 0
        assert out.read_text() == ""

    def test_missing_wordnet_dir_exit_2_names_path(self, run_cli, tmp_path, capsys):
        args = list(MINE_ARGS)
        args[args.index("--wordnet-dir") + 1] = tmp_path / "nowhere"
        code, _, err = run_cli(*args, "--out", tmp_path / "x.ndjson")
        assert code == 2
        assert "nowhere" in err

    @pytest.mark.parametrize("faults", [("index.verb", "regions.json"), ("noun.exc", "qa.json")],
                             ids=["missing-index-verb-and-bad-regions",
                                  "bad-noun-exc-and-missing-qa"])
    def test_a_missing_input_is_reported_before_a_malformed_one(self, run_cli, tmp_path, faults):
        """Every input is found before any is read, and the corpus is read
        before the WordNet files."""
        wordnet = tmp_path / "wordnet"
        shutil.copytree(WORDNET_DIR, wordnet)
        corpus = {name: tmp_path / name for name in ("regions.json", "objects.json", "qa.json")}
        for name, path in corpus.items():
            shutil.copyfile(FIG3 / name, path)
        wordnet_fault, corpus_fault = faults
        if wordnet_fault == "index.verb":
            (wordnet / "index.verb").unlink()
            corpus["regions.json"].write_text("[")
            expected = f"error: missing WordNet file: {wordnet / 'index.verb'}\n"
        else:
            (wordnet / "noun.exc").write_bytes(b"geese goose\n\xe9\n")
            corpus["qa.json"].unlink()
            expected = f"error: qa file not found: {corpus['qa.json']}\n"
        code, out, err = run_cli("mine", "--regions", corpus["regions.json"],
                                 "--objects", corpus["objects.json"], "--qa", corpus["qa.json"],
                                 "--wordnet-dir", wordnet, "--aliases", ALIASES,
                                 "--out", tmp_path / "labels.ndjson")
        assert (code, out, err) == (2, "", expected)
        assert not (tmp_path / "labels.ndjson").exists()

    def test_determinism_byte_identical_outputs(self, run_cli, tmp_path):
        outs = []
        for name in ("a.ndjson", "b.ndjson"):
            out = tmp_path / name
            code, _, _ = run_cli(*MINE_ARGS, "--out", out)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestRasterize:
    def test_golden_labels_give_golden_maps(self, run_cli, mined, tmp_path):
        maps = tmp_path / "maps.ndjson"
        code, _, _ = run_cli("rasterize", "--labels", mined, "--qa",
                             FIG3 / "qa.json", "--out", maps)
        assert code == 0
        assert maps.read_bytes() == (GOLDEN / "fig3_maps.ndjson").read_bytes()

    def test_values_match_oracle_rasterizer(self, run_cli, mined, tmp_path):
        from vgmine.attention import read_maps
        from vgmine.miner import read_labels

        maps = tmp_path / "maps.ndjson"
        run_cli("rasterize", "--labels", mined, "--qa", FIG3 / "qa.json",
                "--out", maps)
        labels = {lab.qa_id: lab for lab in read_labels(mined)}
        for row in read_maps(maps).values():
            label = labels[row["qa_id"]]
            boxes = label.object_boxes if row["glimpse"] == 0 else label.region_boxes
            expected = brute_force_rasterize(boxes, 640, 480, 14, 14)
            if expected.sum() > 0:
                expected = expected / expected.sum()
            assert np.allclose(row["values"], expected, atol=1e-9)

    def test_grid_1x1_gives_single_cell_one(self, run_cli, mined, tmp_path):
        maps = tmp_path / "maps.ndjson"
        run_cli("rasterize", "--labels", mined, "--qa", FIG3 / "qa.json",
                "--out", maps, "--grid", 1, 1)
        for line in maps.read_text().splitlines():
            row = json.loads(line)
            if row["mask"]:
                assert row["values"] == [1.0]

    def test_bad_grid_exit_2(self, run_cli, mined, tmp_path):
        code, _, err = run_cli("rasterize", "--labels", mined, "--qa",
                               FIG3 / "qa.json", "--out", tmp_path / "m.ndjson",
                               "--grid", 0, 14)
        assert code == 2
        assert "grid" in err

    def test_counting_label_masks_region_glimpse(self, run_cli, mined, tmp_path):
        maps = tmp_path / "maps.ndjson"
        run_cli("rasterize", "--labels", mined, "--qa", FIG3 / "qa.json",
                "--out", maps)
        rows = {(r["qa_id"], r["glimpse"]): r
                for r in map(json.loads, maps.read_text().splitlines())}
        assert rows[("qa2", 1)]["mask"] is False
        assert rows[("qa2", 0)]["mask"] is True
        assert rows[("qa1", 1)]["mask"] is True


def _random_labels(rng, count):
    """``count`` label records with random boxes, image sizes and counting
    flags (each with at least one box), and their QA records; qa_ids
    alternate between strings and numbers."""
    labels, qa = [], []
    for i in range(count):
        width, height = int(rng.integers(1, 800)), int(rng.integers(1, 600))

        def boxes(k):
            corners = []
            for _ in range(k):
                x0, y0 = int(rng.integers(0, width)), int(rng.integers(0, height))
                corners.append([x0, y0, int(rng.integers(x0, width)),
                                int(rng.integers(y0, height))])
            return corners

        objects, regions = boxes(int(rng.integers(0, 4))), boxes(int(rng.integers(0, 3)))
        if not objects and not regions:
            objects = boxes(1)
        qa_id = f"q{i}" if i % 2 else i
        labels.append({"qa_id": qa_id, "region_boxes": regions, "object_boxes": objects,
                       "is_counting": bool(rng.integers(0, 3) == 0),
                       "region_match_count": len(regions), "matched_words": []})
        qa.append({"image_id": i, "qa_id": qa_id, "question": "q?", "answer": "a",
                   "image_width": width, "image_height": height})
    return labels, qa


def _write_labels(directory, labels, qa):
    labels_path = _ndjson(directory / "labels.ndjson", labels)
    qa_path = directory / "qa.json"
    qa_path.write_text(json.dumps(qa))
    return labels_path, qa_path


class TestRasterizeBlocks:
    def test_labels_over_several_blocks_match_oracle(self, run_cli, tmp_path):
        labels, qa = _random_labels(np.random.default_rng(41), 150)
        labels_path, qa_path = _write_labels(tmp_path, labels, qa)
        maps = tmp_path / "maps.ndjson"
        code, _, err = run_cli("rasterize", "--labels", labels_path, "--qa", qa_path,
                               "--out", maps, "--grid", 9, 11)
        assert code == 0, err
        rows = iter(map(json.loads, maps.read_text().splitlines()))
        for label, rec in zip(labels, qa):
            for glimpse, key in ((0, "object_boxes"), (1, "region_boxes")):
                counts = brute_force_rasterize([BoundingBox(*b) for b in label[key]],
                                               rec["image_width"], rec["image_height"],
                                               9, 11).ravel().tolist()
                total = sum(counts)
                mask = (bool(label[key]) and total > 0
                        and not (glimpse == 1 and label["is_counting"]))
                want = [float(format(c / total, ".9g")) for c in counts] if mask else counts
                row = next(rows)
                assert (row["qa_id"], row["glimpse"], row["h"], row["w"], row["mask"]) == \
                    (label["qa_id"], glimpse, 9, 11, mask)
                assert row["values"] == want
        assert next(rows, None) is None

    @pytest.mark.parametrize("grid", [(1, 1), (9, 11)], ids=["1x1", "9x11"])
    @pytest.mark.parametrize("escaped", [False, True], ids=["plain-ids", "escaped-ids"])
    def test_file_equals_reference_writer_byte_for_byte(self, run_cli, tmp_path, grid,
                                                        escaped):
        labels, qa = _random_labels(np.random.default_rng(43), 150)
        if escaped:  # string ids that json.dumps escapes: quote, backslash, non-ASCII, controls
            for i, (label, rec) in enumerate(zip(labels, qa)):
                if i % 2:
                    label["qa_id"] = rec["qa_id"] = f'q"{i}\\ é☃\x01\n\t\x7f'
        labels_path, qa_path = _write_labels(tmp_path, labels, qa)
        maps = tmp_path / "maps.ndjson"
        code, _, err = run_cli("rasterize", "--labels", labels_path, "--qa", qa_path,
                               "--out", maps, "--grid", *grid)
        assert code == 0, err
        assert maps.read_bytes() == reference_maps_lines(labels, qa, *grid).encode()

    @pytest.mark.parametrize("faults,reported", [
        ([(70, "no-boxes"), (100, "missing-qa")], 70),
        ([(70, "missing-qa"), (100, "no-boxes")], 70),
        ([(100, "no-boxes"), (70, "zero-size")], 70),
        ([(5, "zero-size"), (3, "no-boxes")], 5),
    ], ids=["boxes-then-qa", "qa-then-boxes", "size-then-boxes", "one-block"])
    def test_first_faulty_label_in_file_order_is_reported(self, run_cli, tmp_path,
                                                          faults, reported):
        """A QA record of zero size is refused as the qa file is read, before
        any label is checked."""
        labels, qa = _random_labels(np.random.default_rng(42), 130)
        by_id = {rec["qa_id"]: rec for rec in qa}
        messages = {}
        for line, fault in faults:
            label = labels[line - 1]
            if fault == "no-boxes":
                label["object_boxes"] = label["region_boxes"] = []
                messages[line] = (f"{tmp_path / 'labels.ndjson'}: "
                                  f"label {label['qa_id']} has no boxes to rasterize")
            elif fault == "missing-qa":
                qa.remove(by_id[label["qa_id"]])
                messages[line] = (f"{tmp_path / 'labels.ndjson'}: label qa_id "
                                  f"{label['qa_id']} missing from qa file {tmp_path / 'qa.json'}")
            else:
                by_id[label["qa_id"]]["image_height"] = 0
                messages[line] = (f"{tmp_path / 'qa.json'}: record "
                                  f"{qa.index(by_id[label['qa_id']])}: "
                                  "image_height must be an integer >= 1, not 0")
        labels_path, qa_path = _write_labels(tmp_path, labels, qa)
        code, _, err = run_cli("rasterize", "--labels", labels_path, "--qa", qa_path,
                               "--out", tmp_path / "maps.ndjson")
        assert code == 2
        assert err == f"error: {messages[reported]}\n"
        assert not (tmp_path / "maps.ndjson").exists()


@pytest.fixture()
def fig3_maps(run_cli, mined, tmp_path):
    maps = tmp_path / "fig3_maps.ndjson"
    code, _, _ = run_cli("rasterize", "--labels", mined, "--qa",
                         FIG3 / "qa.json", "--out", maps)
    assert code == 0
    return maps


class TestEvalRank:
    def test_identical_files_mean_one(self, run_cli, fig3_maps, tmp_path):
        out = tmp_path / "rank.csv"
        code, _, _ = run_cli("eval-rank", "--maps-a", fig3_maps,
                             "--maps-b", fig3_maps, "--out", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[-1] == "mean,,1"

    def test_disjoint_qa_ids_exit_2(self, run_cli, fig3_maps, tmp_path):
        other = tmp_path / "other.ndjson"
        rows = [json.loads(line) for line in fig3_maps.read_text().splitlines()]
        for row in rows:
            row["qa_id"] = "zz" + str(row["qa_id"])
        other.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        code, _, err = run_cli("eval-rank", "--maps-a", fig3_maps, "--maps-b", other)
        assert code == 2
        assert "common" in err

    def test_shape_mismatch_exit_2(self, run_cli, fig3_maps, tmp_path):
        other = tmp_path / "other.ndjson"
        rows = [json.loads(line) for line in fig3_maps.read_text().splitlines()]
        for row in rows:
            row["h"], row["w"] = 7, 28  # same cell count, different shape
        other.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        code, _, err = run_cli("eval-rank", "--maps-a", fig3_maps, "--maps-b", other)
        assert code == 2
        assert "shape" in err

    def test_constant_map_exit_2_names_pair(self, run_cli, fig3_maps, tmp_path):
        other = tmp_path / "constant.ndjson"
        rows = [json.loads(line) for line in fig3_maps.read_text().splitlines()]
        for row in rows:
            row["values"] = [1.0] * len(row["values"])
        other.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        code, _, err = run_cli("eval-rank", "--maps-a", fig3_maps, "--maps-b", other)
        assert code == 2
        assert "undefined correlation" in err

    def test_pair_matches_library_computation(self, run_cli, fig3_maps, tmp_path):
        from vgmine.attention import rank_correlation, read_maps

        rng = np.random.default_rng(30)
        noisy = tmp_path / "noisy.ndjson"
        rows = list(read_maps(fig3_maps).values())
        entries = []
        perturbed = {}
        for row in rows:
            values = row["values"] + rng.uniform(0, 1e-3, row["values"].shape)
            perturbed[(row["qa_id"], row["glimpse"])] = values
        with open(noisy, "w") as fp:
            for row in rows:
                key = (row["qa_id"], row["glimpse"])
                record = {"qa_id": row["qa_id"], "glimpse": row["glimpse"],
                          "h": row["h"], "w": row["w"], "mask": row["mask"],
                          "values": perturbed[key].ravel().tolist()}
                fp.write(json.dumps(record) + "\n")
        out = tmp_path / "rank.csv"
        code, _, _ = run_cli("eval-rank", "--maps-a", fig3_maps,
                             "--maps-b", noisy, "--out", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()[1:]
        for line in lines[:-1]:
            qa_id, glimpse, corr = line.split(",")
            expected = rank_correlation(
                AttentionMap(next(r["values"] for r in rows
                                  if (str(r["qa_id"]), str(r["glimpse"])) == (qa_id, glimpse))),
                AttentionMap(perturbed[(qa_id, int(glimpse))]))
            assert corr == format(expected, ".9g")


class TestEvalAcc:
    def _write(self, tmp_path, preds, refs):
        p = tmp_path / "preds.ndjson"
        r = tmp_path / "refs.ndjson"
        p.write_text("\n".join(json.dumps(x) for x in preds) + "\n")
        r.write_text("\n".join(json.dumps(x) for x in refs) + "\n")
        return p, r

    def test_majority_agreement_gives_one(self, run_cli, tmp_path):
        refs = [{"qa_id": i, "answers": ["yes"] * 5 + ["no"] * 5} for i in range(3)]
        preds = [{"qa_id": i, "answer": "yes"} for i in range(3)]
        p, r = self._write(tmp_path, preds, refs)
        out = tmp_path / "acc.csv"
        code, _, _ = run_cli("eval-acc", "--preds", p, "--refs", r, "--out", out)
        assert code == 0
        assert out.read_text().strip().splitlines()[-1] == "mean,1"

    def test_no_matches_gives_zero(self, run_cli, tmp_path):
        refs = [{"qa_id": 1, "answers": ["no"] * 10}]
        preds = [{"qa_id": 1, "answer": "yes"}]
        p, r = self._write(tmp_path, preds, refs)
        out = tmp_path / "acc.csv"
        run_cli("eval-acc", "--preds", p, "--refs", r, "--out", out)
        assert out.read_text().strip().splitlines()[-1] == "mean,0"

    def test_wrong_reference_count_exit_2(self, run_cli, tmp_path):
        refs = [{"qa_id": 1, "answers": ["no"] * 9}]
        preds = [{"qa_id": 1, "answer": "yes"}]
        p, r = self._write(tmp_path, preds, refs)
        code, _, err = run_cli("eval-acc", "--preds", p, "--refs", r)
        assert code == 2
        assert "qa_id 1" in err

    def test_mixed_fixture_matches_hand_computation(self, run_cli, tmp_path):
        refs = [
            {"qa_id": 1, "answers": ["cat"] * 2 + ["dog"] * 8},   # 2/3
            {"qa_id": 2, "answers": ["cat"] * 4 + ["dog"] * 6},   # 1
            {"qa_id": 3, "answers": ["bird"] * 10},               # 0
        ]
        preds = [{"qa_id": i, "answer": "cat"} for i in (1, 2, 3)]
        p, r = self._write(tmp_path, preds, refs)
        out = tmp_path / "acc.csv"
        run_cli("eval-acc", "--preds", p, "--refs", r, "--out", out)
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "1,0.666666667"
        assert lines[2] == "2,1"
        assert lines[3] == "3,0"
        mean = (2 / 3 + 1.0 + 0.0) / 3
        assert lines[4] == f"mean,{mean:.9g}"

    def test_number_words_and_articles_as_the_vqa_evaluation(self, run_cli, tmp_path):
        refs = [{"qa_id": 1, "answers": ["Two"] * 3 + ["three"] * 7},
                {"qa_id": 2, "answers": ["a dog"] * 10},
                {"qa_id": 3, "answers": ["none"] * 2 + ["many"] * 8}]
        preds = [{"qa_id": 1, "answer": "2"}, {"qa_id": 2, "answer": "the dog"},
                 {"qa_id": 3, "answer": "0"}]
        p, r = self._write(tmp_path, preds, refs)
        out = tmp_path / "acc.csv"
        code, _, err = run_cli("eval-acc", "--preds", p, "--refs", r, "--out", out)
        assert code == 0, err
        assert out.read_text().splitlines() == [
            "qa_id,accuracy", "1,1", "2,1", "3,0.666666667", "mean,0.888888889"]


def test_eval_row_order_does_not_depend_on_the_hash_seed(tmp_path):
    """Integer and string ids are ordered by the id's text ("10" before 9),
    not by set iteration."""
    ids = [qa_id for n in range(6) for qa_id in (n, f"{n}s")]
    rng = np.random.default_rng(5)
    maps_a, maps_b = (_ndjson(tmp_path / f"maps_{side}.ndjson",
                              [{"qa_id": qa_id, "glimpse": 0, "h": 2, "w": 2,
                                "values": rng.permutation(4).tolist()} for qa_id in ids])
                      for side in "ab")
    preds = _ndjson(tmp_path / "preds.ndjson",
                    [{"qa_id": 9, "answer": "yes"}, {"qa_id": "10", "answer": "no"}])
    refs = _ndjson(tmp_path / "refs.ndjson",
                   [{"qa_id": qa_id, "answers": ["yes"] * 10} for qa_id in ("10", 9)])
    commands = [["eval-rank", "--maps-a", str(maps_a), "--maps-b", str(maps_b)],
                ["eval-acc", "--preds", str(preds), "--refs", str(refs)]]
    script = ("import json, sys\nfrom vgmine.cli import main\n"
              "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = {subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                              env={**os.environ, "PYTHONHASHSEED": str(seed),
                                   "PYTHONPATH": str(src)},
                              capture_output=True, text=True, check=True).stdout
               for seed in range(10)}
    assert len(outputs) == 1
    lines = outputs.pop().splitlines()
    assert len(lines) == 1 + len(ids) + 1 + 1 + 2 + 1
    assert lines[-3:] == ["10,0", "9,1", "mean,0.5"]


class TestTrainToy:
    def test_same_seed_twice_identical_bytes(self, run_cli, tmp_path):
        outputs = []
        for name in ("a", "b"):
            metrics = tmp_path / f"{name}.csv"
            params = tmp_path / f"{name}.ndjson"
            code, _, _ = run_cli("train-toy", "--seed", 7, "--steps", 60,
                                 "--metrics-out", metrics, "--params-out", params)
            assert code == 0
            outputs.append(metrics.read_bytes() + params.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flags, golden", [
        (["--steps", 100], "train_toy"),
        (["--glimpses", 3, "--grid", 5, 6, "--steps", 50], "train_toy_g3_5x6"),
    ], ids=["defaults", "three-glimpses-5x6"])
    def test_matches_golden_files_byte_for_byte(self, run_cli, tmp_path, flags, golden):
        # pins the step's arithmetic, not only train() against loss_and_grads()
        metrics, params = tmp_path / "metrics.csv", tmp_path / "params.ndjson"
        code, _, _ = run_cli("train-toy", *flags, "--seed", 0, "--data-seed", 1,
                             "--metrics-out", metrics, "--params-out", params)
        assert code == 0
        assert metrics.read_bytes() == (GOLDEN / f"{golden}_metrics.csv").read_bytes()
        assert params.read_bytes() == (GOLDEN / f"{golden}_params.ndjson").read_bytes()

    def test_zero_steps_initial_metrics_only(self, run_cli, tmp_path):
        metrics = tmp_path / "m.csv"
        code, _, _ = run_cli("train-toy", "--steps", 0, "--metrics-out", metrics)
        assert code == 0
        lines = metrics.read_text().strip().splitlines()
        assert len(lines) == 2  # header + step 0
        assert lines[1].startswith("0,")

    def test_steps_past_t_max_warn_once(self, run_cli, tmp_path, caplog):
        with caplog.at_level("WARNING", logger="vgmine.schedule"):
            code, _, _ = run_cli("train-toy", "--steps", 50, "--t-max", 10,
                                 "--metrics-out", tmp_path / "m.csv")
        assert code == 0
        assert [r.getMessage() for r in caplog.records if "clamped" in r.getMessage()] \
            == ["step 11 past t_max=10; alpha clamped to 0 from here on"]

    def test_divergence_names_step_and_reason(self, run_cli, tmp_path):
        code, _, err = run_cli("train-toy", "--learning-rate", 1e9, "--steps", 20,
                               "--metrics-out", tmp_path / "m.csv")
        assert code == 1
        assert re.search(r"^error: training diverged at step \d+: "
                         r"prediction has zero mass on supervised cells$", err, re.M)
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_update_reports_only_the_divergence(self, run_cli, tmp_path):
        # numpy's "invalid value encountered in matmul" warning came first
        code, _, err = run_cli("train-toy", "--learning-rate", 1e308, "--steps", 3,
                               "--metrics-out", tmp_path / "m.csv",
                               "--params-out", tmp_path / "p.ndjson")
        assert code == 1
        assert err == ("error: training diverged at step 1: "
                       "non-finite values in attention logits\n")
        assert list(tmp_path.iterdir()) == []

    def test_invalid_config_exit_2(self, run_cli, tmp_path):
        for rate in (0, "nan", "inf"):
            code, _, err = run_cli("train-toy", "--learning-rate", rate,
                                   "--metrics-out", tmp_path / "m.csv")
            assert code == 2, rate
            assert "learning_rate must be finite and positive" in err
            assert "Traceback" not in err and "Warning" not in err
            assert list(tmp_path.iterdir()) == []


class TestRender:
    def _maps_file(self, tmp_path, values, mask=True):
        path = tmp_path / "maps.ndjson"
        h, w = values.shape
        row = {"qa_id": "r1", "glimpse": 0, "h": h, "w": w, "mask": mask,
               "values": values.ravel().tolist()}
        path.write_text(json.dumps(row) + "\n")
        return path

    def test_uniform_map_constant_gray(self, run_cli, tmp_path):
        maps = self._maps_file(tmp_path, np.full((4, 4), 0.0625))
        out_dir = tmp_path / "pgm"
        code, _, _ = run_cli("render", "--maps", maps, "--out-dir", out_dir)
        assert code == 0
        data = (out_dir / "r1_g0.pgm").read_bytes()
        assert data == b"P5\n4 4\n255\n" + bytes([255]) * 16

    def test_point_mass_single_white_pixel(self, run_cli, tmp_path):
        values = np.zeros((3, 3))
        values[2, 0] = 1.0
        maps = self._maps_file(tmp_path, values)
        out_dir = tmp_path / "pgm"
        run_cli("render", "--maps", maps, "--out-dir", out_dir)
        body = (out_dir / "r1_g0.pgm").read_bytes()[len(b"P5\n3 3\n255\n"):]
        assert body.count(255) == 1 and body[6] == 255

    def test_fixture_map_matches_reference_encoder(self, run_cli, tmp_path):
        rng = np.random.default_rng(31)
        values = rng.uniform(0, 1, (14, 14))
        maps = self._maps_file(tmp_path, values)
        out_dir = tmp_path / "pgm"
        run_cli("render", "--maps", maps, "--out-dir", out_dir)
        assert (out_dir / "r1_g0.pgm").read_bytes() == pgm_reference(values)


class TestPipelineAndConfig:
    def test_mine_rasterize_eval_rank_round_trip(self, run_cli, fig3_maps, tmp_path):
        out = tmp_path / "rank.csv"
        code, _, _ = run_cli("eval-rank", "--maps-a", fig3_maps,
                             "--maps-b", fig3_maps, "--out", out)
        assert code == 0
        assert out.read_text().strip().splitlines()[-1] == "mean,,1"

    def test_config_file_supplies_defaults(self, run_cli, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"iou-threshold": 0.9, "min-region-matches": 3}))
        out = tmp_path / "labels.ndjson"
        code, _, _ = run_cli(*MINE_ARGS, "--out", out, "--config", config)
        assert code == 0
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["config"]["iou_threshold"] == 0.9
        assert manifest["config"]["min_region_matches"] == 3

    def test_explicit_flag_beats_config_file(self, run_cli, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"iou-threshold": 0.9}))
        out = tmp_path / "labels.ndjson"
        code, _, _ = run_cli(*MINE_ARGS, "--out", out, "--config", config,
                             "--iou-threshold", 0.25)
        assert code == 0
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["config"]["iou_threshold"] == 0.25

    def test_unknown_flag_exit_2(self, run_cli, tmp_path):
        code, _, _ = run_cli("mine", "--bogus", "x")
        assert code == 2


class TestConfigFile:
    """A config value reads as the flag it names, typed right after the
    command name, so it meets that flag's checks."""

    def _config(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    @pytest.mark.parametrize("config,key,expected", [
        ({"stopwords": 5}, "stopwords", ["5"]),
        ({"iou_threshold": [1]}, "iou_threshold", 1.0),
        ({"full_containment": False, "counting_prefixes": ["how many"]},
         "counting_prefixes", ["how many"]),
    ], ids=["number-for-string", "one-entry-list", "false-and-list"])
    def test_value_is_parsed_as_its_flag(self, run_cli, tmp_path, config, key, expected):
        out = tmp_path / "labels.ndjson"
        code, _, err = run_cli(*MINE_ARGS, "--out", out,
                               "--config", self._config(tmp_path, config))
        assert code == 0, err
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["config"][key] == expected
        assert manifest["config"]["center_containment"] is True

    @pytest.mark.parametrize("config,message", [
        ({"full_containment": "no"}, "--full-containment: ignored explicit argument 'no'"),
        ({"min_region_matches": 2.5}, "--min-region-matches: invalid int value: '2.5'"),
        ({"iou-threshold": [0.3, 0.4]}, "unrecognized arguments: 0.4"),
        ({"bogus": 1}, "unrecognized arguments: --bogus=1"),
        ({"grid": [14, 14]}, "unrecognized arguments: --grid 14 14"),
    ], ids=["string-for-switch", "float-for-int", "two-entry-list", "unknown-key",
            "key-of-another-command"])
    def test_value_failing_its_flag_exit_2(self, run_cli, tmp_path, config, message):
        out = tmp_path / "labels.ndjson"
        code, _, err = run_cli(*MINE_ARGS, "--out", out,
                               "--config", self._config(tmp_path, config))
        assert code == 2
        assert message in err
        assert "Traceback" not in err
        assert list(tmp_path.glob("labels*")) == []

    def test_grid_of_one_number_exit_2(self, run_cli, tmp_path):
        out = tmp_path / "maps.ndjson"
        code, _, err = run_cli("rasterize", "--labels", GOLDEN / "fig3_labels.ndjson",
                               "--qa", FIG3 / "qa.json", "--out", out,
                               "--config", self._config(tmp_path, {"grid": 5}))
        assert code == 2
        assert "--grid: expected 2 arguments" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_path_after_equals_sign_is_the_same_flag(self, run_cli, tmp_path):
        config = self._config(tmp_path, {"steps": 40, "learning_rate": 0.5, "seed": 3})
        metrics, params = tmp_path / "m.csv", tmp_path / "p.ndjson"
        outputs = []
        for flags in (["--config", config], [f"--config={config}"]):
            code, _, err = run_cli("train-toy", *flags, "--metrics-out", metrics,
                                   "--params-out", params)
            assert code == 0, err
            outputs.append({path.name: path.read_bytes() for path in tmp_path.glob("[mp].*")})
        assert sorted(outputs[0]) == ["m.csv", "m.csv.manifest.json", "p.ndjson"]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0]["m.csv.manifest.json"])["config"]["steps"] == 40

    @pytest.mark.parametrize("value", [None, {"h": 5}, ["a", True]],
                             ids=["null", "object", "list-with-bool"])
    def test_value_of_no_flag_type_names_file_and_key(self, run_cli, tmp_path, value):
        config = self._config(tmp_path, {"iou_threshold": 0.5, "stopwords": value})
        out = tmp_path / "labels.ndjson"
        code, _, err = run_cli(*MINE_ARGS, "--out", out, "--config", config)
        assert code == 2
        assert err.startswith(f"error: {config}: stopwords: ")
        assert list(tmp_path.glob("labels*")) == []


# --- malformed input and partial output ------------------------------------

def _tie_heavy_maps(rng, count, shapes=((7, 7), (3, 5))):
    """Two lists of maps rows over ``count`` pairs with few distinct cell
    values; a few rows are masked or present in one list only, and the
    pairs use more than one grid shape."""
    rows_a, rows_b = [], []
    for i in range(count):
        h, w = shapes[i % 7 == 0]
        for rows, levels in ((rows_a, [0.0, 0.25, 0.5]), (rows_b, [0.0, 1 / 3, 2 / 3, 1.0])):
            values = rng.choice(levels, h * w)
            values[:2] = levels[0], levels[1]  # never constant
            rows.append({"qa_id": i if i % 3 else f"m{i}", "glimpse": i % 2, "h": h, "w": w,
                         "mask": i % 11 != 5 or rows is rows_a,
                         "values": values.tolist()})
    rows_a.append(dict(rows_a[0], qa_id="only-a"))
    rows_b.append(dict(rows_b[1], qa_id="only-b"))
    return rows_a, rows_b


def _as_arrays(rows):
    return [dict(row, values=np.array(row["values"]).reshape(row["h"], row["w"]))
            for row in rows]


class TestEvalRankBlocks:
    def test_equals_per_pair_reference(self, run_cli, tmp_path):
        rows_a, rows_b = _tie_heavy_maps(np.random.default_rng(50), 150)
        out = tmp_path / "rank.csv"
        code, _, err = run_cli("eval-rank", "--maps-a", _ndjson(tmp_path / "a.ndjson", rows_a),
                               "--maps-b", _ndjson(tmp_path / "b.ndjson", rows_b),
                               "--out", out)
        assert code == 0, err
        expected = reference_eval_rank(_as_arrays(rows_a), _as_arrays(rows_b))
        assert out.read_bytes() == expected.encode()
        assert expected.count("\n") > 2 + 64 * 2

    # the doubled midranks of a map of n cells reach 2n: uint16 up to 32,767 cells
    @pytest.mark.parametrize("count,shapes,dtypes", [
        (150, ((14, 14), (3, 5)), (np.uint16, np.uint8)),
        (3, ((1, 32767), (1, 32768)), (np.uint16, np.uint32)),
    ], ids=["14x14", "uint32"])
    def test_equals_per_pair_reference_at_each_rank_dtype(self, run_cli, tmp_path, count,
                                                          shapes, dtypes):
        rows_a, rows_b = _tie_heavy_maps(np.random.default_rng(50), count, shapes)
        path_a = _ndjson(tmp_path / "a.ndjson", rows_a)
        out = tmp_path / "rank.csv"
        code, _, err = run_cli("eval-rank", "--maps-a", path_a,
                               "--maps-b", _ndjson(tmp_path / "b.ndjson", rows_b),
                               "--out", out)
        assert code == 0, err
        assert out.read_bytes() == reference_eval_rank(_as_arrays(rows_a),
                                                       _as_arrays(rows_b)).encode()
        ranks = read_maps(path_a, ranked=True)[1]
        assert {shape: ranks[shape].dtype for shape in shapes} == dict(zip(shapes, dtypes))

    def test_heap_peak_stays_near_the_ranks(self, run_cli, tmp_path, cpus):
        """Each of the two files holds 1,200 14x14 maps in 4.0 MiB of JSON, 1.8 MiB as
        float64 cells and 0.45 MiB as uint16 doubled midranks. The traced heap peaked at
        6.0-6.4 MiB when every map was kept as an array and each input was hashed whole,
        and at 2.1-2.4 MiB with the maps ranked as they are read."""
        rng = np.random.default_rng(53)
        paths = []
        for side in "ab":
            counts = rng.integers(0, 4, (1200, 196)).astype(float)
            counts[:, :2] = 0, 1  # never constant
            values = counts / counts.sum(axis=1, keepdims=True)
            paths.append(_ndjson(tmp_path / f"{side}.ndjson", [
                {"qa_id": f"q{i}", "glimpse": 0, "h": 14, "w": 14, "mask": True,
                 "values": row} for i, row in enumerate(values.tolist())]))
        tracemalloc.start()
        try:
            code, _, err = run_cli("eval-rank", "--maps-a", paths[0], "--maps-b", paths[1],
                                   "--out", tmp_path / "rank.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 3.5 * 2**20

    @pytest.mark.parametrize("faults,reported", [
        ([(70, "constant"), (100, "negative")], 100),
        ([(100, "constant"), (70, "shape")], 70),
        ([(10, "negative"), (20, "constant")], 10),
        ([(20, "negative"), (10, "constant")], 20),
        ([(30, "shape"), (12, "negative-b")], 12),
    ], ids=["constant-then-negative", "shape-then-constant", "negative-then-constant",
            "constant-then-negative-one-block", "negative-in-b-then-shape"])
    def test_first_faulty_pair_in_order_is_reported(self, run_cli, tmp_path, faults,
                                                    reported):
        # a negative cell is refused as its file is read, before any pair is ranked
        rng = np.random.default_rng(51)
        rows_a, rows_b = [], []
        for i in range(130):
            for rows in (rows_a, rows_b):
                rows.append({"qa_id": f"p{i:03d}", "glimpse": 0, "h": 7, "w": 7,
                             "values": rng.choice([0.0, 0.5, 1.0], 49).tolist()})
                rows[-1]["values"][:2] = [0.0, 1.0]
        path_a, path_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        pair = f"{path_a} and {path_b}: qa_id p{reported:03d} glimpse 0"
        messages = {
            "constant": f"{pair}: undefined correlation: constant map",
            "negative": f"{path_a}:{reported + 1}: values must be finite numbers >= 0",
            "negative-b": f"{path_b}:{reported + 1}: values must be finite numbers >= 0",
            "shape": f"{pair}: map shape mismatch",
        }
        for index, fault in faults:
            if fault == "constant":
                rows_b[index]["values"] = [0.5] * 49
            elif fault == "negative":
                rows_a[index]["values"][3] = -1.0
            elif fault == "negative-b":
                rows_b[index]["values"][3] = -0.5
            else:
                rows_b[index]["h"], rows_b[index]["w"] = 1, 49
        out = tmp_path / "rank.csv"
        code, _, err = run_cli("eval-rank", "--maps-a", _ndjson(path_a, rows_a),
                               "--maps-b", _ndjson(path_b, rows_b), "--out", out)
        assert code == 2
        assert err == f"error: {messages[dict(faults)[reported]]}\n"
        assert not out.exists()


class TestEvalRankConcurrentRead:
    """The two maps files are read concurrently when a second CPU is usable;
    outputs, messages and exit codes are those of reading them in turn."""

    def _inputs(self, tmp_path, which):
        if which == "fig3":
            rows = [json.loads(text) for text in _lines(GOLDEN / "fig3_maps.ndjson")]
            rng = np.random.default_rng(31)
            noisy = [dict(row, values=(np.array(row["values"])
                                       + rng.uniform(0, 1e-3, len(row["values"]))).tolist())
                     for row in rows]
            return GOLDEN / "fig3_maps.ndjson", _ndjson(tmp_path / "noisy.ndjson", noisy)
        rows_a, rows_b = _tie_heavy_maps(np.random.default_rng(52), 200)
        return _ndjson(tmp_path / "a.ndjson", rows_a), _ndjson(tmp_path / "b.ndjson", rows_b)

    @pytest.mark.parametrize("which", ["fig3", "generated"])
    def test_outputs_equal_those_of_reads_in_turn(self, run_cli, tmp_path, cpus, which):
        maps_a, maps_b = self._inputs(tmp_path, which)
        out = tmp_path / "rank.csv"
        code, _, err = run_cli("eval-rank", "--maps-a", maps_a, "--maps-b", maps_b, "--out", out)
        assert code == 0, err
        assert len(cpus[1]) == (cpus[0] > 1)
        expected = reference_eval_rank(*(_as_arrays(json.loads(text) for text in _lines(path))
                                         for path in (maps_a, maps_b)))
        assert out.read_bytes() == expected.encode()
        manifest = {"command": "eval-rank", "config": {}, "tool_version": __version__,
                    "input_digests": {str(path): hashlib.sha256(path.read_bytes()).hexdigest()
                                      for path in sorted((maps_a, maps_b))}}
        assert (out.with_name("rank.csv.manifest.json").read_text()
                == json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        no_child_left()

    @pytest.mark.parametrize("bad", ["a", "b", "ab"])
    def test_malformed_input_gives_the_message_of_reads_in_turn(self, run_cli, tmp_path,
                                                                 cpus, bad):
        truncated = (GOLDEN / "fig3_maps.ndjson").read_bytes()[:-100]
        paths = {}
        for side in "ab":
            paths[side] = tmp_path / f"{side}.ndjson"
            paths[side].write_bytes(truncated if side in bad else
                                    (GOLDEN / "fig3_maps.ndjson").read_bytes())
        out = tmp_path / "rank.csv"
        code, stdout, err = run_cli("eval-rank", "--maps-a", paths["a"], "--maps-b", paths["b"],
                                    "--out", out)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {paths[bad[0]]}:4: ")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ndjson", "b.ndjson"]
        assert len(cpus[1]) == (cpus[0] > 1)
        no_child_left()


def _lines(path):
    return path.read_text().splitlines(keepends=True)


def _ndjson(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _fig3_preds_refs(directory):
    qa = json.loads((FIG3 / "qa.json").read_text())
    preds = _ndjson(directory / "preds.ndjson",
                    [{"qa_id": r["qa_id"], "answer": r["answer"]} for r in qa])
    refs = _ndjson(directory / "refs.ndjson",
                   [{"qa_id": r["qa_id"], "answers": [r["answer"]] * 10} for r in qa])
    return preds, refs


def _drop_key(source, dest, line, key):
    records = [json.loads(text) for text in _lines(source)]
    del records[line][key]
    return _ndjson(dest, records)


def _truncated_labels(tmp_path):
    bad = tmp_path / "labels.ndjson"
    lines = _lines(GOLDEN / "fig3_labels.ndjson")
    bad.write_text(lines[0] + lines[1][:40])
    return ["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json"], f"{bad}:2"


def _truncated_maps(tmp_path):
    bad = tmp_path / "maps.ndjson"
    bad.write_bytes((GOLDEN / "fig3_maps.ndjson").read_bytes()[:-100])
    return (["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson", "--maps-b", bad],
            f"{bad}:4")


def _preds_without_answer(tmp_path):
    preds, refs = _fig3_preds_refs(tmp_path)
    bad = _drop_key(preds, tmp_path / "bad_preds.ndjson", 1, "answer")
    return ["eval-acc", "--preds", bad, "--refs", refs], f"{bad}:2: missing field 'answer'"


def _maps_without_qa_id(command):
    def case(tmp_path):
        bad = _drop_key(GOLDEN / "fig3_maps.ndjson", tmp_path / "maps.ndjson", 2, "qa_id")
        if command == "render":
            return ["render", "--maps", bad], f"{bad}:3: missing field 'qa_id'"
        return (["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson", "--maps-b", bad],
                f"{bad}:3: missing field 'qa_id'")
    return case


def _qa_not_json(tmp_path):
    bad = tmp_path / "qa.json"
    bad.write_text("not json")
    return (["rasterize", "--labels", GOLDEN / "fig3_labels.ndjson", "--qa", bad],
            f"{bad}: invalid JSON at offset 0")


def _qa_record_without_field(tmp_path):
    bad = tmp_path / "qa.json"
    qa = json.loads((FIG3 / "qa.json").read_text())
    del qa[1]["image_width"]
    bad.write_text(json.dumps(qa))
    return (["rasterize", "--labels", GOLDEN / "fig3_labels.ndjson", "--qa", bad],
            f"{bad}: record 1: missing field 'image_width'")


def _label_without_boxes(tmp_path):
    bad = tmp_path / "labels.ndjson"
    records = [json.loads(text) for text in _lines(GOLDEN / "fig3_labels.ndjson")]
    records[1]["region_boxes"] = records[1]["object_boxes"] = []
    _ndjson(bad, records)
    return (["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json"],
            f"{bad}: label qa2 has no boxes to rasterize")


def _qa_zero_width(tmp_path):
    bad = tmp_path / "qa.json"
    qa = json.loads((FIG3 / "qa.json").read_text())
    qa[1]["image_width"] = 0
    bad.write_text(json.dumps(qa))
    return (["rasterize", "--labels", GOLDEN / "fig3_labels.ndjson", "--qa", bad],
            f"{bad}: record 1: image_width must be an integer >= 1, not 0")


def _mine_qa_zero_width(tmp_path):
    bad = tmp_path / "qa.json"
    qa = json.loads((FIG3 / "qa.json").read_text())
    qa[0]["image_width"] = 0
    bad.write_text(json.dumps(qa))
    argv = [str(a) for a in MINE_ARGS]
    argv[argv.index("--qa") + 1] = str(bad)
    return argv, f"{bad}: record 0: image_width must be an integer >= 1, not 0"


def _preds_with_list_qa_id(tmp_path):
    preds, refs = _fig3_preds_refs(tmp_path)
    bad = tmp_path / "bad_preds.ndjson"
    _ndjson(bad, [{"qa_id": "qa1", "answer": "x"}, {"qa_id": [1], "answer": "x"}])
    return (["eval-acc", "--preds", bad, "--refs", refs],
            f"{bad}:2: qa_id must be a string or an integer, not [1]")


def _list_qa_id(command):
    def case(tmp_path):
        if command == "eval-rank":
            bad = tmp_path / "maps.ndjson"
            records = [json.loads(text) for text in _lines(GOLDEN / "fig3_maps.ndjson")]
            records[1]["qa_id"] = [1]
            _ndjson(bad, records)
            return (["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson", "--maps-b", bad],
                    f"{bad}:2: qa_id must be a string or an integer, not [1]")
        if command == "rasterize-labels":
            bad = tmp_path / "labels.ndjson"
            records = [json.loads(text) for text in _lines(GOLDEN / "fig3_labels.ndjson")]
            records[1]["qa_id"] = {"id": 1}
            _ndjson(bad, records)
            return (["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json"],
                    f"{bad}:2: qa_id must be a string or an integer, not {{'id': 1}}")
        bad = tmp_path / "qa.json"
        qa = json.loads((FIG3 / "qa.json").read_text())
        qa[1]["qa_id"] = [1]
        bad.write_text(json.dumps(qa))
        return (["rasterize", "--labels", GOLDEN / "fig3_labels.ndjson", "--qa", bad],
                f"{bad}: record 1: qa_id must be a string or an integer, not [1]")
    return case


def _maps_with_negative_cell(tmp_path):
    bad = tmp_path / "maps.ndjson"
    records = [json.loads(text) for text in _lines(GOLDEN / "fig3_maps.ndjson")]
    records[2]["values"][0] = -1.0
    _ndjson(bad, records)
    return ["render", "--maps", bad], f"{bad}:3: values must be finite numbers >= 0"


def _maps_with_field(command, key, value):
    def case(tmp_path):
        bad = tmp_path / "maps.ndjson"
        records = [json.loads(text) for text in _lines(GOLDEN / "fig3_maps.ndjson")]
        records[1][key] = value
        _ndjson(bad, records)
        if key == "mask":
            rule = "a bool"
        else:
            rule = f"an integer >= {0 if key == 'glimpse' else 1}"
        expected = f"{bad}:2: {key} must be {rule}, not {value!r}"
        if command == "render":
            return ["render", "--maps", bad], expected
        return (["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson", "--maps-b", bad],
                expected)
    return case


def _qa_with_size(key, value):
    def case(tmp_path):
        bad = tmp_path / "qa.json"
        qa = json.loads((FIG3 / "qa.json").read_text())
        qa[1][key] = value
        bad.write_text(json.dumps(qa))
        return (["rasterize", "--labels", GOLDEN / "fig3_labels.ndjson", "--qa", bad],
                f"{bad}: record 1: {key} must be an integer >= 1, not {value!r}")
    return case


def _annotation_with_field(kind, key, value=None):
    """Record 2 of entry 0 without ``key``, or with ``key`` set to ``value``."""
    def case(tmp_path):
        name = "regions" if kind == "region" else "objects"
        bad = tmp_path / f"{name}.json"
        entries = json.loads((FIG3 / f"{name}.json").read_text())
        if value is None:
            del entries[0][name][2][key]
            fault = f"missing field '{key}'"
        else:
            entries[0][name][2][key] = value
            rule = "an integer >= 1" if key in ("width", "height", "w", "h") else "an integer"
            fault = f"{key} must be {rule}, not {value!r}"
        bad.write_text(json.dumps(entries))
        argv = [str(a) for a in MINE_ARGS]
        argv[argv.index(f"--{name}") + 1] = str(bad)
        return argv, f"{bad}: entry 0: {kind} 2: {fault}"
    return case


_BOXES = "a list of [x_min, y_min, x_max, y_max] integer boxes, each min <= max"


def _label_with_float_box(tmp_path):
    bad = tmp_path / "labels.ndjson"
    records = [json.loads(text) for text in _lines(GOLDEN / "fig3_labels.ndjson")]
    records[1]["object_boxes"][0][0] = 120.5
    boxes = records[1]["object_boxes"]
    _ndjson(bad, records)
    return (["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json"],
            f"{bad}:2: object_boxes must be {_BOXES}, not {boxes!r}")


def _label_with(key, value, fault):
    """Rasterize golden labels whose first line has ``key`` set to ``value``."""
    def case(tmp_path):
        bad = tmp_path / "labels.ndjson"
        records = [json.loads(text) for text in _lines(GOLDEN / "fig3_labels.ndjson")]
        records[0][key] = value
        _ndjson(bad, records)
        return (["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json"],
                f"{bad}:1: {key} must be {fault}, not {value!r}")
    return case


def _mine_qa_with(key, value, fault):
    """Mine on a qa.json whose record 1 has ``key`` set to ``value``."""
    def case(tmp_path):
        bad = tmp_path / "qa.json"
        qa = json.loads((FIG3 / "qa.json").read_text())
        qa[1][key] = value
        bad.write_text(json.dumps(qa))
        argv = [str(a) for a in MINE_ARGS]
        argv[argv.index("--qa") + 1] = str(bad)
        return argv, f"{bad}: record 1: {fault}"
    return case


def _lexicon_file_not_utf8(name, line, byte):
    """Mine with a copy of the WordNet fixture file or alias file ``name``
    whose line ``line`` (the last, after its final newline, when None) ends
    in ``byte``, which is not UTF-8."""
    def case(tmp_path):
        wordnet, aliases = tmp_path / "wordnet", tmp_path / "aliases.txt"
        shutil.copytree(WORDNET_DIR, wordnet)
        shutil.copyfile(ALIASES, aliases)
        bad = aliases if name == "aliases.txt" else wordnet / name
        lines = bad.read_bytes().split(b"\n")
        at = line or len(lines)
        lines[at - 1] += byte
        bad.write_bytes(b"\n".join(lines))
        argv = [str(a) for a in MINE_ARGS]
        argv[argv.index("--wordnet-dir") + 1] = str(wordnet)
        argv[argv.index("--aliases") + 1] = str(aliases)
        return argv, f"error: {bad}:{at}: not UTF-8 text\n"
    return case


def _input_not_utf8(command):
    """``command`` on a copy of its Fig. 3 input whose byte 0xE9 ends the
    file after 9,000 blank lines, past the decoder's first 8 KiB chunk."""
    def case(tmp_path):
        source = {"rasterize": GOLDEN / "fig3_labels.ndjson",
                  "eval-rank": GOLDEN / "fig3_maps.ndjson", "mine": FIG3 / "qa.json"}[command]
        bad = tmp_path / source.name
        data = source.read_bytes() + b"\n" * 9000 + b"\xe9\n"
        bad.write_bytes(data)
        line = data.count(b"\n")
        if command == "mine":
            argv = [str(a) for a in MINE_ARGS]
            argv[argv.index("--qa") + 1] = str(bad)
        elif command == "rasterize":
            argv = ["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json"]
        else:  # --maps-a, the file read_pair's child reads
            argv = ["eval-rank", "--maps-a", bad, "--maps-b", source]
        return argv, f"error: {bad}:{line}: not UTF-8 text\n"
    return case


def _qa_with_repeated_qa_id(command):
    """``mine`` or ``rasterize`` on a qa.json with record 0 repeated as record 2."""
    def case(tmp_path):
        bad = tmp_path / "qa.json"
        qa = json.loads((FIG3 / "qa.json").read_text())
        bad.write_text(json.dumps(qa + qa[:1]))
        if command == "mine":
            argv = [str(a) for a in MINE_ARGS]
            argv[argv.index("--qa") + 1] = str(bad)
        else:
            argv = ["rasterize", "--labels", GOLDEN / "fig3_labels.ndjson", "--qa", bad]
        return argv, f"{bad}: record 2: repeated key 'qa1', first in record 0"
    return case


def _annotation_entry_with_image_id(kind, value):
    """Mine on an annotation file whose entry 0 has ``image_id`` set to ``value``."""
    def case(tmp_path):
        name = f"{kind}s"
        bad = tmp_path / f"{name}.json"
        entries = json.loads((FIG3 / f"{name}.json").read_text())
        entries[0]["image_id"] = value
        bad.write_text(json.dumps(entries))
        argv = [str(a) for a in MINE_ARGS]
        argv[argv.index(f"--{name}") + 1] = str(bad)
        return argv, f"{bad}: entry 0: image_id must be a string or an integer, not {value!r}"
    return case


def _annotation_with_text(kind, key, value, rule):
    """Record 1 of entry 0 with the text field ``key`` set to ``value``."""
    def case(tmp_path):
        name = f"{kind}s"
        bad = tmp_path / f"{name}.json"
        entries = json.loads((FIG3 / f"{name}.json").read_text())
        entries[0][name][1][key] = value
        bad.write_text(json.dumps(entries))
        argv = [str(a) for a in MINE_ARGS]
        argv[argv.index(f"--{name}") + 1] = str(bad)
        return argv, f"{bad}: entry 0: {kind} 1: {key} must be {rule}, not {value!r}"
    return case


_BAD_IDS = [None, math.nan, [], {}, 1.0]


def _eval_acc_with(which, key, value, rule):
    """eval-acc with line 2 of the predictions or references changed."""
    def case(tmp_path):
        files = dict(zip(("preds", "refs"), _fig3_preds_refs(tmp_path)))
        records = [json.loads(text) for text in _lines(files[which])]
        records[1][key] = value
        bad = files[which] = _ndjson(tmp_path / f"bad_{which}.ndjson", records)
        return (["eval-acc", "--preds", files["preds"], "--refs", files["refs"]],
                f"{bad}:2: {key} must be {rule}, not {value!r}")
    return case



def _ndjson_with_qa_id(command, value):
    """rasterize (labels) or eval-rank (maps b) with line 2's qa_id set to ``value``."""
    def case(tmp_path):
        name = "labels" if command == "rasterize" else "maps"
        bad = tmp_path / f"{name}.ndjson"
        records = [json.loads(text) for text in _lines(GOLDEN / f"fig3_{name}.ndjson")]
        records[1]["qa_id"] = value
        _ndjson(bad, records)
        argv = (["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json"] if name == "labels"
                else ["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson", "--maps-b", bad])
        return argv, f"{bad}:2: qa_id must be a string or an integer, not {value}"
    return case


_NOT_NUMBERS = "values must be a flat list of numbers, not ["
_NOT_FINITE = "values must be finite numbers >= 0"


def _maps_with_values(command, change, fault, line=2):
    """render, or eval-rank (maps b), with the values of ``line`` (line 4 is
    the masked row) replaced by ``change(values)``."""
    def case(tmp_path):
        bad = tmp_path / "maps.ndjson"
        records = [json.loads(text) for text in _lines(GOLDEN / "fig3_maps.ndjson")]
        records[line - 1]["values"] = change(records[line - 1]["values"])
        _ndjson(bad, records)
        argv = (["render", "--maps", bad] if command == "render"
                else ["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson", "--maps-b", bad])
        return argv, f"{bad}:{line}: {fault}"
    return case


def _maps_with_cell(command, value, fault=_NOT_FINITE, line=2):
    """render, or eval-rank (maps b), with one cell of ``line`` set to ``value``."""
    return _maps_with_values(command, lambda values: values[:5] + [value] + values[6:], fault,
                             line)


def _nested_too_deeply(command):
    """rasterize with a labels line, or mine with a qa.json, of 200,000 '['
    then 200,000 ']'."""
    def case(tmp_path):
        text = "[" * 200_000 + "]" * 200_000
        fault = "maximum recursion depth exceeded while decoding a JSON array"
        if command == "rasterize":
            bad = tmp_path / "labels.ndjson"
            bad.write_text(text + "\n")
            return (["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json"],
                    f"{bad}:1: {fault}")
        bad = tmp_path / "qa.json"
        bad.write_text(text)
        argv = [str(a) for a in MINE_ARGS]
        argv[argv.index("--qa") + 1] = str(bad)
        return argv, f"{bad}: {fault}"
    return case


def _maps_row_not_an_object(tmp_path):
    """eval-rank (maps b) whose line 2 is a JSON array holding the row."""
    bad = tmp_path / "maps.ndjson"
    lines = _lines(GOLDEN / "fig3_maps.ndjson")
    lines[1] = f"[{lines[1].rstrip()}]\n"
    bad.write_text("".join(lines))
    return (["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson", "--maps-b", bad],
            f"{bad}:2: expected a JSON object, not {json.loads(lines[1])!r}")


def _not_an_object(name, value):
    """``name``'s Fig. 3 input with one record, entry or list replaced by
    ``value``: QA record 1 (mine), entry 0 or its regions or its region 1
    (mine), line 2 of the maps (eval-rank) or of the labels (rasterize)."""
    def case(tmp_path):
        if name in ("maps", "labels"):
            source = GOLDEN / f"fig3_{name}.ndjson"
            bad = tmp_path / source.name
            lines = _lines(source)
            lines[1] = json.dumps(value) + "\n"
            bad.write_text("".join(lines))
            argv = (["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json"] if name == "labels"
                    else ["eval-rank", "--maps-a", source, "--maps-b", bad])
            return argv, f"{bad}:2: expected a JSON object, not {value!r}"
        flag = "qa" if name == "qa" else "regions"
        bad = tmp_path / f"{flag}.json"
        records = json.loads((FIG3 / f"{flag}.json").read_text())
        fault = f"expected a JSON object, not {value!r}"
        if name == "qa":
            records[1], place = value, "record 1"
        elif name == "entry":
            records[0], place = value, "entry 0"
        elif name == "region":
            records[0]["regions"][1], place = value, "entry 0: region 1"
        else:
            records[0]["regions"], place = value, "entry 0"
            fault = f"regions must be a list, not {value!r}"
        bad.write_text(json.dumps(records))
        argv = [str(a) for a in MINE_ARGS]
        argv[argv.index(f"--{flag}") + 1] = str(bad)
        return argv, f"{bad}: {place}: {fault}"
    return case


def _with_repeated_line(command):
    """``command`` with line 2 of its NDJSON input repeated after the last line."""
    def case(tmp_path):
        refs = None
        if command == "eval-acc":
            source, refs = _fig3_preds_refs(tmp_path)
        else:
            source = GOLDEN / f"fig3_{'labels' if command == 'rasterize' else 'maps'}.ndjson"
        lines = _lines(source)
        bad = tmp_path / f"bad_{source.name}"
        bad.write_text("".join(lines + [lines[1]]))
        argv = {"rasterize": ["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json"],
                "eval-rank": ["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson",
                              "--maps-b", bad],
                "render": ["render", "--maps", bad],
                "eval-acc": ["eval-acc", "--preds", bad, "--refs", refs]}[command]
        record = json.loads(lines[1])
        key = record["qa_id"] if command in ("rasterize", "eval-acc") else (
            record["qa_id"], record["glimpse"])
        return argv, f"{bad}:{len(lines) + 1}: repeated key {key!r}, first on line 2"
    return case


def _with_alike_qa_ids(command):
    """eval-rank (maps a or b) or eval-acc (predictions) with the qa_id 1 on
    line 1 and "1" on line 3 of one input: their CSV rows would read alike."""
    def case(tmp_path):
        files = dict(zip(("preds", "refs"), _fig3_preds_refs(tmp_path)))
        source = files["preds"] if command == "eval-acc" else GOLDEN / "fig3_maps.ndjson"
        records = [json.loads(text) for text in _lines(source)]
        if command == "eval-acc":
            records.append(dict(records[0]))
        records[0]["qa_id"], records[2]["qa_id"] = 1, "1"
        bad = _ndjson(tmp_path / f"bad_{source.name}", records)
        argv = {"eval-rank-a": ["eval-rank", "--maps-a", bad,
                                "--maps-b", GOLDEN / "fig3_maps.ndjson"],
                "eval-rank-b": ["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson",
                                "--maps-b", bad],
                "eval-acc": ["eval-acc", "--preds", bad, "--refs", files["refs"]]}[command]
        first, key = (1, "'1'") if command == "eval-acc" else ((1, 0), "('1', 0)")
        return argv, f"{bad}:3: key {key} prints as the key {first!r} on line 1"
    return case


def _render_with_qa_ids(ids, fault):
    """render on the golden maps with the qa_ids of the first lines replaced."""
    def case(tmp_path):
        bad = tmp_path / "maps.ndjson"
        records = [json.loads(text) for text in _lines(GOLDEN / "fig3_maps.ndjson")]
        for record, qa_id in zip(records, ids):
            if qa_id is not None:
                record["qa_id"] = qa_id
        _ndjson(bad, records)
        line = max(i for i, qa_id in enumerate(ids) if qa_id is not None)
        record = records[line]
        return (["render", "--maps", bad],
                f"{bad}: qa_id {record['qa_id']} glimpse {record['glimpse']}: {fault}")
    return case


def _refs_with_unmatched_row(tmp_path):
    preds, refs = _fig3_preds_refs(tmp_path)
    lines = _lines(refs)
    bad = tmp_path / "bad_refs.ndjson"
    bad.write_text("".join(lines) + json.dumps({"qa_id": "unmatched", "answers": []}) + "\n")
    return (["eval-acc", "--preds", preds, "--refs", bad],
            f"{bad}:{len(lines) + 1}: qa_id unmatched: expected 10 reference answers, got 0")


def _params_out_in_missing_directory(tmp_path):
    params = tmp_path / "nowhere" / "params.ndjson"
    return (["train-toy", "--steps", 3, "--metrics-out", tmp_path / "metrics.csv",
             "--params-out", params], params, "No such file or directory")


def _render_name_too_long(tmp_path):
    """render whose third map has a qa_id too long for a file name, after
    two PGMs are written."""
    maps = tmp_path / "maps.ndjson"
    records = [json.loads(text) for text in _lines(GOLDEN / "fig3_maps.ndjson")]
    records[2]["qa_id"] = "x" * 300
    _ndjson(maps, records)
    out = tmp_path / "out"
    return (["render", "--maps", maps, "--out-dir", out],
            out / f"{'x' * 300}_g{records[2]['glimpse']}.pgm", "File name too long")


def _out_is_a_directory(tmp_path):
    out = tmp_path / "rank.csv"
    out.mkdir()
    return (["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson",
             "--maps-b", GOLDEN / "fig3_maps.ndjson", "--out", out], out, "it is a directory")


def _manifest_is_a_directory(tmp_path):
    out = tmp_path / "rank.csv"
    manifest = tmp_path / "rank.csv.manifest.json"
    manifest.mkdir()
    return (["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson",
             "--maps-b", GOLDEN / "fig3_maps.ndjson", "--out", out], manifest,
            "it is a directory")


class TestMalformedInput:
    """Each malformed input exits 2 with a message naming the file and the
    line, offset or record, prints no traceback and leaves no output."""

    @pytest.mark.parametrize("case", [
        _truncated_labels, _truncated_maps, _preds_without_answer,
        _maps_without_qa_id("eval-rank"), _maps_without_qa_id("render"),
        _qa_not_json, _qa_record_without_field, _label_without_boxes, _qa_zero_width,
        _mine_qa_zero_width, _preds_with_list_qa_id, _list_qa_id("eval-rank"),
        _list_qa_id("rasterize-labels"), _list_qa_id("rasterize-qa"), _maps_with_negative_cell,
        _maps_with_field("eval-rank", "glimpse", [1]), _maps_with_field("render", "glimpse", [1]),
        _maps_with_field("eval-rank", "glimpse", "0"), _maps_with_field("render", "glimpse", -1),
        _maps_with_field("eval-rank", "glimpse", True), _maps_with_field("eval-rank", "h", 0),
        _maps_with_field("render", "w", "14"), _maps_with_field("eval-rank", "w", 14.0),
        _qa_with_size("image_width", "640"), _qa_with_size("image_height", True),
        _annotation_with_field("region", "width"), _annotation_with_field("object", "names"),
        _annotation_with_field("object", "x", 120.5),
        _annotation_with_field("region", "height", True), _label_with_float_box,
        _maps_with_field("eval-rank", "mask", "false"),
        _maps_with_field("render", "mask", "false"),
        _annotation_with_field("region", "width", 0), _annotation_with_field("object", "h", -3),
        _annotation_with_text("region", "phrase", 7, "a string"),
        _annotation_with_text("object", "names", ["man", 5], "a list of strings"),
        _annotation_with_text("object", "names", "man", "a list of strings"),
        *[_annotation_with_text(kind, f"{kind}_id", value, "a string or an integer")
          for kind in ("region", "object") for value in _BAD_IDS],
        _mine_qa_with("question", 5, "question must be a string, not 5"),
        _mine_qa_with("answer", None, "answer must be a string, not None"),
        _mine_qa_with("image_id", [1], "image_id must be a string or an integer, not [1]"),
        _eval_acc_with("preds", "answer", 5, "a string"),
        _eval_acc_with("refs", "answers", "yyyyyyyyyy", "a list of strings"),
        _mine_qa_with("image_id", True, "image_id must be a string or an integer, not True"),
        _ndjson_with_qa_id("rasterize", None), _ndjson_with_qa_id("eval-rank", True),
        _eval_acc_with("preds", "qa_id", None, "a string or an integer"),
        _maps_with_cell("eval-rank", float("nan")), _maps_with_cell("render", float("nan")),
        _maps_with_cell("eval-rank", float("inf")), _maps_with_cell("render", -float("inf")),
        _maps_with_values("eval-rank", lambda values: [str(v) for v in values], _NOT_NUMBERS),
        _maps_with_values("render", lambda values: [str(v) for v in values], _NOT_NUMBERS),
        _maps_with_values("eval-rank", lambda values: [v > 0 for v in values], _NOT_NUMBERS),
        _maps_with_cell("eval-rank", True, _NOT_NUMBERS),
        _maps_with_values("eval-rank", lambda values: [values[:98], values[98:]], _NOT_NUMBERS),
        _maps_with_cell("eval-rank", 10**400),
        _maps_with_cell("eval-rank", -1.0), _maps_with_cell("eval-rank", -1, line=4),
        _maps_with_cell("render", -0.5, line=4), _maps_with_cell("eval-rank", float("nan"), line=4),
        _maps_with_cell("render", float("inf"), line=4),
        _nested_too_deeply("rasterize"), _nested_too_deeply("mine"),
        _maps_row_not_an_object, _not_an_object("qa", [1, 2]), _not_an_object("entry", 5),
        _not_an_object("regions", 5), _not_an_object("region", [1, 2]),
        _not_an_object("maps", [1, 2]), _not_an_object("labels", 7),
        _with_repeated_line("eval-rank"), _with_repeated_line("render"),
        _with_repeated_line("rasterize"), _with_repeated_line("eval-acc"),
        _qa_with_repeated_qa_id("mine"), _qa_with_repeated_qa_id("rasterize"),
        _mine_qa_with("image_id", 1.0, "image_id must be a string or an integer, not 1.0"),
        _annotation_entry_with_image_id("region", 1.0),
        _annotation_entry_with_image_id("object", True),
        _label_with("is_counting", "false", "a bool"),
        _label_with("region_match_count", "two", "an integer >= 0"),
        _label_with("matched_words", [["a"]], "a list of 3-string lists"),
        _label_with("region_boxes", [[300, 300, 10, 10]], _BOXES),
        _render_with_qa_ids(["../escaped"], "file name '../escaped_g0.pgm' contains '/' or NUL"),
        _render_with_qa_ids([None, None, "a\0b"], "file name 'a\\x00b_g0.pgm' contains '/' or NUL"),
        _render_with_qa_ids([1, None, "1"],
                            "file name '1_g0.pgm' is that of the earlier map (1, 0)"),
        _refs_with_unmatched_row, _with_alike_qa_ids("eval-rank-a"),
        _with_alike_qa_ids("eval-rank-b"), _with_alike_qa_ids("eval-acc"),
        _lexicon_file_not_utf8("index.noun", None, b"\xe9"),
        _lexicon_file_not_utf8("noun.exc", 3, b"\xff"),
        _lexicon_file_not_utf8("aliases.txt", 2, b"\xff"), _input_not_utf8("rasterize"),
        _input_not_utf8("eval-rank"), _input_not_utf8("mine"),
    ], ids=["truncated-labels", "truncated-maps", "preds-without-answer",
            "maps-without-qa_id-eval-rank", "maps-without-qa_id-render",
            "qa-not-json", "qa-record-without-field", "label-without-boxes",
            "qa-zero-width", "mine-qa-zero-width", "preds-list-qa_id", "maps-list-qa_id",
            "labels-dict-qa_id", "qa-list-qa_id", "render-negative-cell",
            "maps-list-glimpse-eval-rank", "maps-list-glimpse-render", "maps-string-glimpse", "maps-negative-glimpse",
            "maps-bool-glimpse", "maps-zero-h", "maps-string-w", "maps-float-w",
            "qa-string-width", "qa-bool-height", "region-without-width",
            "object-without-names", "object-float-x", "region-bool-height",
            "label-float-box", "maps-string-mask-eval-rank", "maps-string-mask-render",
            "region-zero-width", "object-negative-h", "region-int-phrase",
            "object-int-name", "object-string-names",
            *[f"{kind}-{name}-{kind}_id" for kind in ("region", "object")
              for name in ("null", "nan", "list", "dict", "float")],
            "mine-qa-int-question",
            "mine-qa-null-answer", "mine-qa-list-image_id", "preds-int-answer",
            "refs-string-answers", "mine-qa-bool-image_id", "labels-null-qa_id",
            "maps-bool-qa_id", "preds-null-qa_id", "maps-nan-cell-eval-rank",
            "maps-nan-cell-render", "maps-infinity-cell-eval-rank",
            "maps-minus-infinity-cell-render", "maps-string-cells-eval-rank",
            "maps-string-cells-render", "maps-bool-cells-eval-rank", "maps-bool-cell-eval-rank",
            "maps-nested-values-eval-rank", "maps-huge-integer-cell-eval-rank",
            "maps-negative-cell-eval-rank", "maps-masked-negative-cell-eval-rank",
            "maps-masked-negative-cell-render", "maps-masked-nan-cell-eval-rank",
            "maps-masked-infinity-cell-render", "labels-nested-too-deeply",
            "mine-qa-nested-too-deeply",
            "maps-row-not-an-object-eval-rank", "mine-qa-list-record", "region-int-entry",
            "region-entry-int-regions", "region-list-record", "maps-list-row", "labels-int-line",
            "maps-repeated-row-eval-rank",
            "maps-repeated-row-render", "labels-repeated-qa_id", "preds-repeated-qa_id",
            "mine-qa-repeated-qa_id", "rasterize-qa-repeated-qa_id", "mine-qa-float-image_id",
            "region-entry-float-image_id", "object-entry-bool-image_id",
            "labels-string-is_counting", "labels-string-region_match_count",
            "labels-short-matched_words", "labels-inverted-region_box",
            "render-qa_id-escapes-out-dir",
            "render-qa_id-with-nul", "render-file-name-collision", "refs-unmatched-short-row",
            "maps-a-alike-qa_ids", "maps-b-alike-qa_ids", "preds-alike-qa_ids",
            "index-noun-not-utf8", "noun-exc-not-utf8", "aliases-not-utf8",
            "labels-not-utf8", "maps-a-not-utf8", "qa-not-utf8"])
    def test_exit_2_names_file_and_line(self, run_cli, tmp_path, case):
        argv, expected = case(tmp_path)
        out = tmp_path / "out"
        code, _, err = run_cli(*argv, "--out-dir" if argv[0] == "render" else "--out", out)
        assert code == 2
        assert expected in err
        assert "Traceback" not in err
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("case", [
        _params_out_in_missing_directory, _render_name_too_long, _out_is_a_directory,
        _manifest_is_a_directory,
    ], ids=["train-toy-params-out-missing-directory", "render-name-too-long",
            "eval-rank-out-is-a-directory", "eval-rank-manifest-is-a-directory"])
    def test_unwritable_output_exit_2_leaves_no_new_file(self, run_cli, tmp_path, case):
        argv, target, reason = case(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        code, _, err = run_cli(*argv)
        assert code == 2
        assert f"cannot write {target}: {reason}" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("flags,message", [
        (["--samples", 0], "--samples: n must be >= 1"),
        (["--channels", 4], "--channels, --answers: need image_channels >= num_answers + 1"),
        (["--grid", 1, 1], "--grid: need grid_h * grid_w >= 2"),
        (["--grid", 0, 3], "--grid: grid_h must be >= 1"),
        (["--answers", 0], "--answers: num_answers must be >= 1"),
        (["--question-dim", 0], "--question-dim: question_dim must be >= 1"),
        (["--t-max", 0], "--t-max: t_max must be >= 1"),
        (["--alpha-mode", "fixed", "--alpha-value", 2], "--alpha-value: fixed alpha must be"),
    ], ids=["samples-0", "channels-below-answers", "grid-1x1", "grid-0", "answers-0",
            "question-dim-0", "t-max-0", "alpha-value-2"])
    def test_train_toy_bad_data_flags_exit_2(self, run_cli, tmp_path, flags, message):
        with time_limit(10):  # a 1x1 grid drew planted boxes forever
            code, _, err = run_cli("train-toy", *flags, "--steps", 5,
                                   "--metrics-out", tmp_path / "m.csv")
        assert code == 2
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags,message", [
        (["--iou-threshold", 0], "--iou-threshold: iou_threshold must be in (0, 1]"),
        (["--iou-threshold", 1.5], "--iou-threshold: iou_threshold must be in (0, 1]"),
        (["--min-region-matches", 0], "--min-region-matches: min_region_matches must be >= 1"),
    ], ids=["iou-threshold-0", "iou-threshold-1.5", "min-region-matches-0"])
    def test_mine_bad_config_flags_exit_2(self, run_cli, tmp_path, flags, message):
        code, _, err = run_cli(*MINE_ARGS, *flags, "--out", tmp_path / "labels.ndjson")
        assert code == 2
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestNoPartialOutput:
    def test_rasterize_label_missing_from_qa_leaves_nothing(self, run_cli, tmp_path):
        qa = tmp_path / "qa.json"
        qa.write_text(json.dumps(json.loads((FIG3 / "qa.json").read_text())[:1]))
        out = tmp_path / "maps.ndjson"
        code, _, err = run_cli("rasterize", "--labels", GOLDEN / "fig3_labels.ndjson",
                               "--qa", qa, "--out", out)
        assert code == 2
        assert "qa_id qa2 missing from qa file" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["qa.json"]

    def test_failed_write_keeps_previous_output(self, run_cli, tmp_path):
        out = tmp_path / "maps.ndjson"
        out.write_text("previous\n")
        qa = tmp_path / "qa.json"
        qa.write_text(json.dumps(json.loads((FIG3 / "qa.json").read_text())[:1]))
        code, _, _ = run_cli("rasterize", "--labels", GOLDEN / "fig3_labels.ndjson",
                             "--qa", qa, "--out", out)
        assert code == 2
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["maps.ndjson", "qa.json"]

    def test_rasterize_over_the_staged_files_of_a_killed_run(self, run_cli, tmp_path):
        """SIGKILL leaves a run's staged ``.tmp`` files behind, since nothing
        unwinds; the next run writes over them as if they were not there."""
        argv = ["rasterize", "--labels", GOLDEN / "fig3_labels.ndjson", "--qa", FIG3 / "qa.json",
                "--out"]
        clean, stale = tmp_path / "clean", tmp_path / "stale"
        for directory in (clean, stale):
            directory.mkdir()
        names = ["maps.ndjson", "maps.ndjson.manifest.json"]
        for name in names:  # junk longer than the output, so an untruncated file shows
            (stale / f"{name}.tmp").write_bytes(b"\x00junk\xff\n" * 10_000)
        for directory in (clean, stale):
            code, _, err = run_cli(*argv, directory / "maps.ndjson")
            assert code == 0, err
        assert sorted(p.name for p in stale.iterdir()) == names
        for name in names:
            assert (stale / name).read_bytes() == (clean / name).read_bytes()

    @pytest.mark.parametrize("argv,manifest", [
        ([*MINE_ARGS, "--out", "labels.ndjson"], "labels.ndjson.manifest.json"),
        (["train-toy", "--steps", 3, "--metrics-out", "metrics.csv"],
         "metrics.csv.manifest.json"),
        (["render", "--maps", GOLDEN / "fig3_maps.ndjson", "--out-dir", "pgm"],
         "pgm/render.manifest.json"),
    ], ids=["mine", "train-toy", "render"])
    def test_failed_manifest_prints_no_summary(self, run_cli, tmp_path, argv, manifest):
        (tmp_path / manifest).mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        code, out, err = run_cli(*argv[:-1], tmp_path / argv[-1])
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {tmp_path / manifest}: it is a directory\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("params_out", ["out.csv", "out.csv.manifest.json"],
                             ids=["metrics", "manifest"])
    def test_two_outputs_on_one_path_exit_2(self, run_cli, tmp_path, params_out):
        # the second rename failed: exit 1, a traceback and out.csv holding the params
        code, out, err = run_cli("train-toy", "--steps", 5, "--metrics-out", tmp_path / "out.csv",
                                 "--params-out", tmp_path / params_out)
        assert code == 2
        assert out == ""
        assert err == (f"error: cannot write {tmp_path / params_out}: its name clashes with "
                       "another output of this command\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        MINE_ARGS,
        ["rasterize", "--labels", GOLDEN / "fig3_labels.ndjson", "--qa", FIG3 / "qa.json"],
        ["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson",
         "--maps-b", GOLDEN / "fig3_maps.ndjson"],
    ], ids=["mine", "rasterize", "eval-rank"])
    def test_out_in_missing_directory_exit_2(self, run_cli, tmp_path, argv):
        out = tmp_path / "nowhere" / "out.txt"
        code, _, err = run_cli(*argv, "--out", out)
        assert code == 2
        assert f"cannot write {out}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


# Runs ``main(argv)`` with a hook that sends the process a signal: on the third call of
# ``cli.<name>`` or, for ``os.replace``, on the first rename of the completed block.
_SIGNAL_SCRIPT = """
import json, os, signal, sys
from vgmine import cli
argv, name, signame = json.loads(sys.argv[1])
owner, at = (os, 1) if name == "replace" else (cli, 3)
real, calls = getattr(owner, name), []
def hooked(*args):
    calls.append(args)
    if len(calls) == at:
        os.kill(os.getpid(), getattr(signal, signame))
    return real(*args)
setattr(owner, name, hooked)
sys.exit(cli.main(argv))
"""


class TestSignals:
    """SIGTERM and SIGHUP unwind a command: its ``commit`` block removes what it staged
    and ``main`` returns 128 + the signal; a signal during the block's renames waits
    for them."""

    def _run(self, argv, name, signame):
        src = Path(__file__).resolve().parents[1] / "src"
        return subprocess.run([sys.executable, "-c", _SIGNAL_SCRIPT,
                               json.dumps([[str(a) for a in argv], name, signame])],
                              env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                              text=True, timeout=60)

    def _rasterize_inputs(self, tmp_path):
        """Labels for three rasterize blocks and their QA records."""
        count = 3 * BLOCK_SIZE
        labels = _ndjson(tmp_path / "labels.ndjson", [
            {"qa_id": i, "region_boxes": [[0, 0, 9, 9]], "object_boxes": [[i % 50, 2, 60, 40]],
             "is_counting": False, "region_match_count": 1, "matched_words": []}
            for i in range(count)])
        qa = tmp_path / "qa.json"
        qa.write_text(json.dumps([{"qa_id": i, "image_id": 1, "question": "q", "answer": "a",
                                   "image_width": 64, "image_height": 48}
                                  for i in range(count)]))
        return ["rasterize", "--labels", labels, "--qa", qa]

    @pytest.mark.parametrize("signame,code", [("SIGTERM", 143), ("SIGHUP", 129)])
    def test_signal_mid_write_leaves_no_output(self, tmp_path, signame, code):
        argv = self._rasterize_inputs(tmp_path)
        done = self._run([*argv, "--out", tmp_path / "maps.ndjson"],
                         "stack_to_rows", signame)
        assert (done.returncode, done.stdout, done.stderr) == (code, "", "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.ndjson", "qa.json"]

    def test_signal_mid_render_removes_the_directories_it_made(self, tmp_path):
        done = self._run(["render", "--maps", GOLDEN / "fig3_maps.ndjson",
                                    "--out-dir", tmp_path / "pgm" / "maps"],
                         "pgm_bytes", "SIGTERM")
        assert (done.returncode, done.stderr) == (143, "")
        assert list(tmp_path.iterdir()) == []

    def test_signal_during_the_renames_leaves_every_output(self, tmp_path):
        argv = self._rasterize_inputs(tmp_path)
        done = self._run([*argv, "--out", tmp_path / "maps.ndjson"],
                         "replace", "SIGTERM")
        assert (done.returncode, done.stderr) == (143, "")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "labels.ndjson", "maps.ndjson", "maps.ndjson.manifest.json", "qa.json"]
        assert len(_lines(tmp_path / "maps.ndjson")) == 2 * 3 * BLOCK_SIZE

    def test_main_restores_the_callers_handlers(self, run_cli, monkeypatch):
        def caller(signum, frame):
            pass

        seen = []
        monkeypatch.setattr(vgmine.cli, "_require_file",
                            lambda *a: seen.append(signal.getsignal(signal.SIGTERM)) or Path(a[0]))
        before = {signum: signal.signal(signum, caller) for signum in INTERRUPTS}
        try:
            code, _, _ = run_cli("eval-rank", "--maps-a", "missing", "--maps-b", "missing")
            after = {signum: signal.getsignal(signum) for signum in INTERRUPTS}
        finally:
            for signum, handler in before.items():
                signal.signal(signum, handler)
        assert code == 2
        assert seen and seen[0] is not caller
        assert after == {signum: caller for signum in INTERRUPTS}

    def test_main_in_another_thread_installs_no_handler(self, tmp_path):
        codes = []
        thread = threading.Thread(target=lambda: codes.append(vgmine.cli.main(
            ["eval-rank", "--maps-a", str(GOLDEN / "fig3_maps.ndjson"),
             "--maps-b", str(GOLDEN / "fig3_maps.ndjson"), "--out", str(tmp_path / "r.csv")])))
        before = signal.getsignal(signal.SIGTERM)
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        assert codes == [0]
        assert signal.getsignal(signal.SIGTERM) is before


# --- fuzzed NDJSON inputs --------------------------------------------------

def _fuzz_targets(inputs):
    """(file to mutate, function from the mutated file and the output to argv)."""
    maps, labels = GOLDEN / "fig3_maps.ndjson", GOLDEN / "fig3_labels.ndjson"
    preds, refs = inputs / "preds.ndjson", inputs / "refs.ndjson"
    return [
        (labels, lambda bad, out: ["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json",
                                   "--out", out]),
        (maps, lambda bad, out: ["eval-rank", "--maps-a", maps, "--maps-b", bad,
                                 "--out", out]),
        (maps, lambda bad, out: ["render", "--maps", bad, "--out-dir", out]),
        (preds, lambda bad, out: ["eval-acc", "--preds", bad, "--refs", refs,
                                  "--out", out]),
        (refs, lambda bad, out: ["eval-acc", "--preds", preds, "--refs", bad,
                                 "--out", out]),
    ]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz_inputs")
    _fig3_preds_refs(directory)
    return directory


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_ndjson_exits_0_or_2_and_leaves_no_partial_output(fuzz_inputs, data):
    from vgmine.cli import main

    source, command = data.draw(st.sampled_from(_fuzz_targets(fuzz_inputs)))
    raw = source.read_bytes()
    mutation = data.draw(st.sampled_from(["truncate", "drop", "non-finite", "repeat"]),
                         label="mutation")
    if mutation == "truncate":
        mutated = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
    else:
        lines = raw.decode().splitlines(keepends=True)
        index = data.draw(st.integers(0, len(lines) - 1), label="line")
        if mutation == "repeat":
            lines.insert(data.draw(st.integers(0, len(lines)), label="at"), lines[index])
        else:
            record = json.loads(lines[index])
            key = data.draw(st.sampled_from(sorted(record)), label="key")
            if mutation == "drop":
                del record[key]
            else:  # json.dumps writes NaN, Infinity and -Infinity
                value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
                owner, slot = record, key
                if isinstance(record[key], list) and record[key]:
                    owner, slot = record[key], data.draw(
                        st.integers(0, len(record[key]) - 1), label="cell")
                owner[slot] = value
            lines[index] = json.dumps(record) + "\n"
        mutated = "".join(lines).encode()

    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / source.name
        bad.write_bytes(mutated)
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(a) for a in command(bad, out)])
        assert code in (0, 2), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        if code == 2:
            assert sorted(p.name for p in Path(tmp).iterdir()) == [bad.name]


# --- fuzzed corpus files ---------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=4)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_fuzzed_corpus_exits_0_or_2_and_leaves_no_partial_output(data):
    """``mine`` on Fig. 3 with one field of one QA record, annotation entry
    or region or object record set to a JSON value or dropped; a field of
    None stands for the record or entry itself."""
    from vgmine.cli import main

    files = {name: json.loads((FIG3 / f"{name}.json").read_text())
             for name in ("qa", "regions", "objects")}
    name = data.draw(st.sampled_from(sorted(files)), label="file")
    parent = files[name]
    index = data.draw(st.integers(0, len(parent) - 1), label="entry")
    if name != "qa" and data.draw(st.booleans(), label="inner record"):
        parent = parent[index][name]
        index = data.draw(st.integers(0, len(parent) - 1), label="record")
    record = parent[index]
    key = data.draw(st.sampled_from([None] + sorted(record)), label="field")
    owner, slot = (parent, index) if key is None else (record, key)
    if data.draw(st.booleans(), label="drop"):
        del owner[slot]
    else:
        owner[slot] = data.draw(JSON_VALUES, label="value")

    with tempfile.TemporaryDirectory() as tmp:
        argv = [str(a) for a in MINE_ARGS]
        for kind, content in files.items():
            path = Path(tmp) / f"{kind}.json"
            path.write_text(json.dumps(content))
            argv[argv.index(f"--{kind}") + 1] = str(path)
        out = Path(tmp) / "labels.ndjson"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        assert code in (0, 2), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        left = {p.name for p in Path(tmp).iterdir()} - {f"{kind}.json" for kind in files}
        assert left == ({out.name, out.name + ".manifest.json"} if code == 0 else set())


# --- the paused collector --------------------------------------------------

@pytest.fixture()
def collector():
    """Gives the collector back enabled, as the test session runs it."""
    yield
    gc.enable()


def _acc_command(monkeypatch, body):
    """``eval-acc`` with its command replaced by ``body``; returns its argv."""
    def command(args):
        body()
        return None, {}, [], "done"

    monkeypatch.setattr("vgmine.cli.cmd_eval_acc", command)
    return ["eval-acc", "--preds", "p", "--refs", "r"]


def _raise():
    raise RuntimeError("boom")


class TestPausedCollector:
    def test_command_runs_with_the_collector_off(self, run_cli, monkeypatch, collector):
        seen = []
        code, out, _ = run_cli(*_acc_command(monkeypatch, lambda: seen.append(gc.isenabled())))
        assert (code, out, seen) == (0, "done\n", [False])
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("argv,exit_code", [
        (lambda mp: _acc_command(mp, lambda: None), 0),
        (lambda mp: ["eval-acc", "--preds", "missing.ndjson", "--refs", "missing.ndjson"], 2),
        (lambda mp: _acc_command(mp, _raise), 1),
        (lambda mp: ["--help"], 0),
        (lambda mp: ["mine", "--no-such-flag"], 2),
    ], ids=["exit-0", "exit-2", "exit-1-raises", "help", "unknown-flag"])
    def test_main_leaves_the_collector_as_it_found_it(self, run_cli, monkeypatch, collector,
                                                       enabled, argv, exit_code):
        (gc.enable if enabled else gc.disable)()
        code, _, _ = run_cli(*argv(monkeypatch))
        assert code == exit_code
        assert gc.isenabled() is enabled

    def test_only_the_cli_imports_gc(self):
        package = Path(vgmine.miner.__file__).parent
        importers = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module] if isinstance(node, ast.ImportFrom) else [])
                if "gc" in names:
                    importers.add(path.name)
        assert importers == {"cli.py"}


def _xywh(box, keys):
    return dict(zip(keys, (box.x_min, box.y_min, box.x_max - box.x_min + 1,
                           box.y_max - box.y_min + 1)))


def _write_corpus(directory, copies):
    """``copies`` seeded ``dense_corpus`` datasets side by side, with their
    image and record ids made distinct, as the three corpus JSON files."""
    regions, objects, qa = [], [], []
    for copy in range(copies):
        dataset, offset = dense_corpus(np.random.default_rng(copy)), 10_000 * copy
        for image_id, anns in dataset.regions_by_image.items():
            regions.append({"image_id": image_id + offset, "regions": [
                {"region_id": r.region_id + offset, "phrase": r.phrase,
                 **_xywh(r.box, ("x", "y", "width", "height"))} for r in anns]})
        for image_id, anns in dataset.objects_by_image.items():
            objects.append({"image_id": image_id + offset, "objects": [
                {"object_id": o.object_id + offset, "names": list(o.names),
                 **_xywh(o.box, ("x", "y", "w", "h"))} for o in anns]})
        qa += [{**t._asdict(), "image_id": t.image_id + offset, "qa_id": t.qa_id + offset}
               for t in dataset.triplets]
    for name, payload in (("regions", regions), ("objects", objects), ("qa", qa)):
        (directory / f"{name}.json").write_text(json.dumps(payload))


def _random_maps(path, rng, count):
    return _ndjson(path, [{"qa_id": i, "glimpse": 0, "h": 14, "w": 14, "mask": True,
                           "values": rng.random(196).tolist()} for i in range(count)])


def _scaled_commands(directory, copies):
    """Every command's argv on inputs that grow with ``copies``."""
    _write_corpus(directory, copies)
    rng = np.random.default_rng(copies)
    maps_a = _random_maps(directory / "a.ndjson", rng, 20 * copies)
    maps_b = _random_maps(directory / "b.ndjson", rng, 20 * copies)
    preds = _ndjson(directory / "preds.ndjson",
                    [{"qa_id": i, "answer": "yes"} for i in range(20 * copies)])
    refs = _ndjson(directory / "refs.ndjson",
                   [{"qa_id": i, "answers": ["yes", "no"] * 5} for i in range(20 * copies)])
    labels, out = directory / "labels.ndjson", directory / "out"
    return {
        "mine": ["mine", "--regions", directory / "regions.json",
                 "--objects", directory / "objects.json", "--qa", directory / "qa.json",
                 "--wordnet-dir", WORDNET_DIR, "--aliases", ALIASES, "--out", labels,
                 "--min-region-matches", 1],
        "rasterize": ["rasterize", "--labels", labels, "--qa", directory / "qa.json",
                      "--out", out],
        "eval-rank": ["eval-rank", "--maps-a", maps_a, "--maps-b", maps_b, "--out", out],
        "eval-acc": ["eval-acc", "--preds", preds, "--refs", refs, "--out", out],
        "train-toy": ["train-toy", "--samples", 8 * copies, "--steps", 20,
                      "--metrics-out", out],
        "render": ["render", "--maps", maps_a, "--out-dir", directory / "pgm"],
    }


def test_cyclic_garbage_per_command_does_not_grow_with_the_input(tmp_path, collector):
    """The collector is paused during a command because what a command keeps
    is freed by reference counting; the cyclic garbage it leaves (argparse's
    parser) is the same for inputs 4x larger. ``mine`` runs first, since
    ``rasterize`` reads its labels."""
    from vgmine.cli import main

    garbage = {1: {}, 4: {}}
    for copies, counts in garbage.items():
        directory = tmp_path / f"x{copies}"
        directory.mkdir()
        for name, argv in _scaled_commands(directory, copies).items():
            gc.disable()
            gc.collect()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([str(a) for a in argv])
            assert code == 0, name
            counts[name] = gc.collect()
    assert garbage[4] == garbage[1]
