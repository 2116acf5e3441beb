import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vgmine.attention import AttentionMap
from vgmine.dataset import BoundingBox

from conftest import ALIASES, FIG3, GOLDEN, WORDNET_DIR
from oracles import brute_force_rasterize, pgm_reference, reference_eval_rank

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
        for row in read_maps(maps):
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

    @pytest.mark.parametrize("faults,reported", [
        ([(70, "no-boxes"), (100, "missing-qa")], 70),
        ([(70, "missing-qa"), (100, "no-boxes")], 70),
        ([(100, "no-boxes"), (70, "zero-size")], 70),
        ([(5, "zero-size"), (3, "no-boxes")], 3),
    ], ids=["boxes-then-qa", "qa-then-boxes", "size-then-boxes", "one-block"])
    def test_first_faulty_label_in_file_order_is_reported(self, run_cli, tmp_path,
                                                          faults, reported):
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
                messages[line] = f"label qa_id {label['qa_id']} missing from qa file"
            else:
                by_id[label["qa_id"]]["image_height"] = 0
                messages[line] = (f"{tmp_path / 'qa.json'}: qa_id {label['qa_id']}: "
                                  "image dimensions must be >= 1")
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
        rows = read_maps(fig3_maps)
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

    def test_invalid_config_exit_2(self, run_cli, tmp_path):
        code, _, err = run_cli("train-toy", "--learning-rate", 0,
                               "--metrics-out", tmp_path / "m.csv")
        assert code == 2
        assert "learning_rate" in err


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

    @pytest.mark.parametrize("faults,reported", [
        ([(70, "constant"), (100, "negative")], 70),
        ([(100, "constant"), (70, "shape")], 70),
        ([(10, "negative"), (20, "constant")], 10),
        ([(20, "negative"), (10, "constant")], 10),
        ([(30, "shape"), (12, "negative-b")], 12),
    ], ids=["constant-then-negative", "shape-then-constant", "negative-then-constant",
            "constant-then-negative-one-block", "negative-in-b-then-shape"])
    def test_first_faulty_pair_in_order_is_reported(self, run_cli, tmp_path, faults,
                                                    reported):
        rng = np.random.default_rng(51)
        rows_a, rows_b = [], []
        for i in range(130):
            for rows in (rows_a, rows_b):
                rows.append({"qa_id": f"p{i:03d}", "glimpse": 0, "h": 7, "w": 7,
                             "values": rng.choice([0.0, 0.5, 1.0], 49).tolist()})
                rows[-1]["values"][:2] = [0.0, 1.0]
        messages = {
            "constant": "undefined correlation: constant map",
            "negative": "attention map entries must be non-negative",
            "negative-b": "attention map entries must be non-negative",
            "shape": "map shape mismatch",
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
        code, _, err = run_cli("eval-rank", "--maps-a", _ndjson(tmp_path / "a.ndjson", rows_a),
                               "--maps-b", _ndjson(tmp_path / "b.ndjson", rows_b),
                               "--out", out)
        assert code == 2
        assert err == f"error: qa_id p{reported:03d} glimpse 0: {messages[dict(faults)[reported]]}\n"
        assert not out.exists()


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
            f"{bad}: record 1: bad QA record: KeyError('image_width')")


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
            f"{bad}: qa_id qa2: image dimensions must be >= 1")


def _preds_with_list_qa_id(tmp_path):
    preds, refs = _fig3_preds_refs(tmp_path)
    bad = tmp_path / "bad_preds.ndjson"
    _ndjson(bad, [{"qa_id": "qa1", "answer": "x"}, {"qa_id": [1], "answer": "x"}])
    return (["eval-acc", "--preds", bad, "--refs", refs],
            f"{bad}:2: qa_id must be a string or a number, not list")


def _list_qa_id(command):
    def case(tmp_path):
        if command == "eval-rank":
            bad = tmp_path / "maps.ndjson"
            records = [json.loads(text) for text in _lines(GOLDEN / "fig3_maps.ndjson")]
            records[1]["qa_id"] = [1]
            _ndjson(bad, records)
            return (["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson", "--maps-b", bad],
                    f"{bad}:2: qa_id must be a string or a number, not list")
        if command == "rasterize-labels":
            bad = tmp_path / "labels.ndjson"
            records = [json.loads(text) for text in _lines(GOLDEN / "fig3_labels.ndjson")]
            records[1]["qa_id"] = {"id": 1}
            _ndjson(bad, records)
            return (["rasterize", "--labels", bad, "--qa", FIG3 / "qa.json"],
                    f"{bad}:2: qa_id must be a string or a number, not dict")
        bad = tmp_path / "qa.json"
        qa = json.loads((FIG3 / "qa.json").read_text())
        qa[1]["qa_id"] = [1]
        bad.write_text(json.dumps(qa))
        return (["rasterize", "--labels", GOLDEN / "fig3_labels.ndjson", "--qa", bad],
                f"{bad}: record 1: bad QA record: "
                "TypeError('qa_id must be a string or a number, not list')")
    return case


def _maps_with_negative_cell(tmp_path):
    bad = tmp_path / "maps.ndjson"
    records = [json.loads(text) for text in _lines(GOLDEN / "fig3_maps.ndjson")]
    records[2]["values"][0] = -1.0
    _ndjson(bad, records)
    return (["render", "--maps", bad],
            f"{bad}: qa_id qa2 glimpse 0: attention map entries must be non-negative")


def _maps_with_field(command, key, value):
    def case(tmp_path):
        bad = tmp_path / "maps.ndjson"
        records = [json.loads(text) for text in _lines(GOLDEN / "fig3_maps.ndjson")]
        records[1][key] = value
        _ndjson(bad, records)
        least = 0 if key == "glimpse" else 1
        expected = f"{bad}:2: {key} must be an integer >= {least}, not {value!r}"
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
        error = TypeError(f"{key} must be an integer, not {value!r}")
        return (["rasterize", "--labels", GOLDEN / "fig3_labels.ndjson", "--qa", bad],
                f"{bad}: record 1: bad QA record: {error!r}")
    return case


def _annotation_without_field(kind, key):
    def case(tmp_path):
        name = "regions" if kind == "region" else "objects"
        bad = tmp_path / f"{name}.json"
        entries = json.loads((FIG3 / f"{name}.json").read_text())
        del entries[0][name][2][key]
        bad.write_text(json.dumps(entries))
        argv = [str(a) for a in MINE_ARGS]
        argv[argv.index(f"--{name}") + 1] = str(bad)
        return argv, f"{bad}: entry 0: {kind} 2: bad {kind} record: missing field '{key}'"
    return case


class TestMalformedInput:
    """Each malformed input exits 2 with a message naming the file and the
    line, offset or record, prints no traceback and leaves no output."""

    @pytest.mark.parametrize("case", [
        _truncated_labels, _truncated_maps, _preds_without_answer,
        _maps_without_qa_id("eval-rank"), _maps_without_qa_id("render"),
        _qa_not_json, _qa_record_without_field, _label_without_boxes, _qa_zero_width,
        _preds_with_list_qa_id, _list_qa_id("eval-rank"), _list_qa_id("rasterize-labels"),
        _list_qa_id("rasterize-qa"), _maps_with_negative_cell,
        _maps_with_field("eval-rank", "glimpse", [1]), _maps_with_field("render", "glimpse", [1]),
        _maps_with_field("eval-rank", "glimpse", "0"), _maps_with_field("render", "glimpse", -1),
        _maps_with_field("eval-rank", "glimpse", True), _maps_with_field("eval-rank", "h", 0),
        _maps_with_field("render", "w", "14"), _maps_with_field("eval-rank", "w", 14.0),
        _qa_with_size("image_width", "640"), _qa_with_size("image_height", True),
        _annotation_without_field("region", "width"),
        _annotation_without_field("object", "names"),
    ], ids=["truncated-labels", "truncated-maps", "preds-without-answer",
            "maps-without-qa_id-eval-rank", "maps-without-qa_id-render",
            "qa-not-json", "qa-record-without-field", "label-without-boxes",
            "qa-zero-width", "preds-list-qa_id", "maps-list-qa_id", "labels-dict-qa_id",
            "qa-list-qa_id", "render-negative-cell", "maps-list-glimpse-eval-rank",
            "maps-list-glimpse-render", "maps-string-glimpse", "maps-negative-glimpse",
            "maps-bool-glimpse", "maps-zero-h", "maps-string-w", "maps-float-w",
            "qa-string-width", "qa-bool-height", "region-without-width",
            "object-without-names"])
    def test_exit_2_names_file_and_line(self, run_cli, tmp_path, case):
        argv, expected = case(tmp_path)
        out = tmp_path / "out"
        code, _, err = run_cli(*argv, "--out-dir" if argv[0] == "render" else "--out", out)
        assert code == 2
        assert expected in err
        assert "Traceback" not in err
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("flags,message", [
        (["--samples", 0], "n must be >= 1"),
        (["--channels", 4], "need image_channels >= num_answers + 1"),
    ], ids=["samples-0", "channels-below-answers"])
    def test_train_toy_bad_data_flags_exit_2(self, run_cli, tmp_path, flags, message):
        code, _, err = run_cli("train-toy", *flags, "--metrics-out", tmp_path / "m.csv")
        assert code == 2
        assert message in err
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
    if data.draw(st.booleans(), label="truncate"):
        mutated = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
    else:
        records = [json.loads(line) for line in raw.decode().splitlines()]
        index = data.draw(st.integers(0, len(records) - 1), label="record")
        del records[index][data.draw(st.sampled_from(sorted(records[index])), label="key")]
        mutated = "".join(json.dumps(r) + "\n" for r in records).encode()

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
