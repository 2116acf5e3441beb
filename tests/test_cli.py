import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vgmine.attention import AttentionMap

from conftest import ALIASES, FIG3, GOLDEN, WORDNET_DIR
from oracles import brute_force_rasterize, pgm_reference

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
            assert float(corr) == pytest.approx(expected, abs=1e-9)


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


class TestMalformedInput:
    """Each malformed input exits 2 with a message naming the file and the
    line, offset or record, prints no traceback and leaves no output."""

    @pytest.mark.parametrize("case", [
        _truncated_labels, _truncated_maps, _preds_without_answer,
        _maps_without_qa_id("eval-rank"), _maps_without_qa_id("render"),
        _qa_not_json, _qa_record_without_field,
    ], ids=["truncated-labels", "truncated-maps", "preds-without-answer",
            "maps-without-qa_id-eval-rank", "maps-without-qa_id-render",
            "qa-not-json", "qa-record-without-field"])
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
