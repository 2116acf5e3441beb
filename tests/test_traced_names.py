"""The benchmark's tracer wraps vgmine functions by name; a renamed or
deleted name fails here, not only in a benchmark run. So does a result
hook that reads a result field the program no longer returns."""

from conftest import ALIASES, FIG3, WORDNET_DIR, load_perfbench


def _tracer():
    return load_perfbench("tracing").Tracer()


def test_every_traced_name_exists():
    tracer = _tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.unpatch()


def test_every_result_hook_runs(lexicon, run_cli, tmp_path):
    tracer = _tracer()
    try:
        tracer.install()
        tracer.begin_pass()
        lexicon.words_match("men", "people")
        code, _, err = run_cli("mine", "--regions", FIG3 / "regions.json",
                               "--objects", FIG3 / "objects.json", "--qa", FIG3 / "qa.json",
                               "--wordnet-dir", WORDNET_DIR, "--aliases", ALIASES,
                               "--out", tmp_path / "labels.ndjson")
        assert code == 0, err
        code, _, err = run_cli("train-toy", "--steps", 2,
                               "--metrics-out", tmp_path / "metrics.csv")
        assert code == 0, err
    finally:
        tracer.unpatch()
    assert tracer.counts == {"lexicon.words_match_hits": 1, "dataset.boxes_clamped": 0,
                             "miner.triplets": 2, "miner.labels": 2,
                             "toymodel.sample_steps": 16}
