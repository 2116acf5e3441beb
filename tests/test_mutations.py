"""Every JSON scalar of the Fig. 3 inputs, golden labels and golden maps,
and every whole record, line and annotation list of them, replaced in turn
by each bad value, through ``cli.main`` in this process.

Each mutation either exits 2 with a message naming the file and the record
or line, no traceback and no output, or is on ``ACCEPTED``: a value that
the input's format allows there, which the command reads as it reads any
other.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil

import pytest

from vgmine.cli import main

from conftest import ALIASES, FIG3, GOLDEN, WORDNET_DIR

# the bad values as JSON text: ``json`` reads NaN as a float NaN, 1e400 as
# infinity and 10**400 as an integer that no float64 holds
VALUES = {"true": "true", "null": "null", "x": '"x"', "1.5": "1.5", "-1": "-1",
          "10**30": "1" + "0" * 30, "10**400": "1" + "0" * 400, "[]": "[]", "{}": "{}",
          "NaN": "NaN", "1e400": "1e400"}
_SENTINEL = "\0mutated\0"
_INTS = {"-1", "10**30", "10**400"}
_BIG = {"10**30", "10**400"}

# (input, field) -> (values that may exit 0 there, why). The field of a
# list item is the list's key, and that of a whole record or line "record".
ACCEPTED = {
    ("regions", "regions"): ({"[]"}, "an image may have no regions"),
    ("objects", "objects"): ({"[]"}, "an image may have no objects"),
    **{(name, key): ({"x"} | _INTS, "an id may be any string or integer")
       for name, key in [("qa", "qa_id"), ("qa", "image_id"), ("regions", "image_id"),
                         ("regions", "region_id"), ("objects", "image_id"),
                         ("objects", "object_id"), ("rasterize-qa", "image_id"),
                         ("eval-rank", "qa_id"), ("render", "qa_id")]},
    ("preds", "qa_id"): ({"x"} | _INTS, "a prediction without a reference is not scored"),
    ("refs", "qa_id"): ({"x"} | _INTS, "a reference without a prediction is not scored"),
    **{(name, key): (_INTS, "boxes are clamped into the image")
       for name in ("regions", "objects") for key in ("x", "y")},
    **{(name, key): (_BIG, "boxes are clamped into the image")
       for name, key in [("regions", "width"), ("regions", "height"), ("objects", "w"),
                         ("objects", "h")]},
    **{(name, key): (_BIG, "an image may be any size >= 1")
       for name in ("qa", "rasterize-qa") for key in ("image_width", "image_height")},
    **{(name, key): ({"x"}, "phrases, names, questions and answers are free text")
       for name, key in [("qa", "question"), ("qa", "answer"), ("regions", "phrase"),
                         ("objects", "names"), ("rasterize-qa", "question"),
                         ("rasterize-qa", "answer"), ("preds", "answer"),
                         ("refs", "answers"), ("labels", "matched_words")]},
    ("labels", "region_boxes"): (_INTS, "label boxes are clamped into the image"),
    ("labels", "object_boxes"): (_INTS, "label boxes are clamped into the image"),
    ("labels", "is_counting"): ({"true"}, "a bool"),
    ("labels", "region_match_count"): (_BIG, "an integer >= 0"),
    ("eval-rank", "glimpse"): (_BIG, "a glimpse without a partner in the other file is not "
                                     "evaluated"),
    ("render", "glimpse"): (_BIG, "any integer >= 0 is a glimpse"),
    ("eval-rank", "mask"): ({"true"}, "a bool"),
    ("render", "mask"): ({"true"}, "a bool"),
    ("eval-rank", "values"): ({"1.5", "10**30"}, "a cell may be any finite number >= 0"),
    ("render", "values"): ({"1.5", "10**30"}, "a cell may be any finite number >= 0"),
    ("eval-rank", "masked values"): ({"-1", "1.5", "10**30"},
                                     "the cells of masked rows are not evaluated"),
}


def _scalars(value, key=None, path=()):
    """(path, field) of each scalar in ``value``; a maps row's 196 cells
    take one route, so only its first cell and its largest are changed."""
    if isinstance(value, dict):
        for k, item in value.items():
            yield from _scalars(item, k, path + (k,))
    elif isinstance(value, list):
        cells = range(len(value))
        if key == "values":
            cells = sorted({0, max(cells, key=value.__getitem__)})
        for i in cells:
            yield from _scalars(value[i], key, path + (i,))
    else:
        yield path, key


def _wholes(name, records):
    """(path, field) of each record or line and, in an annotation file, of
    each entry's list and each record in it."""
    for e, record in enumerate(records):
        yield (e,), "record"
        if name in ("regions", "objects"):
            yield (e, name), name
            for r in range(len(record[name])):
                yield (e, name, r), "record"


def _fig3_preds_refs():
    qa = json.loads((FIG3 / "qa.json").read_text())
    return ([{"qa_id": r["qa_id"], "answer": r["answer"]} for r in qa],
            [{"qa_id": r["qa_id"], "answers": [r["answer"]] * 10} for r in qa])


def _ndjson(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


MINE = ["mine", "--regions", FIG3 / "regions.json", "--objects", FIG3 / "objects.json",
        "--qa", FIG3 / "qa.json", "--wordnet-dir", WORDNET_DIR, "--aliases", ALIASES,
        "--out", "{out}"]

# input -> (its records, whether they are NDJSON lines, the command with
# {bad} for the mutated file and {out} for the output)
TARGETS = {
    "qa": (json.loads((FIG3 / "qa.json").read_text()), False, MINE),
    "regions": (json.loads((FIG3 / "regions.json").read_text()), False, MINE),
    "objects": (json.loads((FIG3 / "objects.json").read_text()), False, MINE),
    "labels": (_ndjson(GOLDEN / "fig3_labels.ndjson"), True,
               ["rasterize", "--labels", "{bad}", "--qa", FIG3 / "qa.json", "--out", "{out}"]),
    "rasterize-qa": (json.loads((FIG3 / "qa.json").read_text()), False,
                     ["rasterize", "--labels", GOLDEN / "fig3_labels.ndjson", "--qa", "{bad}",
                      "--out", "{out}"]),
    "eval-rank": (_ndjson(GOLDEN / "fig3_maps.ndjson"), True,
                  ["eval-rank", "--maps-a", GOLDEN / "fig3_maps.ndjson", "--maps-b", "{bad}",
                   "--out", "{out}"]),
    "render": (_ndjson(GOLDEN / "fig3_maps.ndjson"), True,
               ["render", "--maps", "{bad}", "--out-dir", "{out}"]),
    "preds": (_fig3_preds_refs()[0], True,
              ["eval-acc", "--preds", "{bad}", "--refs", "{refs}", "--out", "{out}"]),
    "refs": (_fig3_preds_refs()[1], True,
             ["eval-acc", "--preds", "{preds}", "--refs", "{bad}", "--out", "{out}"]),
}


def _text(records, ndjson):
    if ndjson:
        return "".join(json.dumps(record) + "\n" for record in records)
    return json.dumps(records)


def _places(name, bad, records, path):
    """The texts of which the error must hold one: the line of an NDJSON
    file, or the record (QA) or entry (annotations) of a JSON array, or the
    mutated record's ids where the message names a record by them."""
    record = records[path[0]]
    if name in ("regions", "objects"):
        return [f"{bad}: entry {path[0]}"]
    places = [f"{bad}:{path[0] + 1}:" if TARGETS[name][1] else f"{bad}: record {path[0]}"]
    if isinstance(record, dict) and "qa_id" in record:
        qa_id = record["qa_id"]
        places += [f"{prefix}{qa_id}{end}" for end in " :" for prefix in (
            f"{bad}: qa_id ", f"{bad}: label ", f"{bad}: label qa_id ", f"and {bad}: qa_id ")]
    if name == "rasterize-qa":  # the labels name the qa_id the mutated record no longer has
        places.append(f"missing from qa file {bad}")
    return places


def _field(name, records, path, key):
    record = records[path[0]]
    if key == "values" and name == "eval-rank" and record.get("mask") is False:
        return "masked values"
    return key


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in argv])
    return code, stderr.getvalue()


def _mutate_each(tmp_path, name, places):
    """Replace each of ``places`` (path, field) of ``name``'s records by each
    bad value in turn; every run exits 2 naming its place or is accepted."""
    records, ndjson, command = TARGETS[name]
    preds, refs = tmp_path / "preds.ndjson", tmp_path / "refs.ndjson"
    preds.write_text(_text(_fig3_preds_refs()[0], True))
    refs.write_text(_text(_fig3_preds_refs()[1], True))
    work = tmp_path / "work"
    source = {"qa": "qa.json", "regions": "regions.json", "objects": "objects.json",
              "rasterize-qa": "qa.json"}.get(name, "input.ndjson")
    bad, out = work / source, work / "out"
    fills = {"bad": bad, "out": out, "preds": preds, "refs": refs}
    argv = [str(a).format(**fills) for a in command]
    if name in ("qa", "regions", "objects"):
        argv[argv.index(f"--{name}") + 1] = str(bad)

    faults, runs = [], 0
    for path, key in places:
        field = _field(name, records, path, key)
        for label, text in VALUES.items():
            mutated = copy.deepcopy(records)
            owner = mutated
            for step in path[:-1]:
                owner = owner[step]
            owner[path[-1]] = _SENTINEL
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            bad.write_text(_text(mutated, ndjson).replace(json.dumps(_SENTINEL), text))
            code, err = _run(argv)
            runs += 1
            owner[path[-1]] = json.loads(text)
            where = f"{list(path)} = {label}: exit {code}: {err.strip()[:160]}"
            if code == 0:
                if label not in ACCEPTED.get((name, field), ((), ""))[0]:
                    faults.append(f"{where} (not accepted)")
            elif code != 2 or "Traceback" in err:
                faults.append(where)
            elif sorted(p.name for p in work.iterdir()) != [bad.name]:
                faults.append(f"{where} (left output)")
            elif not any(place in err for place in _places(name, bad, mutated, path)):
                faults.append(f"{where} (names no place)")
    assert runs > 0
    assert faults == [], f"{len(faults)} of {runs} mutations:\n" + "\n".join(faults)


@pytest.mark.parametrize("name", list(TARGETS))
def test_every_scalar_mutation_exits_2_naming_its_place_or_is_accepted(tmp_path, name):
    _mutate_each(tmp_path, name, _scalars(TARGETS[name][0]))


@pytest.mark.parametrize("name", list(TARGETS))
def test_every_record_and_list_mutation_exits_2_naming_its_place_or_is_accepted(tmp_path,
                                                                                name):
    _mutate_each(tmp_path, name, _wholes(name, TARGETS[name][0]))
