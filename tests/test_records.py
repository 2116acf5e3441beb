import errno
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import no_child_left
from vgmine.attention import read_maps
from vgmine.cli import _reference
from vgmine.dataset import load_dataset, read_qa
from vgmine.miner import read_labels
from vgmine.records import (InputError, commit, exit_on_signal, make_dir, read_keyed, read_pair,
                            write_bytes, write_csv, write_lines)


def test_written_file_mode_follows_umask(tmp_path):
    plain = tmp_path / "plain.ndjson"
    plain.write_text("")
    write_lines(tmp_path / "lines.ndjson", ['{"a": 1}\n'])
    write_bytes(tmp_path / "bytes.pgm", b"P5\n1 1\n255\n\0")
    for name in ("lines.ndjson", "bytes.pgm"):
        assert os.stat(tmp_path / name).st_mode == os.stat(plain).st_mode


def test_writer_outside_a_block_replaces_its_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    write_csv(target, [["a", "b"], [1, 2]])
    assert target.read_bytes() == b"a,b\r\n1,2\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_outputs_of_a_block_appear_only_when_it_completes(tmp_path):
    with commit():
        write_lines(tmp_path / "a.txt", ["a\n"])
        write_bytes(tmp_path / "b.bin", b"b")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt.tmp", "b.bin.tmp"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin"]


def test_later_failure_removes_completed_inner_writes(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    with pytest.raises(RuntimeError, match="later"):
        with commit():
            write_lines(target, ["new\n"])
            make_dir(tmp_path / "made" / "deeper")
            write_bytes(tmp_path / "made" / "deeper" / "x.pgm", b"x")
            raise RuntimeError("later")
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_directory_target_fails_the_whole_block(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(InputError, match=f"^cannot write {tmp_path / 'taken'}: it is a directory$"):
        with commit():
            write_lines(tmp_path / "first.txt", ["x\n"])
            write_lines(tmp_path / "taken", ["y\n"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_unopenable_name_is_an_input_error_and_leaves_nothing(tmp_path):
    long_name = tmp_path / ("x" * 300)
    with pytest.raises(InputError, match=f"^cannot write {long_name}: "):
        with commit():
            write_lines(tmp_path / "first.txt", ["x\n"])
            write_bytes(long_name, b"x")
    assert list(tmp_path.iterdir()) == []


def test_decode_value_error_names_line(tmp_path):
    path = tmp_path / "rows.ndjson"
    path.write_text('{"n": 1}\n\n{"n": -1}\n')

    def positive(rec):
        if rec["n"] < 0:
            raise ValueError("n must be positive")
        return rec["n"], rec

    with pytest.raises(InputError, match=rf"^{path}:3: n must be positive$"):
        read_keyed(path, positive)


def test_read_pair_reads_first_in_a_child_with_a_second_cpu(cpus):
    parent = os.getpid()
    big = b"x" * (1 << 21)  # more than a pipe buffer holds

    def read(name):
        return name, os.getpid(), big if name == "first" else None

    first, second = read_pair(read, "first", "second")
    count, forks = cpus
    assert len(forks) == (count > 1)
    assert first[0] == "first" and (first[1] != parent) == (count > 1) and first[2] == big
    assert second == ("second", parent, None)
    no_child_left()


def test_read_pair_reads_both_here_when_fork_fails(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    parent = os.getpid()
    assert read_pair(lambda name: (name, os.getpid()), "a", "b") == (("a", parent), ("b", parent))


def test_read_pair_reads_both_here_when_no_pipe_can_be_made(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_pipe():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pipe", no_pipe)
    parent = os.getpid()
    assert read_pair(lambda name: (name, os.getpid()), "a", "b") == (("a", parent), ("b", parent))
    no_child_left()


@pytest.mark.parametrize("bad", ["a", "b", "ab"])
def test_read_pair_raises_the_error_of_reads_in_turn(cpus, bad):
    def read(name):
        if name in bad:
            raise InputError(f"bad {name}")
        return name

    with pytest.raises(InputError, match=f"^bad {bad[0]}$"):
        read_pair(read, "a", "b")
    no_child_left()


def test_read_pair_reads_first_here_when_the_child_is_killed(cpus):
    parent = os.getpid()

    def read(name):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return name, os.getpid()

    assert read_pair(read, "a", "b") == (("a", parent), ("b", parent))
    no_child_left()


def test_read_pair_child_signalled_under_the_command_handler_ends_there(cpus):
    """The child inherits ``exit_on_signal``; its SystemExit must end it through
    ``os._exit``, not unwind into the caller's code."""
    parent = os.getpid()

    def read(name):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGTERM)
        return name, os.getpid()

    previous = signal.signal(signal.SIGTERM, exit_on_signal)
    try:
        assert read_pair(read, "a", "b") == (("a", parent), ("b", parent))
    finally:
        signal.signal(signal.SIGTERM, previous)
    no_child_left()


def test_failing_child_keeps_the_staged_files_of_the_block(tmp_path):
    """The child's read raises inside the caller's commit block. Were the
    child to unwind it, it would remove the caller's staged file."""
    script = ("import os, sys\n"
              "from vgmine import records\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "parent = os.getpid()\n"
              "def read(name):\n"
              "    if os.getpid() != parent:\n"
              "        raise records.InputError('in the child')\n"
              "    return name\n"
              "with records.commit():\n"
              "    records.write_lines(sys.argv[1], ['x\\n'])\n"
              "    print(records.read_pair(read, 'a', 'b'), sorted(os.listdir(sys.argv[2])))\n")
    target = tmp_path / "out.txt"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script, str(target), str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "('a', 'b') ['out.txt.tmp']\n", "")
    assert target.read_text() == "x\n"


def test_key_printed_as_an_earlier_one_names_both_lines(tmp_path):
    path = tmp_path / "rows.ndjson"
    path.write_text('{"id": 1}\n{"id": 2}\n{"id": "1"}\n')
    assert list(read_keyed(path, lambda rec: (rec["id"], rec))) == [1, 2, "1"]
    with pytest.raises(InputError, match=rf"^{path}:3: key '1' prints as the key 1 on line 1$"):
        read_keyed(path, lambda rec: (rec["id"], rec), str)



_QA = {"qa_id": 1, "image_id": 1, "question": "q", "answer": "a", "image_width": 4,
       "image_height": 4}


def _qa(path, records):
    path.write_text(json.dumps(records))
    return read_qa(path)


def _annotations(kind):
    def read(path, records):
        empty = path.with_name("empty.json")
        empty.write_text("[]")
        path.write_text(json.dumps([{"image_id": 1, f"{kind}s": records}]))
        return load_dataset(*([path, empty] if kind == "region" else [empty, path]), empty)
    return read


def _ndjson(reader):
    def read(path, records):
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        return reader(path)
    return read


# reader -> (a valid record, its id key, a function that writes records to
# a path and reads them, the place an error names the second record by)
READERS = {
    "read_qa": (_QA, "qa_id", _qa, "{}: record 1"),
    "load_dataset-regions": (
        {"region_id": 1, "phrase": "a dog", "x": 0, "y": 0, "width": 2, "height": 2},
        "region_id", _annotations("region"), "{}: entry 0: region 1"),
    "load_dataset-objects": (
        {"object_id": 1, "names": ["dog"], "x": 0, "y": 0, "w": 2, "h": 2},
        "object_id", _annotations("object"), "{}: entry 0: object 1"),
    "read_labels": (
        {"qa_id": 1, "region_boxes": [[0, 0, 1, 1]], "object_boxes": [], "is_counting": False,
         "region_match_count": 1, "matched_words": [["dog", "dog", "raw"]]},
        "qa_id", _ndjson(read_labels), "{}:2"),
    "read_maps": ({"qa_id": 1, "glimpse": 0, "h": 1, "w": 2, "mask": True, "values": [0.5, 0.5]},
                  "qa_id", _ndjson(read_maps), "{}:2"),
    "eval-acc-refs": ({"qa_id": 1, "answers": ["a"] * 10}, "qa_id",
                      _ndjson(lambda path: read_keyed(path, _reference, str)), "{}:2"),
}


FAULTS = {"missing-key": "missing field '{key}'",
          "wrong-kind": "{key} must be a string or an integer, not [1]",
          "not-an-object": "expected a JSON object, not [1, 2]"}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("reader", list(READERS))
def test_every_reader_gives_the_same_text_after_its_place(tmp_path, reader, fault):
    record, key, read, place = READERS[reader]
    path = tmp_path / "input"
    bad = {"missing-key": {k: v for k, v in record.items() if k != key},
           "wrong-kind": dict(record, **{key: [1]}), "not-an-object": [1, 2]}[fault]
    read(path, [record])  # the good record alone is read
    with pytest.raises(InputError) as raised:
        read(path, [record, bad])
    assert str(raised.value) == f"{place.format(path)}: {FAULTS[fault].format(key=key)}"


def test_repeated_key_in_an_array_names_both_records(tmp_path):
    path = tmp_path / "qa.json"
    records = [dict(_QA, qa_id=qa_id) for qa_id in (1, "1", 2)]
    assert list(_qa(path, records)) == [1, "1", 2]
    with pytest.raises(InputError, match=rf"^{path}: record 3: repeated key '1', first in "
                                         rf"record 1$"):
        _qa(path, records + [dict(_QA, qa_id="1")])


def test_repeated_key_in_ndjson_names_both_lines(tmp_path):
    path = tmp_path / "labels.ndjson"
    record = READERS["read_labels"][0]
    read = _ndjson(read_labels)
    records = [dict(record, qa_id=qa_id) for qa_id in (1, "1")]
    assert [label.qa_id for label in read(path, records)] == [1, "1"]
    with pytest.raises(InputError, match=rf"^{path}:3: repeated key 1, first on line 1$"):
        read(path, records + [dict(record, qa_id=1)])
