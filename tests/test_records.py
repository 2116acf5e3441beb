import os

import pytest

from vgmine.records import (InputError, commit, make_dir, read_keyed, write_bytes, write_csv,
                            write_lines)


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
