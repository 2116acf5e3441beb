import os

import pytest

from vgmine.records import InputError, read_keyed, write_ndjson


def test_written_file_mode_follows_umask(tmp_path):
    plain = tmp_path / "plain.ndjson"
    plain.write_text("")
    written = tmp_path / "written.ndjson"
    write_ndjson(written, [{"a": 1}])
    assert os.stat(written).st_mode == os.stat(plain).st_mode


def test_decode_value_error_names_line(tmp_path):
    path = tmp_path / "rows.ndjson"
    path.write_text('{"n": 1}\n\n{"n": -1}\n')

    def positive(rec):
        if rec["n"] < 0:
            raise ValueError("n must be positive")
        return rec["n"], rec

    with pytest.raises(InputError, match=rf"^{path}:3: n must be positive$"):
        read_keyed(path, positive)
