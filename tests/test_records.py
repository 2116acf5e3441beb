import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vgmine.records import InputError, read_ndjson, round9, round9_array, write_ndjson


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
        return rec["n"]

    with pytest.raises(InputError, match=rf"^{path}:3: n must be positive$"):
        read_ndjson(path, positive)


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


_SPECIAL = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
            2.2250738585072014e-308, 1e-310, 1e300, -1e300, 1.7976931348623157e308,
            1 / 3, 2 / 7, 0.1234567895, 1.0, 2.0]
_CELL_BITS = st.one_of(
    st.integers(0, 2**64 - 1),  # any pattern: NaN payloads, subnormals, huge values
    st.floats(width=64).map(_bits),
    st.sampled_from(_SPECIAL).map(_bits),
    st.sampled_from([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001]),
)


@given(cells=st.lists(_CELL_BITS, min_size=1, max_size=60), rows=st.integers(1, 4))
@settings(max_examples=300)
def test_round9_array_equals_per_cell_round9_bit_for_bit(cells, rows):
    values = np.array(cells * rows, dtype=np.uint64).view(np.float64).reshape(rows, -1)
    expected = np.array([round9(v) for v in values.ravel().tolist()]).reshape(values.shape)
    got = round9_array(values)
    assert got.shape == values.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
