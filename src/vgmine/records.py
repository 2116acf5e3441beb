"""Every JSON, NDJSON and CSV file vgmine reads or writes.

Readers raise ``InputError`` naming the file and the line (NDJSON) or the
character offset (JSON) of a malformed record. Writers write a sibling
``<name>.tmp`` and rename it over the target, so a command that fails
leaves no partial output; a run manifest is written after the output it
describes. Floats are stored with 9 significant digits for stable diffs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any

import numpy as np

from . import __version__


class InputError(Exception):
    """Bad paths, malformed inputs, or inconsistent files (exit 2)."""


_FORMAT9 = ".9g"


def fmt9(value: float) -> str:
    return format(value, _FORMAT9)


def round9(value: float) -> float:
    return float(format(value, _FORMAT9))


def round9_array(values: np.ndarray) -> np.ndarray:
    """``round9`` of every element, called once per distinct float64 bit
    pattern (so -0.0 and each NaN payload keep their own results)."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    ordered = np.sort(bits, axis=None)  # not np.unique: it imports numpy.ma
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    rounded = np.array([round9(v) for v in distinct.view(np.float64).tolist()],
                       dtype=np.float64)
    return rounded[np.searchsorted(distinct, bits)]


def qa_id_of(record: dict) -> Any:
    """``record["qa_id"]``; a JSON array or object is rejected with
    TypeError, since ids are used as dict keys."""
    qa_id = record["qa_id"]
    if isinstance(qa_id, (list, dict)):
        raise TypeError(f"qa_id must be a string or a number, not {type(qa_id).__name__}")
    return qa_id


def read_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at offset {exc.pos}: {exc.msg}") from exc


def read_ndjson(path: str | Path, decode: Callable[[Any], Any]) -> list:
    """``decode`` applied to each non-blank line. A line that is not JSON,
    or that ``decode`` rejects with KeyError, TypeError or ValueError, is
    reported as ``<path>:<line>``."""
    path = Path(path)
    records = []
    try:
        with open(path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, start=1):
                if not line.strip():
                    continue
                try:
                    records.append(decode(json.loads(line)))
                except KeyError as exc:
                    raise InputError(f"{path}:{lineno}: missing field {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise InputError(f"{path}:{lineno}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return records


@contextmanager
def _replacing(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """A text file that replaces ``path`` only once the block completes."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        fp = open(tmp, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_ndjson(path: str | Path, records: Iterable[dict]) -> None:
    with _replacing(path) as fp:
        for record in records:
            fp.write(json.dumps(record, separators=(", ", ": ")))
            fp.write("\n")


def write_csv(path: str | Path | None, rows: Iterable[list]) -> None:
    """CSV to ``path``, or to stdout when no path is given."""
    if not path:
        csv.writer(sys.stdout).writerows(rows)
        return
    with _replacing(path, newline="") as fp:
        csv.writer(fp).writerows(rows)


def write_manifest(out_path: Path, command: str, config: dict,
                   inputs: list[Path]) -> None:
    """``<out_path>.manifest.json``: command, configuration snapshot, sha256
    of each input and tool version. Write it after ``out_path`` itself."""
    manifest = {
        "command": command,
        "config": config,
        "input_digests": {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in sorted(inputs)},
        "tool_version": __version__,
    }
    with _replacing(out_path.with_name(out_path.name + ".manifest.json")) as fp:
        fp.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
