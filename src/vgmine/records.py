"""Every JSON, NDJSON and CSV file vgmine reads, and every file it writes.

``fields`` decodes every input record against its table of field kinds and
alone refuses one; readers raise its message as an ``InputError`` after the
file and the line (``<path>:<n>``, NDJSON) or the record (``<path>: record
<n>``, JSON array). Malformed JSON is named by its offset, and a file that is
not UTF-8 by the line of its first bad byte (``utf8``, which the lexicon uses
too). Keyed records are decoded as they are taken (``iter_keyed``), so a
caller can reduce each one before the next is read. Writers write a sibling
``<name>.tmp`` staged in the open ``commit`` block, which renames them all
over their targets only once it completes, so a failed command leaves no
output; ``exit_on_signal`` makes a signal unwind the block, or wait for its
renames. Inputs are hashed for the manifest in fixed-size chunks. Floats are
stored with 9 significant digits for stable diffs. ``read_pair`` reads two
inputs concurrently, with the results and the error of reading them in turn.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import pickle
import re
import signal
import sys
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, Any

from . import __version__


class InputError(Exception):
    """Bad paths, malformed inputs, or inconsistent files (exit 2)."""


_FORMAT9 = ".9g"


def fmt9(value: float) -> str:
    return format(value, _FORMAT9)


def round9(value: float) -> float:
    return float(format(value, _FORMAT9))


def _typed(value: Any, types: set) -> bool:
    """``value`` is a list whose items' types are all in ``types``."""
    return type(value) is list and types.issuperset(map(type, value))


# Each kind of field: the types its JSON value may have, a further test (or
# None) and the rule an error names. No bool is an int; an id keys dicts, where
# ``true`` and ``1.0`` would be the same key as ``1``.
FIELD_KINDS: dict[str, tuple[set, Callable[[Any], bool] | None, str]] = {
    "id": ({str, int}, None, "a string or an integer"),
    "int": ({int}, None, "an integer"),
    "int>=0": ({int}, lambda v: v >= 0, "an integer >= 0"),
    "int>=1": ({int}, lambda v: v >= 1, "an integer >= 1"),
    "bool": ({bool}, None, "a bool"),
    "list": ({list}, None, "a list"),
    "string": ({str}, None, "a string"),
    "strings": ({list}, lambda v: _typed(v, {str}), "a list of strings"),
    "boxes": ({list}, lambda v: all(_typed(b, {int}) and len(b) == 4 and b[0] <= b[2]
                                    and b[1] <= b[3] for b in v),
              "a list of [x_min, y_min, x_max, y_max] integer boxes, each min <= max"),
    "words": ({list}, lambda v: all(_typed(m, {str}) and len(m) == 3 for m in v),
              "a list of 3-string lists"),
    "numbers": ({list}, lambda v: _typed(v, {int, float}), "a flat list of numbers"),
}


def _table(**kinds: str | tuple[str, Any]) -> tuple:
    """A record's fields in order, each as (key, *its ``FIELD_KINDS`` entry, default); a key
    given as ``(kind, default)`` is optional, and one given as ``kind`` required (``...``)."""
    return tuple((key, *FIELD_KINDS[kind], ...) if type(kind) is str
                 else (key, *FIELD_KINDS[kind[0]], kind[1]) for key, kind in kinds.items())


QA_RECORD = _table(qa_id="id", image_id="id", question="string", answer="string",
                   image_width="int>=1", image_height="int>=1")
REGION_ENTRY = _table(image_id="id", regions=("list", []))
OBJECT_ENTRY = _table(image_id="id", objects=("list", []))
REGION_RECORD = _table(region_id="id", phrase="string", x="int", y="int", width="int>=1",
                       height="int>=1")
OBJECT_RECORD = _table(object_id="id", names="strings", x="int", y="int", w="int>=1",
                       h="int>=1")
LABEL_RECORD = _table(qa_id="id", region_boxes="boxes", object_boxes="boxes",
                      is_counting="bool", region_match_count="int>=0", matched_words="words")
MAP_RECORD = _table(qa_id="id", glimpse="int>=0", h="int>=1", w="int>=1", mask=("bool", True),
                    values="numbers")
PREDICTION_RECORD = _table(qa_id="id", answer="string")
REFERENCE_RECORD = _table(qa_id="id", answers="strings")


def fields(record: Any, table: tuple) -> list:
    """The values of ``table``'s keys in ``record``, in table order, setting
    a missing optional key to its default. A record that is not a JSON
    object, a missing key and a value not of its key's kind raise ValueError."""
    values = []
    try:
        for key, types, test, rule, default in table:
            value = record[key]
            if type(value) not in types or test is not None and not test(value):
                raise ValueError(f"{key} must be {rule}, not {value!r}")
            values.append(value)
    except KeyError:
        if default is ...:
            raise ValueError(f"missing field {key!r}") from None
        record[key] = default
        return fields(record, table)
    except TypeError:  # record[key] of a JSON value that is not an object
        raise ValueError(f"expected a JSON object, not {record!r}") from None
    return values


@contextmanager
def utf8(path: Path) -> Iterator[None]:
    """A file read as UTF-8 in the block that is not UTF-8 raises
    ``InputError`` naming the line of its first bad byte."""
    try:
        yield
    except UnicodeDecodeError:
        text = path.read_bytes().decode("utf-8", "surrogateescape")  # bad bytes: U+DC80-DCFF
        line = text.count("\n", 0, re.search("[\udc80-\udcff]", text).start()) + 1
        raise InputError(f"{path}:{line}: not UTF-8 text") from None


def read_text(path: Path) -> str:
    try:
        with utf8(path):
            return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at offset {exc.pos}: {exc.msg}") from exc
    except RecursionError as exc:  # JSON nested too deeply
        raise InputError(f"{path}: {exc}") from None


def _keyed(where: Callable[[int], str], earlier: str, items: Iterable[tuple[int, Any]],
           decode: Callable, printed: Callable | None) -> Iterator[tuple[Any, Any]]:
    """The ``(key, value)`` pairs that ``decode`` makes of the numbered ``items``, in order.
    An item that ``decode`` rejects (ValueError, RecursionError), or whose key an earlier one
    holds or, given ``printed``, prints as an earlier one's, is reported after ``where(n)``."""
    firsts = {}  # printed key -> (key, n)
    for n, item in items:
        try:
            key, value = decode(item)
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deeply
            raise InputError(f"{where(n)}: {exc}") from None
        shown = key if printed is None else printed(key)
        if shown in firsts:
            first, at = firsts[shown]
            fault = (f"repeated key {key!r}, first {earlier} {at}" if first == key
                     else f"key {key!r} prints as the key {first!r} {earlier} {at}")
            raise InputError(f"{where(n)}: {fault}")
        firsts[shown] = key, n
        yield key, value


def iter_keyed(path: str | Path, decode: Callable[[Any], tuple[Any, Any]],
               printed: Callable[[Any], Any] | None = None) -> Iterator[tuple[Any, Any]]:
    """``_keyed`` over the non-blank lines of an NDJSON file, numbered from 1
    and each read as JSON as the pairs are taken; a line that is not JSON is
    one ``decode`` rejects."""
    path = Path(path)
    try:
        with utf8(path), open(path, encoding="utf-8") as fp:
            yield from _keyed(lambda n: f"{path}:{n}", "on line",
                              ((n, line) for n, line in enumerate(fp, start=1)
                               if not line.isspace()),
                              lambda line: decode(json.loads(line)), printed)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_keyed(path: str | Path, decode: Callable[[Any], tuple[Any, Any]],
               printed: Callable[[Any], Any] | None = None) -> dict:
    """The pairs of ``iter_keyed`` as a dict in file order."""
    return dict(iter_keyed(path, decode, printed))


def read_array(path: str | Path) -> list:
    """The records of a JSON file that holds one array."""
    records = read_json(path)
    if type(records) is not list:
        raise InputError(f"{path}: expected a top-level JSON array")
    return records


def read_keyed_array(path: str | Path, decode: Callable[[Any], tuple[Any, Any]]) -> dict:
    """``_keyed`` over the records of a JSON array file, numbered from 0, as a dict."""
    return dict(_keyed(lambda n: f"{path}: record {n}", "in record",
                       enumerate(read_array(path)), decode, None))


def read_pair(read: Callable[[Any], Any], first: Any, second: Any) -> tuple[Any, Any]:
    """``(read(first), read(second))``. With ``fork`` and a second usable CPU,
    a child reads ``first`` while this process reads ``second``; a child that
    fails sends nothing and ``first`` is read here, so the results and the
    error (``first``'s before ``second``'s) are those of two reads in turn.
    When the pipe or the child cannot be made, both are read here in turn."""
    probe = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or (len(probe(0)) if probe else os.cpu_count() or 1) < 2:
        return read(first), read(second)
    fds: tuple[int, ...] = ()
    try:
        fds = fd_in, fd_out = os.pipe()
        pid = os.fork()
    except OSError:  # no pipe or no fork to spare: read in turn
        for fd in fds:
            os.close(fd)
        return read(first), read(second)
    if pid == 0:  # the child never returns into the caller, nor unwinds its commit block
        code = 1
        try:
            with open(fd_out, "wb") as fp:
                fp.write(pickle.dumps(read(first), pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(fd_out)
    try:
        result = read(second)
    finally:
        with open(fd_in, "rb") as fp:
            try:  # unpickled as it arrives, so that no copy of the payload is held
                value = pickle.load(fp)
            except (EOFError, pickle.UnpicklingError):  # nothing sent, or cut short
                value = None
            fp.read()  # to EOF before the wait: the payload outgrows a pipe buffer
        if os.waitpid(pid, 0)[1] != 0:
            value = read(first)
    return value, result


# The signals that end a command by unwinding it: ``cli.main`` handles each with
# ``exit_on_signal`` while the command runs.
INTERRUPTS = {getattr(signal, name) for name in ("SIGTERM", "SIGHUP") if hasattr(signal, name)}

# The signals that arrived while the completed commit block renamed its files, or None.
_held: list[int] | None = None


def exit_on_signal(signum: int, frame: Any) -> None:
    """A signal handler: raises ``SystemExit(128 + signum)``, at once or, while a completed
    commit block renames its files, once they are renamed. (Masking the signal would not
    hold it back: another thread, such as one of numpy's BLAS threads, takes it, and its
    Python handler runs here all the same.)"""
    if _held is None:
        raise SystemExit(128 + signum)
    _held.append(signum)


# The open commit block's staged files as (tmp, target), directories it made as (dir, None),
# and the absolute paths of its staged files, both names of each.
_staged: list[tuple[Path, Path | None]] | None = None
_taken: set[Path] = set()


@contextmanager
def _naming(path: Path) -> Iterator[None]:
    """An ``OSError`` in the block as an ``InputError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


@contextmanager
def commit() -> Iterator[None]:
    """A block whose writers stage their files: when it completes, each one
    replaces its target; when it fails, they and the directories it made are
    removed. A block opened inside another joins it."""
    global _staged, _held
    if _staged is not None:
        yield
        return
    _staged = staged = []
    _taken.clear()
    try:
        yield
        _held = []  # a signal cannot split the renames
        try:
            for tmp, path in staged:
                if path is not None:
                    os.replace(tmp, path)
            staged.clear()
        finally:
            held, _held = _held, None
        if held:
            raise SystemExit(128 + held[0])
    except BaseException:
        for made, path in reversed(staged):
            with suppress(OSError):
                (made.rmdir if path is None else made.unlink)()
        raise
    finally:
        _staged = None


@contextmanager
def _staging(path: str | Path, mode: str, **kwargs: Any) -> Iterator[IO]:
    """``<path>.tmp`` open for writing, staged to replace ``path``."""
    path = Path(path)
    with commit(), _naming(path):
        if path.is_dir():  # checked before any rename of the block
            raise InputError(f"cannot write {path}: it is a directory")
        tmp = path.with_name(path.name + ".tmp")
        names = {path.absolute(), tmp.absolute()}
        if not _taken.isdisjoint(names):  # one rename would overwrite another's file
            raise InputError(f"cannot write {path}: its name clashes with another output "
                             "of this command")
        fp = open(tmp, mode, **kwargs)
        _staged.append((Path(fp.name), path))  # once opened: its name may be unusable
        _taken.update(names)
        with fp:
            yield fp


def make_dir(path: Path) -> None:
    """``path`` and its missing parents, removed again if the block fails."""
    with commit():
        for made in reversed([path, *path.parents]):
            if not made.is_dir():
                with _naming(made):
                    made.mkdir()
                _staged.append((made, None))


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Lines of text, each ending in a newline."""
    with _staging(path, "w", encoding="utf-8") as fp:
        fp.writelines(lines)


def write_bytes(path: str | Path, data: bytes) -> None:
    with _staging(path, "wb") as fp:
        fp.write(data)


def write_csv(path: str | Path | None, rows: Iterable[list]) -> None:
    """CSV to ``path``, or to stdout when no path is given."""
    if not path:
        csv.writer(sys.stdout).writerows(rows)
        return
    with _staging(path, "w", encoding="utf-8", newline="") as fp:
        csv.writer(fp).writerows(rows)


_HASH_CHUNK = 1 << 16


def _sha256(path: Path) -> str:
    """The sha256 of a file, read in chunks so that no copy of it is held."""
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        while chunk := fp.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_path: Path, command: str, config: dict,
                   inputs: list[Path]) -> None:
    """``<out_path>.manifest.json``: command, configuration snapshot, sha256
    of each input and tool version."""
    manifest = {
        "command": command,
        "config": config,
        "input_digests": {str(p): _sha256(p) for p in sorted(inputs)},
        "tool_version": __version__,
    }
    write_lines(out_path.with_name(out_path.name + ".manifest.json"),
                [json.dumps(manifest, indent=1, sort_keys=True) + "\n"])
