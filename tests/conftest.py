import contextlib
import importlib.util
import os
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # oracles / corpusgen helpers

from vgmine.dataset import load_dataset
from vgmine.lexicon import load_aliases, load_wordnet

FIXTURES = Path(__file__).parent / "fixtures"
WORDNET_DIR = FIXTURES / "wordnet"
ALIASES = FIXTURES / "aliases.txt"
FIG3 = FIXTURES / "fig3"
GOLDEN = FIXTURES / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """The module ``perfbench/<name>.py``, loaded from its file as it is."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def lexicon():
    lex = load_wordnet(WORDNET_DIR)
    load_aliases(lex, ALIASES)
    return lex


@pytest.fixture(scope="session")
def fig3_dataset():
    dataset, report = load_dataset(FIG3 / "regions.json", FIG3 / "objects.json",
                                   FIG3 / "qa.json")
    assert report.clamped_boxes == 0 and report.dropped_triplets == 0
    return dataset


@pytest.fixture()
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from vgmine.cli import main

    def run(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def no_child_left():
    """Fails if this process has a child left to reap."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def time_limit(seconds):
    """Raises ``TimeoutError`` in the body once it has run ``seconds``, so
    that a test of code that hangs fails instead."""
    def timeout(*_):
        raise TimeoutError(f"not finished within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """``records.read_pair`` with one usable CPU (reads in turn) or two (one
    forked reader); returns the CPU count and the list of forks made. The
    test fails if it has not finished within 60 s."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)),
                        raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    with time_limit(60):
        yield request.param, forks
