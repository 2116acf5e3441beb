"""src/vgmine keeps no dead names: every import of a module is read in it,
and every module-level private name (``_x``) is read somewhere in the
package. Standard-library ``ast`` only, since no linter is a dependency.
An import line marked ``# noqa: F401`` is kept on purpose (a name other
code reaches through the module) and is exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vgmine"


def _reads(tree: ast.AST) -> set[str]:
    """Every name the code reads: loaded names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imports(tree: ast.Module, lines: list[str]) -> list[tuple[int, str]]:
    """(line, bound name) of every import not marked ``# noqa: F401``."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            bound += [(node.lineno, (alias.asname or alias.name).split(".")[0])
                      for alias in node.names]
    return bound


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every module-level private name a statement binds."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names += [(node.lineno, name) for name in targets
                  if name.startswith("_") and not name.startswith("__")]
    return names


def dead_names(sources: dict[str, str]) -> list[str]:
    """``<module>:<line>: <name>`` of each unread import and private name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read_anywhere = set().union(*map(_reads, trees.values()))
    dead = []
    for module, tree in trees.items():
        read_here = _reads(tree)
        dead += [f"{module}:{line}: import {name}"
                 for line, name in _imports(tree, sources[module].splitlines())
                 if name not in read_here]
        dead += [f"{module}:{line}: {name}" for line, name in _private_definitions(tree)
                 if name not in read_anywhere]
    return dead


def test_src_keeps_no_dead_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_names(sources) == []


def test_check_finds_an_unread_import_and_private_name():
    source = ("import math\n"
              "import json  # noqa: F401\n"
              "from dataclasses import dataclass\n"
              "@dataclass\n"
              "class _Kept:\n"
              "    x: int\n"
              "class _Left:\n"
              "    x: int\n"
              "_TABLE = {}\n"
              "def f():\n"
              "    return _Kept(1)\n")
    assert dead_names({"m.py": source}) == ["m.py:1: import math", "m.py:7: _Left",
                                            "m.py:9: _TABLE"]
