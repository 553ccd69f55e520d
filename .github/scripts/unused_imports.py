"""Fail on names that a module of the package imports but never reads.

    python .github/scripts/unused_imports.py [DIR ...]

Run from the root of a checkout; DIR defaults to ``src/errbounds``. Standard
library only (``ast``): a name bound by ``import`` or ``from ... import``
counts as read when the module loads it anywhere (also inside a string
annotation) or lists it in ``__all__``. ``from __future__`` imports are not
names. Prints each unread name as ``path:line: name`` and exits 1 if there
is one.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path


def _imported(tree):
    """(name, line) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    yield name, node.lineno


def _read(tree):
    """The names the module loads, those in string annotations and those
    listed in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            note = node.returns if hasattr(node, "returns") else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _read(ast.parse(note.value, mode="eval"))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            names |= {e.value for e in ast.walk(node.value)
                      if isinstance(e, ast.Constant)}
    return names


def unused(path: Path):
    """(line, name) of each name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = _read(tree)
    return sorted((line, name) for name, line in _imported(tree)
                  if name not in read)


def main(argv) -> int:
    found = 0
    for root in argv or ["src/errbounds"]:
        for path in sorted(Path(root).rglob("*.py")):
            for line, name in unused(path):
                print(f"{path}:{line}: {name} is imported but never read")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
