"""No package function calls itself by name.

A recursive walk takes a stack frame per level, so a long enough path or
a deep enough trie raises ``RecursionError``, which is not a ``GgtError``:
the CLI would print a traceback instead of exiting with a typed code.
Every walk in src/ggt keeps an explicit stack or a layer table instead;
this lint keeps it that way.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ggt"

ALLOWED = set()


def self_calls():
    """``file:name`` of every function whose body calls it by name."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name)
                   and node.func.id == fn.name
                   for node in ast.walk(fn)):
                found.append(f"{path.name}:{fn.name}")
    return found


def test_package_has_no_recursion():
    assert set(self_calls()) == ALLOWED
