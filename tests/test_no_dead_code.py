"""Every function, method and class defined in the package has a user.

A name counts as used when it appears as a whole word in some Python
file under src/, tests/ or perfbench/ outside the lines of its own
definition. Dunder methods are called by the interpreter and are exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ggt"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def definitions(path):
    """(name, first line, last line) of every def and class in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def unused_names():
    sources = {p: p.read_text(encoding="utf-8").splitlines()
               for top in SEARCHED for p in sorted(top.rglob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in definitions(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(word.search(line)
                       for p, lines in sources.items()
                       for i, line in enumerate(lines, start=1)
                       if not (p == path and first <= i <= last))
            if not used:
                unused.append(f"{path.name}:{first} {name}")
    return unused


def test_every_definition_has_a_user():
    assert unused_names() == []
