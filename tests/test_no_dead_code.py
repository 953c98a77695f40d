"""Every function, method and class defined in the package has a user.

A name counts as used when it occurs in the code of some Python file
under src/, tests/ or perfbench/ outside the lines of its own
definition: as a name, an attribute, an imported name, or a string
constant shaped like an identifier, such as a ``monkeypatch.setattr``
target or a tracer name. Docstrings, other bare string statements and
comments do not count. Dunder methods are called by the interpreter and
are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ggt"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def definitions(tree):
    """(name, first line, last line) of every def and class in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def code_uses(tree):
    """(name, line) of every name the code of the tree uses."""
    bare = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in bare):
            yield node.value, node.lineno


def unused_names():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for top in SEARCHED for p in sorted(top.rglob("*.py"))}
    uses = {}   # name -> [(file, line)]
    for p, tree in trees.items():
        for name, line in code_uses(tree):
            uses.setdefault(name, []).append((p, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue
            used = any(not (p == path and first <= line <= last)
                       for p, line in uses.get(name, ()))
            if not used:
                unused.append(f"{path.name}:{first} {name}")
    return unused


def test_every_definition_has_a_user():
    assert unused_names() == []
