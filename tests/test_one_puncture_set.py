"""Each piece-building step has one implementation.

A puncture set is stored as its edges, each once, sorted by
``edge_key``; ``pathspace.puncture_set`` is the one place that builds
that tuple, so a second ``tuple(sorted(..., key=edge_key))`` would be a
second copy of the form. Sorts that only fix an iteration order build no
tuple and are out of scope.

The lone-piece shortcut of the canonical form lives inside
``pathspace.canonical_pieces``, which asks ``piece_is_canonical``; a
caller that asked the predicate itself would be a second copy of the
shortcut.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ggt"


def modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"),
                                   filename=str(path))


def is_sorted_puncture_tuple(node):
    """Whether node is ``tuple(sorted(..., key=edge_key))``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "tuple" and len(node.args) == 1):
        return False
    inner = node.args[0]
    return (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)
            and inner.func.id == "sorted"
            and any(kw.arg == "key" and isinstance(kw.value, ast.Name)
                    and kw.value.id == "edge_key" for kw in inner.keywords))


def sorted_puncture_tuples():
    """``file:function`` of each ``tuple(sorted(..., key=edge_key))``,
    named by the innermost function that holds it."""
    found = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if not is_sorted_puncture_tuple(node):
                continue
            # the innermost function holding it is the one starting last
            owners = [fn for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef)
                      and fn.lineno <= node.lineno <= fn.end_lineno]
            owner = max(owners, key=lambda fn: fn.lineno, default=None)
            found.append(f"{name}:{owner.name if owner else '<module>'}")
    return found


def files_naming(identifier):
    """The files whose code names the identifier: as a name, an
    attribute, an import or a definition."""
    found = set()
    for name, tree in modules():
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Name) and node.id == identifier)
                    or (isinstance(node, ast.Attribute)
                        and node.attr == identifier)
                    or (isinstance(node, ast.alias)
                        and node.name == identifier)
                    or (isinstance(node, ast.FunctionDef)
                        and node.name == identifier)):
                found.add(name)
    return sorted(found)


def test_puncture_set_is_the_only_sorted_puncture_tuple():
    assert sorted_puncture_tuples() == ["pathspace.py:puncture_set"]


def test_lone_piece_shortcut_lives_in_pathspace():
    assert files_naming("piece_is_canonical") == ["pathspace.py"]
