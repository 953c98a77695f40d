"""No package code relies on ``assert``.

``python -O`` strips assert statements, so an invariant guarded by one
would silently stop being checked. Every check in src/ggt raises a typed
error instead; this lint keeps it that way.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ggt"


def assert_statements():
    """``file:line`` of every assert statement in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    return found


def test_package_has_no_asserts():
    assert assert_statements() == []
