"""The package has one path trie.

Every prefix search over paths (canonical forms, complements, block
pairing, overlap checks) goes through ``pathspace.path_trie``, whose
nodes are ``pathspace.TrieNode``. A second node class holding children
by edge would be a second copy of that index; this lint keeps it out.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ggt"


def trie_node_classes():
    """``file:class`` of every class whose ``__init__`` sets
    ``self.children``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef)
                        and fn.name == "__init__"):
                    continue
                if any(isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, ast.Store)
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "self"
                       and node.attr == "children"
                       for node in ast.walk(fn)):
                    found.append(f"{path.name}:{cls.name}")
    return found


def test_trie_node_is_the_only_trie_class():
    assert trie_node_classes() == ["pathspace.py:TrieNode"]
