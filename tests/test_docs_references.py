"""The names the documentation cites exist.

README.md and the docstrings in ``src/ggt`` cite code by name: a dotted
``module.name`` in backticks, and in docstrings also a double-backticked
name with an underscore, such as ``_check_table``. Every such name must
be a ggt definition, so a rename or a deletion that leaves a citation
behind fails here. README's command table must list exactly the CLI's
commands, in order.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

from ggt.cli import _COMMANDS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ggt"
MODULES = {p.stem: importlib.import_module(f"ggt.{p.stem}")
           for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
UNDERSCORED = re.compile(r"\w*_\w*")
# dotted words that cite no code: path notation, a graph variable's
# attribute, and files (by suffix)
NOT_NAMES = {"a.b.a", "g.vertices"}
FILE_SUFFIXES = (".json", ".factors", ".elem", ".graph", ".md", ".py")


def ggt_classes():
    return [obj for module in MODULES.values() for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__.startswith("ggt.")]


def members(cls):
    """Attribute names of a class, fields without a default included."""
    names = set(dir(cls))
    names.update(getattr(cls, "__dataclass_fields__", {}))
    names.update(getattr(cls, "__annotations__", {}))
    return names


def defined_names():
    names = set()
    for module in MODULES.values():
        names.update(vars(module))
    for cls in ggt_classes():
        names.update(members(cls))
    return names


def resolves(dotted):
    """Whether module.name (or Class.attr, or ggt.module.name) names a
    definition: ggt modules are imported by name, since the package
    re-exports the functions ``factor`` and ``homology`` under their
    submodules' names."""
    head, *rest = dotted.split(".")
    if head == "ggt":
        head, *rest = rest
    if head in MODULES:
        obj = MODULES[head]
    else:
        owners = [vars(m)[head] for m in MODULES.values() if head in vars(m)]
        if not owners:
            try:
                owners = [importlib.import_module(head)]
            except ImportError:
                return False
        obj = owners[0]
    for name in rest:
        if inspect.isclass(obj) and name in members(obj) and not hasattr(obj, name):
            return True   # a field without a default ends the chain
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def docstrings():
    """(where, docstring) for the module, every class and every function
    of each ggt source file."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{path.name}:{getattr(node, 'name', '<module>')}", doc


def cited(text, double_only=False):
    """The backticked words of a text, single and double backticks."""
    pattern = r"``([^`]+)``" if double_only else r"``([^`]+)``|`([^`\n]+)`"
    for m in re.finditer(pattern, text):
        yield next(g for g in m.groups() if g)


def is_reference(word):
    return (DOTTED.fullmatch(word) is not None and word not in NOT_NAMES
            and not word.endswith(FILE_SUFFIXES))


def test_readme_dotted_names_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    words = {w for w in cited(readme) if is_reference(w)}
    assert len(words) > 30
    assert sorted(w for w in words if not resolves(w)) == []


def test_docstring_names_exist():
    names = defined_names()
    dotted = underscored = 0
    stale = []
    for where, doc in docstrings():
        for word in cited(doc):
            if is_reference(word):
                dotted += 1
                if not resolves(word):
                    stale.append((where, word))
        for word in cited(doc, double_only=True):
            if UNDERSCORED.fullmatch(word):
                underscored += 1
                if word not in names:
                    stale.append((where, word))
    assert dotted > 15 and underscored > 60
    assert stale == []


def test_stale_names_are_caught():
    assert not resolves("fullgroup._check_disjoint")
    assert not resolves("errors.ChainLimitExceeded")
    assert not resolves("Graph.no_such_method")
    assert "_check_disjoint" not in defined_names()
    assert resolves("ggt.factor") and resolves("factor.certify")
    assert resolves("CriteriaReport.emitter") and resolves("Piece.key")


def test_readme_command_table_lists_the_cli_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("```", 2)[1]
    listed = [line.split()[1] for line in section.splitlines()
              if line.startswith("ggt ")]
    assert listed == list(_COMMANDS)
