"""Deep paths under the default recursion limit.

A walk that took a stack frame per edge would raise ``RecursionError``
here, which is not a ``GgtError``: the CLI would print a traceback and
exit 1. The element t swaps Z(a^n) and Z(b^(n+1)) over rose(2), so its
total table holds about 2n blocks with paths of up to n + 1 edges.
"""

import os
import subprocess
import sys
from pathlib import Path as FsPath

import pytest

from ggt.fixtures import rose
from ggt.fullgroup import (Block, compose, graded_partition, inverse,
                           print_element, transposition)
from ggt.graphs import print_graph
from ggt.homology import index
from ggt.pathspace import Clopen, Path, Piece, canonicalize

SRC = FsPath(__file__).resolve().parent.parent / "src"
E2 = rose(2)
DEEP = 1200
CLI_DEEP = 700


@pytest.fixture(autouse=True)
def default_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def deep_swap(n):
    a, b = Path("v", ("a",) * n), Path("v", ("b",) * (n + 1))
    return transposition(E2, [Block(a, (), b)]), a, b


def test_deep_piece_canonicalizes():
    a = Path("v", ("a",) * DEEP)
    assert canonicalize(E2, [Piece(a)]) == (Piece(a),)
    # the sibling below the deepest vertex merges all the way back up
    split = [Piece(a.extend("a")), Piece(a.extend("b"))]
    assert canonicalize(E2, split) == (Piece(a),)


def test_deep_transposition_squares_to_the_identity():
    t, _, _ = deep_swap(DEEP)
    assert compose(t, t).is_identity()


def test_deep_transposition_inverse_partition_and_index():
    t, a, b = deep_swap(DEEP)
    assert inverse(t) == t
    part = graded_partition(t)
    assert part.keys() == [-1, 0, 1]
    assert part.part(-1) == Clopen.cylinder(E2, b)
    assert part.part(1) == Clopen.cylinder(E2, a)
    # the rest of the space: Z(a^k.b) for 0 < k < n, Z(b^k.a) for 0 < k <= n
    rest = ({Piece(Path("v", ("a",) * k + ("b",))) for k in range(1, DEEP)}
            | {Piece(Path("v", ("b",) * k + ("a",))) for k in range(1, DEEP + 1)})
    assert set(part.part(0).pieces) == rest
    assert index(t).zero


def test_cli_reports_on_deep_elements(tmp_path):
    t, _, _ = deep_swap(CLI_DEEP)
    (tmp_path / "e2.graph").write_text(print_graph(E2))
    (tmp_path / "t.elem").write_text(print_element("t", t))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    outputs = {}
    for argv in (["partition", "e2.graph", "t.elem"],
                 ["index", "e2.graph", "t.elem"],
                 ["compose", "e2.graph", "t.elem", "t.elem"]):
        proc = subprocess.run([sys.executable, "-m", "ggt.cli", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        outputs[argv[0]] = proc.stdout
    assert outputs["partition"].startswith("S(-1) = Z(b.b.")
    assert outputs["index"] == "index = 0\nzero = true\n"
    assert outputs["compose"] == "element t_o_t over e2\n"
