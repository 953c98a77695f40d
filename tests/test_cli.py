import io
import contextlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ggt.cli import _COMMANDS, main
from ggt.fixtures import (cycle_graph, emitter_two_loops, infinite_rose,
                          mixed_graph, rose)
from ggt.fullgroup import (inverse, make_block, print_element,
                           validate_element)
from ggt.graphs import Graph, print_graph, validate
from ggt.pathspace import parse_path

from helpers import reference_homology

SRC = Path(__file__).resolve().parent.parent / "src"
TESTS = Path(__file__).resolve().parent

ALPHA0 = """element alpha0 over e2
block a | - | a.a
block b.a | - | a.b
block b.b | - | b
"""

NONZERO = """element nz over petal
block @x | - | p
block r | - | @y
block t | - | q
"""

TWO_SWAPS = """element pair over einf
block L#1 | - | L#2
block L#2 | - | L#1
block L#3 | - | L#4
block L#4 | - | L#3
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "e2.graph").write_text(print_graph(rose(2)))
    (tmp_path / "einf.graph").write_text(print_graph(infinite_rose()))
    (tmp_path / "mixed.graph").write_text(print_graph(mixed_graph()))
    (tmp_path / "petal.graph").write_text(print_graph(emitter_two_loops()))
    (tmp_path / "c2.graph").write_text(print_graph(cycle_graph(2)))
    (tmp_path / "alpha0.elem").write_text(ALPHA0)
    (tmp_path / "nz.elem").write_text(NONZERO)
    (tmp_path / "pair.elem").write_text(TWO_SWAPS)
    return tmp_path


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_homology_report(workdir):
    code, out = run("homology", str(workdir / "mixed.graph"))
    assert code == 0
    assert "H0 = Z^2 + Z/3" in out
    assert "H1 = Z^1" in out
    assert "abelianization = Z^1 (+) (Z/2)^N, 0 <= N <= 2" in out


def test_homology_without_criteria(workdir):
    code, out = run("homology", str(workdir / "c2.graph"))
    assert code == 0
    assert "H0 = Z^1" in out and "H1 = Z^1" in out
    assert "abelianization" not in out


def graph_with_closed_cycles(rng, n, cycles, length):
    """n vertices: the first cycles * length lie on closed cycles (each
    one's only edge leads to the next on its cycle), so each cycle is an
    H1 basis vector; every other vertex is a sink with probability 0.05
    and otherwise has 1-3 random edges and, with probability 0.2, an edge
    family."""
    verts = [f"v{j}" for j in range(n)]
    edges, families = [], []
    for c in range(cycles):
        ring = verts[c * length:(c + 1) * length]
        edges += [(f"c{c}n{k}", v, ring[(k + 1) % length])
                  for k, v in enumerate(ring)]
    for v in verts[cycles * length:]:
        if rng.random() < 0.05:
            continue
        for _ in range(rng.randrange(1, 4)):
            edges.append((f"e{len(edges)}", v, rng.choice(verts)))
        if rng.random() < 0.2:
            families.append((f"F{len(families)}", v, rng.choice(verts)))
    return Graph(f"big{n}", verts, edges, families)


def homology_text(g, h):
    """The stdout of ``ggt homology`` for a graph outside the AH
    criteria, rendered from the report h."""
    lines = [f"H0 = {h.h0_text()}", f"H1 = {h.h1_text()}", "Hn = 0 (n >= 2)",
             f"H0 tensor Z/2 rank = {h.h0_tensor_z2_rank}"]
    if h.h1_kernel_basis:
        lines.append(f"H1 basis over ({' '.join(g.regular_vertices())}):")
        lines.extend("  (" + ", ".join(map(str, vec)) + ")"
                     for vec in h.h1_kernel_basis)
    return "\n".join(lines) + "\n"


def test_homology_bytes_at_scale(tmp_path):
    # a seeded 1000-vertex graph with families and four closed cycles:
    # the CLI prints the text of the reference report, H1 basis included
    g = graph_with_closed_cycles(random.Random(2104), 1000, 4, 7)
    assert g.families and not validate(g).ah_criteria
    path = tmp_path / "big.graph"
    path.write_text(print_graph(g))
    h = reference_homology(g)
    assert h.h1_rank >= 4
    code, out = run("homology", str(path))
    assert code == 0
    assert out == homology_text(g, h)
    assert f"H1 basis over ({' '.join(g.regular_vertices())}):" in out


def test_check_report(workdir):
    code, out = run("check", str(workdir / "c2.graph"))
    assert code == 0
    assert "condition_L: false" in out
    assert "ah_criteria: false" in out


def test_index_and_partition(workdir):
    code, out = run("index", str(workdir / "e2.graph"),
                    str(workdir / "alpha0.elem"))
    assert code == 0 and out == "index = 0\nzero = true\n"
    code, out = run("partition", str(workdir / "e2.graph"),
                    str(workdir / "alpha0.elem"))
    assert code == 0
    assert out == "S(-1) = Z(a.a)\nS(0) = Z(a.b)\nS(1) = Z(b)\n"
    code, out = run("index", str(workdir / "petal.graph"),
                    str(workdir / "nz.elem"))
    assert code == 0 and out == "index = (x,0):+1 (y,0):-1\nzero = false\n"


def test_compose_invert_round_trip(workdir):
    code, out = run("compose", str(workdir / "e2.graph"),
                    str(workdir / "alpha0.elem"), str(workdir / "alpha0.elem"))
    assert code == 0 and out.startswith("element alpha0_o_alpha0 over e2\n")
    (workdir / "sq.elem").write_text(out)
    code, inv = run("invert", str(workdir / "e2.graph"),
                    str(workdir / "sq.elem"))
    assert code == 0
    # composing the square with its inverse gives the identity table
    (workdir / "sqinv.elem").write_text(inv)
    code, out = run("compose", str(workdir / "e2.graph"),
                    str(workdir / "sq.elem"), str(workdir / "sqinv.elem"))
    assert code == 0
    assert out.splitlines()[1:] == []


def test_factor_verify_pipeline(workdir):
    code, out = run("factor", str(workdir / "einf.graph"),
                    str(workdir / "pair.elem"),
                    "-o", str(workdir / "pair.factors"))
    assert code == 0
    text = (workdir / "pair.factors").read_text()
    assert text.startswith("product-of ")
    assert "certified=true" in text
    code, out = run("verify", str(workdir / "einf.graph"),
                    str(workdir / "pair.elem"), str(workdir / "pair.factors"))
    assert code == 0 and "certified=true" in out


def test_factor_refusals(workdir):
    code, out = run("factor", str(workdir / "petal.graph"),
                    str(workdir / "nz.elem"))
    assert code == 3 and out.splitlines()[0] == "IndexNonzero"
    code, out = run("factor", str(workdir / "e2.graph"),
                    str(workdir / "alpha0.elem"))
    assert code == 3 and out.splitlines()[0] == "HypothesesFailed"


def test_verify_rejects_wrong_factors(workdir):
    bad = ("product-of 1 transpositions, certified=true\n"
           "element wrong_f1 over einf\n"
           "block L#1 | - | L#2\n"
           "block L#2 | - | L#1\n")
    (workdir / "bad.factors").write_text(bad)
    code, out = run("verify", str(workdir / "einf.graph"),
                    str(workdir / "pair.elem"), str(workdir / "bad.factors"))
    assert code == 3 and out.splitlines()[0] == "VerificationFailed"


def test_moves_and_double(workdir):
    code, out = run("move-s", str(workdir / "mixed.graph"), "u")
    assert code == 0 and "vertex u" not in out
    code, out = run("move-t", str(workdir / "einf.graph"), "v")
    assert code == 0 and out.count("iedges") == 2
    code, out = run("double", str(workdir / "e2.graph"), "Z(a)")
    assert code == 0
    assert out == ("bisection w1\nblock a.a | - | a\n"
                   "bisection w2\nblock a.b | - | a\n")


def test_double_refuses_graphs_failing_criteria(workdir):
    # a well-formed graph failing the AH criteria is refused as
    # abelianization_report refuses it, naming the witness
    code, out = run("double", str(workdir / "c2.graph"), "Z(x1)")
    assert code == 2
    assert out.splitlines() == ["CriteriaFailed",
                                "condition_L: exitless cycle at u1"]


def test_exit_codes(workdir):
    code, _ = run("nosuchcommand")
    assert code == 1
    code, _ = run()
    assert code == 1
    code, out = run("check", str(workdir / "missing.graph"))
    assert code == 2
    (workdir / "broken.graph").write_text("vertex v\nedge oops\n")
    code, out = run("check", str(workdir / "broken.graph"))
    assert code == 2 and out.splitlines()[0] == "ParseError"
    (workdir / "wrong.elem").write_text("element x over othergraph\n")
    code, out = run("index", str(workdir / "e2.graph"),
                    str(workdir / "wrong.elem"))
    assert code == 2 and out.splitlines()[0] == "ParseError"
    # an input that is not UTF-8 and an unwritable -o path are reported
    # errors, not tracebacks
    (workdir / "bad.graph").write_bytes(b"vertex v\xff\n")
    for argv, first in ((["check", "bad.graph"], "ParseError"),
                        (["check", "e2.graph", "-o",
                          str(workdir / "nonexistent" / "dir" / "out")],
                         "GgtError")):
        proc = run_python(workdir, [], "import sys\nfrom ggt.cli import main\n"
                          f"sys.exit(main({argv!r}))\n")
        assert proc.returncode == 2, proc.stderr
        assert b"Traceback" not in proc.stderr
        assert proc.stdout.decode().splitlines()[0] == first


def test_caps_only_where_they_act(workdir):
    graph, elem = str(workdir / "einf.graph"), str(workdir / "pair.elem")
    factors = str(workdir / "pair.factors")
    assert run("factor", graph, elem, "-o", factors)[0] == 0
    mixed = str(workdir / "mixed.graph")
    # every command runs with these arguments and takes no cap: the
    # eventual-kernel chain is bounded by the graph, and the matching
    # depth is read off the zero test
    commands = {"check": [graph], "homology": [graph], "index": [graph, elem],
                "compose": [graph, elem, elem], "invert": [graph, elem],
                "partition": [graph, elem], "factor": [graph, elem],
                "verify": [graph, elem, factors], "move-t": [graph, "v"],
                "move-s": [mixed, "u"],
                "double": [str(workdir / "e2.graph"), "Z(a)"]}
    assert sorted(commands) == sorted(_COMMANDS)
    for name, argv in commands.items():
        assert run(name, *argv)[0] == 0, name
        assert run(name, *argv, "--max-depth", "16")[0] == 1, name
        assert run(name, *argv, "--max-chain", "50")[0] == 1, name


def test_determinism(workdir):
    first = run("homology", str(workdir / "mixed.graph"))
    second = run("homology", str(workdir / "mixed.graph"))
    assert first == second
    a = run("factor", str(workdir / "einf.graph"), str(workdir / "pair.elem"))
    b = run("factor", str(workdir / "einf.graph"), str(workdir / "pair.elem"))
    assert a == b


def test_verify_rejects_non_involutive_factors(workdir):
    # h . h^-1 recomposes to the identity, but h has order three
    g = infinite_rose()
    h = validate_element(g, [make_block(g, parse_path(g, mu), (),
                                        parse_path(g, nu))
                             for mu, nu in (("L#2.L#1", "L#3"),
                                            ("L#1", "L#2.L#1"),
                                            ("L#3", "L#1"))])
    (workdir / "id.elem").write_text("element id over einf\n")
    (workdir / "cyc.factors").write_text(
        "product-of 2 transpositions, certified=true\n"
        + print_element("cyc_f1", h) + print_element("cyc_f2", inverse(h)))
    code, out = run("verify", str(workdir / "einf.graph"),
                    str(workdir / "id.elem"), str(workdir / "cyc.factors"))
    assert code == 3
    assert out == ("VerificationFailed\n"
                   "factors=2 recompose=true involutions=false\n")


MAIN_CALLS = ("import contextlib, io, json\n"
              "from ggt import cli\n"
              "out = []\n"
              "for argv in CALLS:\n"
              "    o, e = io.StringIO(), io.StringIO()\n"
              "    with contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):\n"
              "        code = cli.main(argv)\n"
              "    out.append([code, o.getvalue(), e.getvalue()])\n"
              "assert cli._build_parser() is cli._build_parser()\n"
              "print(json.dumps(out))\n")


def test_main_calls_in_one_process_match_separate_processes(workdir):
    # the parser is built once per process; usage errors from the top
    # parser and from a subparser must leave it as a fresh one
    graph, elem = str(workdir / "einf.graph"), str(workdir / "pair.elem")
    calls = [["factor", graph, elem], ["nosuchcommand"], ["check", graph],
             ["index", graph], ["homology", graph], [],
             ["factor", graph, elem, "--max-depth", "3"],
             ["factor", graph, elem]]

    def results(batch):
        proc = run_python(workdir, [], f"CALLS = {batch!r}\n" + MAIN_CALLS)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    together = results(calls)
    assert together == [r for argv in calls for r in results([argv])]
    assert [code for code, _, _ in together] == [0, 1, 0, 1, 0, 1, 1, 0]
    assert together[0] == together[-1]


def run_python(workdir, flags, code, hashseed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    if hashseed is not None:
        env["PYTHONHASHSEED"] = str(hashseed)
    return subprocess.run([sys.executable, *flags, "-c", code], cwd=workdir,
                          env=env, capture_output=True, timeout=120)


FACTOR_PAIR = ("import sys\n"
               "from ggt.cli import main\n"
               "{patch}"
               "sys.exit(main(['factor', 'einf.graph', 'pair.elem']))\n")


AF_BALANCED = ("import random, sys\n"
               f"sys.path.insert(0, {str(TESTS)!r})\n"
               "from helpers import random_balanced_table\n"
               "from ggt.factor import af_factor, print_factorization\n"
               "from ggt.fixtures import rose\n"
               "g = rose(2)\n"
               "e = random_balanced_table(g, random.Random(5), depth=3)\n"
               "sys.stdout.write(print_factorization('bal', af_factor(e), g))\n")


def test_factor_does_not_depend_on_asserts(workdir):
    plain = run_python(workdir, [], FACTOR_PAIR.format(patch=""))
    optimized = run_python(workdir, ["-O"], FACTOR_PAIR.format(patch=""))
    assert plain.returncode == 0 and optimized.returncode == 0
    # pair is an involution, so it is its own single factor
    assert plain.stdout.startswith(b"product-of 1 transpositions, certified=true")
    assert optimized.stdout == plain.stdout
    # the AF path on a seeded balanced table prints the same bytes too
    plain = run_python(workdir, [], AF_BALANCED)
    optimized = run_python(workdir, ["-O"], AF_BALANCED)
    assert plain.returncode == 0 and optimized.returncode == 0
    assert plain.stdout.split(b"\n")[0].endswith(b"certified=true")
    assert plain.stdout.count(b"element bal_f") > 1
    assert optimized.stdout == plain.stdout
    # a failed recomposition still refuses when asserts are stripped
    broken = FACTOR_PAIR.format(
        patch="sys.modules['ggt.factor'].verify_product = lambda e, f: False\n")
    refused = run_python(workdir, ["-O"], broken)
    assert refused.returncode == 3
    assert refused.stdout.splitlines()[0] == b"VerificationFailed"


# products of three random transpositions (tests/helpers.random_element,
# max_len=2, random.Random(12)), written out so the input is fixed text
EINF_PRODUCT = """element x over einf
block L#1.L#3 | - | L#2
block L#2.L#4 | L#3,L#4 | L#3
block L#2 | L#4 | L#1.L#3
block L#4.L#4 | - | L#4.L#1
block L#4.L#1 | - | L#4.L#4
block L#3 | L#3,L#4 | L#1.L#3.L#4
block L#2.L#4.L#3 | - | L#1.L#3.L#4.L#3
block L#2.L#4.L#4 | - | L#1.L#3.L#4.L#4
"""

PETAL_PRODUCT = """element y over petal
block r.t | - | @w
block @w | b | q
block b.t | W#3,W#4 | r.t
block b.r | - | q.b.r
block q | W#3,W#4 | q.b.t
block q.W#3 | - | r.t.W#3
block q.W#4 | - | r.t.W#4
block b.t.W#3 | - | q.b.t.W#3
block b.t.W#4 | - | q.b.t.W#4
"""

STDOUT_OF_CALLS = ("import contextlib, io, sys\n"
                   "from ggt import cli\n"
                   "for argv in CALLS:\n"
                   "    out = io.StringIO()\n"
                   "    with contextlib.redirect_stdout(out):\n"
                   "        code = cli.main(argv)\n"
                   "    sys.stdout.write(f'{code}\\n{out.getvalue()}')\n")


def test_stdout_bytes_do_not_depend_on_hash_seed_or_asserts(workdir):
    # string hashing changes set and dict order between processes and -O
    # strips asserts; neither may change a byte of the reports
    (workdir / "x.elem").write_text(EINF_PRODUCT)
    (workdir / "y.elem").write_text(PETAL_PRODUCT)
    calls = [["factor", "einf.graph", "x.elem"],
             ["factor", "petal.graph", "y.elem"],
             ["partition", "einf.graph", "x.elem"]]
    code = f"CALLS = {calls!r}\n" + STDOUT_OF_CALLS
    runs = [run_python(workdir, flags, code, hashseed=seed)
            for flags, seed in (([], 0), ([], 4099), (["-O"], 77))]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout.count(b"certified=true") == 2
    assert b"S(0) = " in runs[0].stdout
    assert runs[1].stdout == runs[0].stdout
    assert runs[2].stdout == runs[0].stdout


def readme_fence(text, lead):
    """The fenced block that follows the line ``lead`` in the README."""
    found = re.search(re.escape(lead) + r"\n\n```\n(.*?)```\n", text, re.S)
    assert found, lead
    return found.group(1)


def test_readme_factor_example(workdir):
    # the README's pair.elem, factored over infinite_rose, prints exactly
    # the block the README shows, and the file-format example agrees
    text = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    elem = re.search(r"cat > pair\.elem <<'EOF'\n(.*?\n)EOF\n", text, re.S)
    assert elem
    (workdir / "readme.elem").write_text(elem.group(1))
    code, _ = run("factor", str(workdir / "einf.graph"),
                  str(workdir / "readme.elem"),
                  "-o", str(workdir / "readme.factors"))
    assert code == 0
    out = (workdir / "readme.factors").read_text()
    assert out == readme_fence(
        text, "For this input `pair.factors` comes out as:")
    example = readme_fence(
        text, "Factorization files (written by `ggt factor`, read by `ggt verify`):")
    assert out.startswith(example.split("...\n")[0])
