"""Seeded fuzzing of the command line over mutated input files.

Fixture graph, element and factorization files are mutated line by line
(a line dropped, truncated or duplicated, the lines shuffled, a token
replaced by a bad one such as ``L#0`` or ``L#99999999999``) and run
through ``cli.main`` in process by every command that reads a file. Every
run must exit 0, 2 or 3 with no exception escaping, print the same bytes
when run again, and take under two seconds; a failure names the case's
seed, the command and the mutated text.
"""

import contextlib
import io
import random
import time

from ggt.cli import main
from ggt.factor import factor, print_factorization
from ggt.fixtures import (cycle_graph, emitter_two_loops, infinite_rose,
                          mixed_graph, rose)
from ggt.fullgroup import parse_element_text, print_element
from ggt.graphs import print_graph

from helpers import random_element

SEED = 2803
CASES = 150  # mutations per input kind
OP_LIMIT_S = 2.0
BAD_TOKENS = ("L#0", "L#99999999999", "L#", "#1", "@", "@nowhere", "a.",
              ".a", "..", "|", "-", "Z(", "\\", "over", "block", "element",
              "vertex", "9", "-1", "é", "")

GRAPHS = {g.name: g for g in (rose(2), infinite_rose(), emitter_two_loops(),
                              mixed_graph(), cycle_graph(3))}
# a vertex, or a clopen for ``double``, of each graph
VERTICES = {"e2": "v", "einf": "v", "petal": "w", "mixed": "u", "c3": "u1"}
CLOPENS = {"e2": "Z(a) + Z(b.a)", "einf": r"Z(@v \ L#1)", "petal": "Z(a.p)",
           "mixed": "Z(e)", "c3": "Z(x1)"}


def element_texts():
    """(graph name, element text) for seeded products of transpositions."""
    rng = random.Random(SEED)
    out = []
    for name, g in GRAPHS.items():
        for k in (1, 2):
            out.append((name, print_element(f"x{k}", random_element(
                g, rng, k, max_len=2))))
    return out


def factor_texts(elements):
    """(graph name, element text, factorization text) for the elements
    over the graphs that meet the factorization hypotheses."""
    out = []
    for name, text in elements:
        if name in ("einf", "petal"):
            g = GRAPHS[name]
            label, e = parse_element_text(g, text)
            out.append((name, text, print_factorization(label, factor(e), g)))
    return out


def mutate(rng, text):
    """The text after one to three line mutations."""
    lines = text.splitlines()
    for _ in range(rng.randrange(1, 4)):
        kind = rng.choice(("drop", "truncate", "duplicate", "shuffle", "token"))
        if not lines:
            lines = [rng.choice(BAD_TOKENS)]
            continue
        i = rng.randrange(len(lines))
        if kind == "drop":
            del lines[i]
        elif kind == "truncate":
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        elif kind == "duplicate":
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif kind == "shuffle":
            rng.shuffle(lines)
        else:
            words = lines[i].split(" ")
            j = rng.randrange(len(words))
            # replace a whole word, or a piece of a dotted path
            parts = words[j].split(".")
            parts[rng.randrange(len(parts))] = rng.choice(BAD_TOKENS)
            words[j] = ".".join(parts)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def run_once(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def check(case, argv, texts):
    """Run argv twice; texts maps each mutated file to its content."""
    where = f"case {case} (seed {SEED}): ggt {' '.join(argv)}\n" + "".join(
        f"--- {path.name}:\n{text}" for path, text in texts.items())
    for path, text in texts.items():
        path.write_text(text, encoding="utf-8")
    runs = []
    for _ in range(2):
        try:
            code, out, took = run_once(argv)
        except Exception as exc:  # the test reports it with its seed
            raise AssertionError(f"{type(exc).__name__}: {exc}\n{where}") from exc
        assert code in (0, 2, 3), f"exit {code}\n{out}\n{where}"
        assert took < OP_LIMIT_S, f"took {took:.2f} s\n{where}"
        runs.append(out)
    assert runs[0] == runs[1], where
    return code


def test_cli_survives_mutated_inputs(tmp_path):
    elements = element_texts()
    factors = factor_texts(elements)
    graph_files = {}
    for name, g in GRAPHS.items():
        graph_files[name] = tmp_path / f"{name}.graph"
        graph_files[name].write_text(print_graph(g), encoding="utf-8")
    codes = set()
    for case in range(CASES):
        rng = random.Random(f"{SEED}/graph/{case}")
        name = rng.choice(sorted(GRAPHS))
        path = tmp_path / f"{name}.graph"
        text = mutate(rng, print_graph(GRAPHS[name]))
        for argv in (["check", str(path)], ["homology", str(path)],
                     ["move-t", str(path), VERTICES[name]],
                     ["move-s", str(path), VERTICES[name]],
                     ["double", str(path), CLOPENS[name]]):
            codes.add(check(case, argv, {path: text}))
        path.write_text(print_graph(GRAPHS[name]), encoding="utf-8")
    for case in range(CASES):
        rng = random.Random(f"{SEED}/element/{case}")
        name, base = rng.choice(elements)
        graph = str(graph_files[name])
        elem = tmp_path / "x.elem"
        other = tmp_path / "y.elem"
        other.write_text(rng.choice([t for n, t in elements if n == name]),
                         encoding="utf-8")
        text = mutate(rng, base)
        for argv in (["index", graph, str(elem)], ["invert", graph, str(elem)],
                     ["partition", graph, str(elem)],
                     ["compose", graph, str(elem), str(other)],
                     ["compose", graph, str(other), str(elem)],
                     ["factor", graph, str(elem)]):
            codes.add(check(case, argv, {elem: text}))
    for case in range(CASES):
        rng = random.Random(f"{SEED}/factors/{case}")
        name, elem_text, fact_text = rng.choice(factors)
        elem = tmp_path / "x.elem"
        fact = tmp_path / "x.factors"
        elem.write_text(elem_text, encoding="utf-8")
        codes.add(check(case, ["verify", str(graph_files[name]), str(elem),
                               str(fact)], {fact: mutate(rng, fact_text)}))
    assert codes == {0, 2, 3}
