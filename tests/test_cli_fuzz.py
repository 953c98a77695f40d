"""Seeded fuzzing of the command line over mutated input files.

Fixture graph, element and factorization files are mutated line by line
(a line dropped, truncated or duplicated, the lines shuffled, a token
replaced by a bad one such as ``L#0`` or ``L#99999999999``) and run
through ``cli.main`` in process by every command that reads a file. Every
run must exit 0, 2 or 3 with no exception escaping, print the same bytes
when run again, and take under two seconds; a failure names the case's
seed, the command and the mutated text. A fixed seeded sample of the
runs, some exiting 0 and some 2 or 3 for each kind of file, is run again
in fresh interpreters under two ``PYTHONHASHSEED`` values and under
``python -O``, which must give the same exit codes and stdout bytes.
Every mutated graph that parses gets the same ``validate`` report as
the per-vertex reference (``helpers.reference_validate``).
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ggt.cli import main
from ggt.errors import GgtError
from ggt.factor import factor, print_factorization
from ggt.fixtures import (cycle_graph, emitter_two_loops, infinite_rose,
                          mixed_graph, rose)
from ggt.fullgroup import parse_element_text, print_element
from ggt.graphs import parse_graph, print_graph, validate

from helpers import random_element, reference_validate

SEED = 2803
CASES = 150  # mutations per input kind
OP_LIMIT_S = 2.0
REPLAYS = 4  # sampled runs per input kind and outcome (exit 0, exit 2 or 3)
SRC = Path(__file__).resolve().parent.parent / "src"
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
    """Run argv twice after writing texts, which maps each file that argv
    reads, other than an unmutated graph file, to its content; (exit
    code, stdout)."""
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
    return code, runs[0]


@pytest.fixture(scope="module")
def fuzzed(tmp_path_factory):
    """The graph files written and, per input kind, the in-process runs
    as (argv, texts, exit code, stdout)."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    elements = element_texts()
    factors = factor_texts(elements)
    graph_files = {}
    for name, g in GRAPHS.items():
        graph_files[name] = tmp_path / f"{name}.graph"
        graph_files[name].write_text(print_graph(g), encoding="utf-8")
    runs = {"graph": [], "element": [], "factors": []}

    def record(kind, case, argv, texts):
        runs[kind].append((argv, texts) + check(case, argv, texts))

    for case in range(CASES):
        rng = random.Random(f"{SEED}/graph/{case}")
        name = rng.choice(sorted(GRAPHS))
        path = tmp_path / f"{name}.graph"
        text = mutate(rng, print_graph(GRAPHS[name]))
        for argv in (["check", str(path)], ["homology", str(path)],
                     ["move-t", str(path), VERTICES[name]],
                     ["move-s", str(path), VERTICES[name]],
                     ["double", str(path), CLOPENS[name]]):
            record("graph", case, argv, {path: text})
        path.write_text(print_graph(GRAPHS[name]), encoding="utf-8")
    for case in range(CASES):
        rng = random.Random(f"{SEED}/element/{case}")
        name, base = rng.choice(elements)
        graph = str(graph_files[name])
        elem = tmp_path / "x.elem"
        other = tmp_path / "y.elem"
        other_text = rng.choice([t for n, t in elements if n == name])
        text = mutate(rng, base)
        for argv in (["index", graph, str(elem)], ["invert", graph, str(elem)],
                     ["partition", graph, str(elem)],
                     ["compose", graph, str(elem), str(other)],
                     ["compose", graph, str(other), str(elem)],
                     ["factor", graph, str(elem)]):
            record("element", case, argv, {elem: text, other: other_text})
    for case in range(CASES):
        rng = random.Random(f"{SEED}/factors/{case}")
        name, elem_text, fact_text = rng.choice(factors)
        elem = tmp_path / "x.elem"
        fact = tmp_path / "x.factors"
        record("factors", case, ["verify", str(graph_files[name]), str(elem),
                                 str(fact)],
               {elem: elem_text, fact: mutate(rng, fact_text)})
    return graph_files, runs


def test_cli_survives_mutated_inputs(fuzzed):
    _, runs = fuzzed
    codes = {code for kind_runs in runs.values() for _, _, code, _ in kind_runs}
    assert codes == {0, 2, 3}


def test_mutated_graphs_validate_like_the_reference(fuzzed):
    _, runs = fuzzed
    texts = {text for _, texts, _, _ in runs["graph"] for text in texts.values()}
    parsed = 0
    for text in sorted(texts):
        try:
            g = parse_graph(text)
        except GgtError:
            continue
        parsed += 1
        assert validate.__wrapped__(g) == reference_validate(g), text
    # most mutations break the text; 28 of the 142 distinct texts parse
    assert parsed >= 20, (parsed, len(texts))


REPLAY = """\
import contextlib, io, json, sys
from ggt.cli import main
graphs, runs = json.load(open(sys.argv[1], encoding="utf-8"))
results = []
for argv, texts in runs:
    for path, text in list(graphs.items()) + list(texts.items()):
        open(path, "w", encoding="utf-8").write(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results.append([code, out.getvalue()])
json.dump(results, sys.stdout)
"""


def test_sampled_runs_do_not_depend_on_hash_seed_or_asserts(fuzzed, tmp_path):
    # string hashing changes set and dict order between processes and -O
    # strips asserts; neither may change an exit code or a stdout byte
    graph_files, runs = fuzzed
    rng = random.Random(f"{SEED}/replay")
    sample = []
    for kind, kind_runs in sorted(runs.items()):
        for exits in ({0}, {2, 3}):
            picks = [r for r in kind_runs if r[2] in exits]
            assert picks, (kind, exits)
            sample += rng.sample(picks, min(REPLAYS, len(picks)))
    spec = tmp_path / "replay.json"
    spec.write_text(json.dumps([
        {str(path): print_graph(GRAPHS[name])
         for name, path in graph_files.items()},
        [[argv, {str(p): t for p, t in texts.items()}]
         for argv, texts, _, _ in sample]]), encoding="utf-8")
    expected = [[code, out] for _, _, code, out in sample]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for flags, seed in (([], 0), ([], 4099), (["-O"], 77)):
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run([sys.executable, *flags, "-c", REPLAY, str(spec)],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        got = json.loads(proc.stdout)
        assert len(got) == len(sample)
        for (argv, texts, _, _), want, have in zip(sample, expected, got):
            assert have == want, (flags, seed, argv, texts)
