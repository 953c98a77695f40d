"""Command-line front end.

Commands: check, homology, index, compose, invert, partition, factor,
verify, move-t, move-s, double. Reports are byte-deterministic for fixed
inputs; artifacts go to stdout or to the path given with -o.

Exit codes: 0 success, 1 usage error, 2 validation or parse error,
3 mathematical refusal (the error name is the first output line).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path as FsPath

from .errors import GgtError, ParseError, RefusalError
from . import fullgroup as fg
from . import graphs as gr
from . import pathspace as ps
from .factor import certify, factor as run_factor
from .factor import parse_factorization, print_factorization
from .homology import abelianization_report, homology, index as index_class


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read(path_text: str) -> str:
    try:
        return FsPath(path_text).read_text(encoding="utf-8")
    except OSError as exc:
        raise GgtError(f"cannot read {path_text}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path_text} is not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}") from exc


def _load_graph(path_text: str) -> gr.Graph:
    return gr.parse_graph(_read(path_text), name=FsPath(path_text).stem)


def _load_element(g: gr.Graph, path_text: str):
    return fg.parse_element_text(g, _read(path_text))


def _emit(text: str, out_path):
    if out_path:
        try:
            FsPath(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise GgtError(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _bool(x) -> str:
    return "true" if x else "false"


def _cmd_check(args) -> str:
    g = _load_graph(args.graph)
    rep = gr.validate(g)
    lines = [f"graph {g.name}: {len(g.vertices)} vertices, "
             f"{len(g.edges)} edges, {len(g.families)} families"]
    for flag in ("no_sinks", "no_sources", "condition_L", "cofinal",
                 "reaches_all_infinite_emitters", "strongly_connected",
                 "ah_criteria", "factor_hypotheses"):
        value = getattr(rep, flag)
        wit = rep.witness(flag)
        suffix = f" ({wit})" if (wit and not value) else ""
        lines.append(f"{flag}: {_bool(value)}{suffix}")
    return "\n".join(lines) + "\n"


def _cmd_homology(args) -> str:
    g = _load_graph(args.graph)
    rep = gr.validate(g)
    h = abelianization_report(g) if rep.ah_criteria else homology(g)
    lines = [f"H0 = {h.h0_text()}",
             f"H1 = {h.h1_text()}",
             "Hn = 0 (n >= 2)",
             f"H0 tensor Z/2 rank = {h.h0_tensor_z2_rank}"]
    if h.h1_kernel_basis:
        regs = " ".join(g.regular_vertices())
        lines.append(f"H1 basis over ({regs}):")
        for vec in h.h1_kernel_basis:
            lines.append("  (" + ", ".join(str(x) for x in vec) + ")")
    if h.abelianization_note:
        lines.append(f"abelianization = {h.abelianization_note}")
    return "\n".join(lines) + "\n"


def _cmd_index(args) -> str:
    g = _load_graph(args.graph)
    _, e = _load_element(g, args.element)
    value = index_class(e)
    return f"index = {value.vector}\nzero = {_bool(value.zero)}\n"


def _cmd_compose(args) -> str:
    g = _load_graph(args.graph)
    name_f, f = _load_element(g, args.left)
    name_h, h = _load_element(g, args.right)
    return fg.print_element(f"{name_f}_o_{name_h}", fg.compose(f, h))


def _cmd_invert(args) -> str:
    g = _load_graph(args.graph)
    name, e = _load_element(g, args.element)
    return fg.print_element(f"{name}_inv", fg.inverse(e))


def _cmd_partition(args) -> str:
    g = _load_graph(args.graph)
    _, e = _load_element(g, args.element)
    part = fg.graded_partition(e)
    return "".join(f"S({k}) = {c}\n" for k, c in part.levels)


def _cmd_factor(args) -> str:
    g = _load_graph(args.graph)
    name, e = _load_element(g, args.element)
    fact = run_factor(e)
    return print_factorization(name, fact, g)


def _cmd_verify(args) -> str:
    g = _load_graph(args.graph)
    _, e = _load_element(g, args.element)
    _, elements = parse_factorization(g, _read(args.factors))
    certify(e, elements)
    return f"factors = {len(elements)}\ncertified=true\n"


def _cmd_move_t(args) -> str:
    g = _load_graph(args.graph)
    return gr.print_graph(gr.move_t(g, args.vertex))


def _cmd_move_s(args) -> str:
    g = _load_graph(args.graph)
    return gr.print_graph(gr.move_s(g, args.vertex))


def _cmd_double(args) -> str:
    g = _load_graph(args.graph)
    clopen = ps.parse_clopen(g, args.clopen)
    w1, w2 = fg.doubling_bisections(g, clopen)
    lines = ["bisection w1"]
    lines += [str(b) for b in w1]
    lines += ["bisection w2"]
    lines += [str(b) for b in w2]
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "check": (_cmd_check, ["graph"]),
    "homology": (_cmd_homology, ["graph"]),
    "index": (_cmd_index, ["graph", "element"]),
    "compose": (_cmd_compose, ["graph", "left", "right"]),
    "invert": (_cmd_invert, ["graph", "element"]),
    "partition": (_cmd_partition, ["graph", "element"]),
    "factor": (_cmd_factor, ["graph", "element"]),
    "verify": (_cmd_verify, ["graph", "element", "factors"]),
    "move-t": (_cmd_move_t, ["graph", "vertex"]),
    "move-s": (_cmd_move_s, ["graph", "vertex"]),
    "double": (_cmd_double, ["graph", "clopen"]),
}


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first ``main`` call and reused:
    parsing leaves it unchanged, a usage error included."""
    parser = _Parser(prog="ggt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    for name, (_, arguments) in _COMMANDS.items():
        p = sub.add_parser(name)
        for arg in arguments:
            p.add_argument(arg)
        p.add_argument("-o", dest="out", default=None,
                       help="write the report to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    if not args.command:
        sys.stderr.write("usage error: missing command\n")
        return 1
    handler = _COMMANDS[args.command][0]
    try:
        _emit(handler(args), args.out)
    except RefusalError as exc:
        sys.stdout.write(f"{type(exc).__name__}\n{exc}\n")
        return 3
    except GgtError as exc:
        sys.stdout.write(f"{type(exc).__name__}\n{exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
