"""Directed graphs with infinite emitters and their structural predicates.

A graph has finitely many vertices, concrete named edges, and edge
families: a family ``L`` from ``v`` to ``w`` stands for the countably
many edges ``L#1, L#2, ...``. Family members are never materialized;
algorithms touch only finitely many of them and compare members by
(family, index). A vertex is singular iff it is a sink or emits a
family (infinite emitter).

All orderings are deterministic: lexicographic on names, numeric on
family indices, so every operation is reproducible byte for byte.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import (CriteriaFailed, MalformedGraph, NoDisjointCycles,
                     NotARegularSource, NotInfiniteEmitter,
                     NotStronglyConnected, ParseError)

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
_MEMBER_RE = re.compile(r"^([A-Za-z0-9_]+)#([1-9][0-9]*)$")


@functools.lru_cache(maxsize=65536)
def edge_key(edge: str):
    """Total order on edge references: (base name, family index)."""
    m = _MEMBER_RE.match(edge)
    if m:
        return (m.group(1), int(m.group(2)))
    return (edge, 0)


def family_member(family: str, k: int) -> str:
    return f"{family}#{k}"


@functools.lru_cache(maxsize=65536)
def split_member(edge: str):
    """(family, index) for a family member, else None."""
    m = _MEMBER_RE.match(edge)
    if m:
        return m.group(1), int(m.group(2))
    return None


class Graph:
    """Immutable directed graph with optional infinite edge families."""

    __slots__ = ("name", "vertices", "edges", "families",
                 "_edge_map", "_family_map", "_out_concrete", "_out_families",
                 "_incoming", "_singular", "_hash")

    def __init__(self, name, vertices, edges=(), families=()):
        self.name = name
        self.vertices = tuple(vertices)
        self.edges = tuple((e, s, r) for (e, s, r) in edges)
        self.families = tuple((f, s, r) for (f, s, r) in families)

        seen = set()
        for v in self.vertices:
            if not _NAME_RE.match(v):
                raise MalformedGraph(f"bad vertex name {v!r}")
            if v in seen:
                raise MalformedGraph(f"duplicate name {v!r}")
            seen.add(v)
        vset = set(self.vertices)
        self._edge_map = {}
        self._family_map = {}
        for e, s, r in self.edges:
            if not _NAME_RE.match(e):
                raise MalformedGraph(f"bad edge name {e!r}")
            if e in seen:
                raise MalformedGraph(f"duplicate name {e!r}")
            seen.add(e)
            if s not in vset or r not in vset:
                raise MalformedGraph(f"edge {e!r} has dangling endpoint")
            self._edge_map[e] = (s, r)
        for f, s, r in self.families:
            if not _NAME_RE.match(f):
                raise MalformedGraph(f"bad family name {f!r}")
            if f in seen:
                raise MalformedGraph(f"duplicate name {f!r}")
            seen.add(f)
            if s not in vset or r not in vset:
                raise MalformedGraph(f"family {f!r} has dangling endpoint")
            self._family_map[f] = (s, r)

        self._out_concrete = {v: [] for v in self.vertices}
        self._out_families = {v: [] for v in self.vertices}
        self._incoming = {v: 0 for v in self.vertices}
        for e, s, r in self.edges:
            self._out_concrete[s].append(e)
            self._incoming[r] += 1
        for f, s, r in self.families:
            self._out_families[s].append(f)
            self._incoming[r] += 1
        for v in self.vertices:
            self._out_concrete[v].sort()
            self._out_families[v].sort()
        self._singular = frozenset(v for v in self.vertices
                                   if self.is_sink(v) or self.is_infinite_emitter(v))
        self._hash = hash((self.vertices, self.edges, self.families))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.vertices == other.vertices
                and self.edges == other.edges
                and self.families == other.families)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph({self.name!r}, |V|={len(self.vertices)})"

    # -- edge accessors ----------------------------------------------------

    def is_edge(self, edge: str) -> bool:
        if edge in self._edge_map:
            return True
        m = split_member(edge)
        return m is not None and m[0] in self._family_map

    def source(self, edge: str) -> str:
        if edge in self._edge_map:
            return self._edge_map[edge][0]
        m = split_member(edge)
        if m and m[0] in self._family_map:
            return self._family_map[m[0]][0]
        raise MalformedGraph(f"unknown edge {edge!r}")

    def range(self, edge: str) -> str:
        if edge in self._edge_map:
            return self._edge_map[edge][1]
        m = split_member(edge)
        if m and m[0] in self._family_map:
            return self._family_map[m[0]][1]
        raise MalformedGraph(f"unknown edge {edge!r}")

    def family_range(self, family: str) -> str:
        return self._family_map[family][1]

    def out_concrete(self, v):
        return tuple(self._out_concrete[v])

    def out_families(self, v):
        return tuple(self._out_families[v])

    def is_sink(self, v) -> bool:
        return not self._out_concrete[v] and not self._out_families[v]

    def is_infinite_emitter(self, v) -> bool:
        return bool(self._out_families[v])

    def is_singular(self, v) -> bool:
        return v in self._singular

    def is_regular(self, v) -> bool:
        return v not in self._singular

    def regular_vertices(self):
        return tuple(v for v in sorted(self.vertices) if self.is_regular(v))

    # -- reachability ------------------------------------------------------

    def successors(self, v):
        out = set(self._edge_map[e][1] for e in self._out_concrete[v])
        out.update(self._family_map[f][1] for f in self._out_families[v])
        return sorted(out)

    def reachable_from(self, v):
        """All vertices reachable from v, including v."""
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in self.successors(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def strongly_connected_components(self):
        """SCCs in deterministic order (Tarjan over sorted successors)."""
        index = {}
        low = {}
        on_stack = set()
        stack = []
        comps = []
        counter = [0]

        def strongconnect(v):
            work = [(v, iter(self.successors(v)))]
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                u, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(self.successors(w))))
                        advanced = True
                        break
                    elif w in on_stack:
                        low[u] = min(low[u], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[u])
                if low[u] == index[u]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == u:
                            break
                    comps.append(frozenset(comp))

        for v in sorted(self.vertices):
            if v not in index:
                strongconnect(v)
        return comps

    def nontrivial_scc(self):
        """The unique cycle-supporting SCC, or None.

        A component is nontrivial if it contains a cycle: more than one
        vertex, or a single vertex with a loop edge or loop family.
        """
        found = []
        for comp in self.strongly_connected_components():
            if len(comp) > 1:
                found.append(comp)
            else:
                (v,) = comp
                has_loop = any(self._edge_map[e][1] == v for e in self._out_concrete[v])
                has_loop = has_loop or any(self._family_map[f][1] == v
                                           for f in self._out_families[v])
                if has_loop:
                    found.append(comp)
        if len(found) == 1:
            return found[0]
        return None


@dataclass(frozen=True)
class CriteriaReport:
    """Structural predicate flags with counterexample witnesses."""

    no_sinks: bool
    no_sources: bool
    condition_L: bool
    cofinal: bool
    reaches_all_infinite_emitters: bool
    strongly_connected: bool
    ah_criteria: bool
    factor_hypotheses: bool
    emitter: tuple | None  # (w, loop family) of the distinguished emitter
    witnesses: tuple

    def witness(self, flag):
        for name, text in self.witnesses:
            if name == flag:
                return text
        return None


@functools.lru_cache(maxsize=None)
def validate(g: Graph) -> CriteriaReport:
    """Compute all structural flags exactly, once per graph.

    Condition (L) fails iff the subgraph of vertices with total out-degree
    exactly one (and no family) contains a cycle: such a cycle has no exit.
    Cofinality fails iff for some v the set of vertices unreachable from v
    contains a cycle; with finitely many vertices every infinite path must
    revisit a vertex, so an infinite path avoidable from v exists exactly
    when such a cycle does.
    """
    witnesses = []

    sinks = [v for v in sorted(g.vertices) if g.is_sink(v)]
    no_sinks = not sinks
    if sinks:
        witnesses.append(("no_sinks", f"sink {sinks[0]}"))

    sources = [v for v in sorted(g.vertices) if g._incoming[v] == 0]
    no_sources = not sources
    if sources:
        witnesses.append(("no_sources", f"source {sources[0]}"))

    forced = {v for v in g.vertices
              if len(g.out_concrete(v)) == 1 and not g.out_families(v)}
    cond_l = True
    cycle = _find_cycle_within(g, forced)
    if cycle is not None:
        cond_l = False
        witnesses.append(("condition_L", f"exitless cycle at {cycle}"))

    cofinal = True
    for v in sorted(g.vertices):
        unreachable = set(g.vertices) - g.reachable_from(v)
        cyc = _find_cycle_within(g, unreachable)
        if cyc is not None:
            cofinal = False
            witnesses.append(("cofinal", f"{v} cannot reach the cycle at {cyc}"))
            break

    reaches = True
    emitters = [v for v in sorted(g.vertices) if g.is_infinite_emitter(v)]
    for v in sorted(g.vertices):
        reach = g.reachable_from(v)
        missing = [w for w in emitters if w not in reach]
        if missing:
            reaches = False
            witnesses.append(("reaches_all_infinite_emitters",
                              f"{v} cannot reach {missing[0]}"))
            break

    comps = g.strongly_connected_components()
    strongly = len(comps) == 1
    if not strongly:
        witnesses.append(("strongly_connected", f"{len(comps)} components"))

    ah = no_sinks and cond_l and cofinal and reaches

    # the least emitter with a loop family and edges to every vertex
    emitter = None
    if strongly:
        for w in emitters:
            loops = [f for f in g.out_families(w) if g.family_range(f) == w]
            if loops and set(g.vertices) <= set(g.successors(w)):
                emitter = (w, loops[0])
                break
    factor_ok = emitter is not None
    if not factor_ok:
        if not strongly:
            witnesses.append(("factor_hypotheses", "not strongly connected"))
        elif not emitters:
            witnesses.append(("factor_hypotheses", "no infinite emitter"))
        else:
            witnesses.append(("factor_hypotheses",
                              "no emitter with a loop family and edges to every vertex"))

    return CriteriaReport(no_sinks, no_sources, cond_l, cofinal, reaches,
                          strongly, ah, factor_ok, emitter, tuple(witnesses))


def require_ah_criteria(g: Graph) -> CriteriaReport:
    """The report of a graph meeting the AH criteria, else CriteriaFailed
    naming the witness of every failing criterion."""
    report = validate(g)
    if not report.ah_criteria:
        detail = "; ".join(f"{k}: {w}" for k, w in report.witnesses
                           if k in ("no_sinks", "condition_L", "cofinal",
                                    "reaches_all_infinite_emitters"))
        raise CriteriaFailed(detail or "graph fails the AH criteria")
    return report


def _find_cycle_within(g: Graph, allowed):
    """Least vertex lying on a cycle fully inside `allowed`, or None."""
    allowed = set(allowed)
    for v in sorted(allowed):
        # DFS from v through allowed vertices looking for a return to v
        stack = [v]
        seen = set()
        while stack:
            u = stack.pop()
            for w in g.successors(u):
                if w == v:
                    return v
                if w in allowed and w not in seen:
                    seen.add(w)
                    stack.append(w)
    return None


# -- geometric moves -------------------------------------------------------

def move_t(g: Graph, w: str) -> Graph:
    """Add one fresh edge family from w to every vertex.

    Requires a strongly connected graph and an infinite emitter w; the
    resulting graph presents an isomorphic groupoid.
    """
    if w not in g.vertices:
        raise MalformedGraph(f"unknown vertex {w!r}")
    if not g.is_infinite_emitter(w):
        raise NotInfiniteEmitter(f"{w} is not an infinite emitter")
    if len(g.strongly_connected_components()) != 1:
        raise NotStronglyConnected("move (T) requires a strongly connected graph")
    used = set(g.vertices)
    used.update(e for e, _, _ in g.edges)
    used.update(f for f, _, _ in g.families)
    fresh = []
    counter = 1
    for v in g.vertices:
        while f"mt{counter}" in used:
            counter += 1
        name = f"mt{counter}"
        used.add(name)
        fresh.append((name, w, v))
    return Graph(g.name, g.vertices, g.edges, g.families + tuple(fresh))


def move_s(g: Graph, v: str) -> Graph:
    """Delete a regular source v together with all edges it emits."""
    if v not in g.vertices:
        raise MalformedGraph(f"unknown vertex {v!r}")
    if g._incoming[v] != 0:
        raise NotARegularSource(f"{v} has incoming edges")
    if g.is_singular(v):
        raise NotARegularSource(f"{v} is singular")
    vertices = tuple(u for u in g.vertices if u != v)
    edges = tuple((e, s, r) for (e, s, r) in g.edges if s != v)
    families = tuple((f, s, r) for (f, s, r) in g.families if s != v)
    return Graph(g.name, vertices, edges, families)


# -- deterministic path search ---------------------------------------------

def _candidate_edges(g, v, extra_members=1):
    """Out-edge references at v: concrete edges plus low family members."""
    refs = list(g.out_concrete(v))
    for f in g.out_families(v):
        refs.extend(family_member(f, k) for k in range(1, extra_members + 1))
    return sorted(refs, key=edge_key)


def find_path(g: Graph, src: str, dst: str, length=None):
    """Deterministic path from src to dst as a tuple of edge references.

    With `length` given, the lexicographically least path of exactly that
    length (by edge-name order, family members in index order) or None.
    Without it, the shortest path, ties broken lexicographically; the
    empty path when src == dst.
    """
    if src not in g.vertices or dst not in g.vertices:
        raise MalformedGraph("unknown vertex in path query")
    if length is not None:
        memo = {}

        def best(u, l):
            if l == 0:
                return () if u == dst else None
            key = (u, l)
            if key in memo:
                return memo[key]
            memo[key] = None  # cycle guard during recursion; lengths decrease
            result = None
            for e in _candidate_edges(g, u, extra_members=1):
                tail = best(g.range(e), l - 1)
                if tail is not None:
                    result = (e,) + tail
                    break
            memo[key] = result
            return result

        return best(src, length)
    for l in range(0, 2 * len(g.vertices) + 1):
        p = find_path(g, src, dst, length=l)
        if p is not None:
            return p
    return None


def two_disjoint_cycles(g: Graph, v: str, avoid_first=()):
    """Two cycles based at v, neither a subpath of the other.

    Deterministic: the first cycle is the least shortest cycle at v whose
    first edge is not in `avoid_first`; the second deviates from it at the
    earliest vertex admitting an exit that can return to v.
    """
    if v not in g.vertices:
        raise MalformedGraph(f"unknown vertex {v!r}")
    avoid = frozenset(avoid_first)
    first = None
    for l in range(1, 2 * len(g.vertices) + 2):
        for e in _candidate_edges(g, v, extra_members=len(avoid) + 2):
            if e in avoid:
                continue
            tail = find_path(g, g.range(e), v, length=l - 1)
            if tail is not None:
                first = (e,) + tail
                break
        if first is not None:
            break
    if first is None:
        raise NoDisjointCycles(f"no cycle based at {v}")
    for i, ci in enumerate(first):
        u = g.source(ci)
        for d in _candidate_edges(g, u, extra_members=len(avoid) + 2):
            if d == ci:
                continue
            if i == 0 and d in avoid:
                continue
            back = find_path(g, g.range(d), v)
            if back is None:
                continue
            second = first[:i] + (d,) + back
            return first, second
    raise NoDisjointCycles(f"only one cycle class based at {v}")


# -- text format -------------------------------------------------------------

def parse_graph(text: str, name: str = "graph") -> Graph:
    """Parse the line-oriented graph format.

    Lines: ``vertex <name>``, ``edge <name> <source> <range>``,
    ``iedges <family> <source> <range>``; ``#`` starts a comment.
    """
    vertices = []
    edges = []
    families = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) == 4:
            edges.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "iedges" and len(parts) == 4:
            families.append((parts[1], parts[2], parts[3]))
        else:
            raise ParseError(f"line {lineno}: cannot parse {raw!r}")
    return Graph(name, vertices, edges, families)


def print_graph(g: Graph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e} {s} {r}" for (e, s, r) in g.edges]
    lines += [f"iedges {f} {s} {r}" for (f, s, r) in g.families]
    return "\n".join(lines) + "\n"
