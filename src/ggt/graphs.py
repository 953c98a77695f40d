"""Directed graphs with infinite emitters and their structural predicates.

A graph has finitely many vertices, concrete named edges, and edge
families: a family ``L`` from ``v`` to ``w`` stands for the countably
many edges ``L#1, L#2, ...``. Family members are never materialized;
algorithms touch only finitely many of them and compare members by
(family, index). A vertex is singular iff it is a sink or emits a
family (infinite emitter).

A ``Graph`` checks its declaration and builds its edge and successor
tables once, in ``__init__``; every query reads those tables.

All orderings are deterministic: lexicographic on names, numeric on
family indices, so every operation is reproducible byte for byte.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import (CriteriaFailed, HypothesesFailed, MalformedGraph,
                     NoDisjointCycles, NotARegularSource, NotInfiniteEmitter,
                     NotStronglyConnected, ParseError)

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")
_MEMBER_RE = re.compile(r"^([A-Za-z0-9_]+)#([1-9][0-9]*)$")


@functools.lru_cache(maxsize=65536)
def edge_key(edge: str):
    """Total order on edge references: (base name, family index). The
    index is nonzero exactly for a family member ``F#k``."""
    m = _MEMBER_RE.match(edge)
    if m:
        return (m.group(1), int(m.group(2)))
    return (edge, 0)


def family_member(family: str, k: int) -> str:
    return f"{family}#{k}"


def split_member(edge: str):
    """(family, index) for a family member, else None."""
    key = edge_key(edge)
    return key if key[1] else None


class Graph:
    """Immutable directed graph with optional infinite edge families."""

    __slots__ = ("name", "vertices", "edges", "families",
                 "_edge_map", "_family_map", "_out_concrete", "_out_families",
                 "_successors", "_incoming", "_singular", "_hash")

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
        # name -> its declared (name, source, range) triple, shared with
        # self.edges / self.families rather than copied
        self._edge_map = {}
        self._family_map = {}
        out_concrete = {v: [] for v in self.vertices}
        out_families = {v: [] for v in self.vertices}
        successors = {v: set() for v in self.vertices}
        self._incoming = dict.fromkeys(self.vertices, 0)
        for kind, triples, table, out in (
                ("edge", self.edges, self._edge_map, out_concrete),
                ("family", self.families, self._family_map, out_families)):
            for triple in triples:
                e, s, r = triple
                if not _NAME_RE.match(e):
                    raise MalformedGraph(f"bad {kind} name {e!r}")
                if e in seen:
                    raise MalformedGraph(f"duplicate name {e!r}")
                seen.add(e)
                if s not in vset or r not in vset:
                    raise MalformedGraph(f"{kind} {e!r} has dangling endpoint")
                table[e] = triple
                out[s].append(e)
                successors[s].add(r)
                self._incoming[r] += 1
        self._out_concrete = {v: tuple(sorted(es)) for v, es in out_concrete.items()}
        self._out_families = {v: tuple(sorted(fs)) for v, fs in out_families.items()}
        # the ranges of each vertex's edges and families, sorted, each once
        self._successors = {v: tuple(sorted(ws)) for v, ws in successors.items()}
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

    def _resolve(self, edge: str):
        """The declared (name, source, range) triple of an edge reference,
        a concrete edge or a member ``F#k`` of a declared family; None for
        anything else. A concrete edge costs one dict lookup."""
        triple = self._edge_map.get(edge)
        if triple is None:
            m = split_member(edge)
            triple = m and self._family_map.get(m[0])
        return triple

    def is_edge(self, edge: str) -> bool:
        return self._resolve(edge) is not None

    def source(self, edge: str) -> str:
        triple = self._resolve(edge)
        if triple is None:
            raise MalformedGraph(f"unknown edge {edge!r}")
        return triple[1]

    def range(self, edge: str) -> str:
        """The range vertex of an edge reference, resolved by ``_resolve``
        like ``source`` and ``is_edge``."""
        triple = self._resolve(edge)
        if triple is None:
            raise MalformedGraph(f"unknown edge {edge!r}")
        return triple[2]

    def family_range(self, family: str) -> str:
        return self._family_map[family][2]

    def out_concrete(self, v):
        return self._out_concrete[v]

    def out_families(self, v):
        return self._out_families[v]

    def is_sink(self, v) -> bool:
        return not self._successors[v]

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
        """The vertices v has an edge or family into, sorted."""
        return self._successors[v]

    def strongly_connected_components(self):
        """SCCs in deterministic order (Tarjan over sorted successors)."""
        succ = self._successors
        index = {}
        low = {}
        on_stack = set()
        stack = []
        comps = []
        counter = [0]

        def strongconnect(v):
            work = [(v, iter(succ[v]))]
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
                        work.append((w, iter(succ[w])))
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

    def is_cyclic(self, comp):
        """Whether an SCC contains a cycle: more than one vertex, or a
        single vertex with a loop edge or loop family."""
        if len(comp) > 1:
            return True
        (v,) = comp
        return v in self._successors[v]

    def nontrivial_scc(self):
        """The unique cycle-supporting SCC, or None."""
        found = [c for c in self.strongly_connected_components()
                 if self.is_cyclic(c)]
        return found[0] if len(found) == 1 else None


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


@functools.lru_cache(maxsize=128)
def validate(g: Graph) -> CriteriaReport:
    """Compute all structural flags exactly, once per graph while it is
    among the 128 graphs looked up last: the cache is bounded, so a
    process that validates many graphs does not keep them all alive.

    Every criterion is read off the SCC condensation. Tarjan emits a
    component only after every component it reaches, so one pass over
    the components in emission order gives each its reach set: itself
    plus the reach sets of the components its edges enter. A cycle lies
    inside one component, and every vertex of a cyclic component lies on
    a cycle inside it.

    * Condition (L) fails iff some cycle has no exit, i.e. runs through
      vertices with one concrete out-edge and no family. Such a cycle is
      closed under successors, so it is a whole component; conversely a
      cyclic component of such vertices is one exitless cycle.
    * Cofinality fails at v iff some infinite path avoids every vertex
      reachable from v. With finitely many vertices an infinite path
      ends in a cycle, and vertices unreachable from v are closed under
      predecessors, so this holds iff a cyclic component lies outside
      the reach set of v's component.
    * v reaches every infinite emitter iff its component's reach set
      holds them all.

    Each witness names least vertices in name order, so it depends on no
    walk order: the least vertex on an exitless cycle; the least v that
    is not cofinal, with the least vertex on a cycle that v cannot reach;
    the least v missing an emitter, with the least emitter it misses. The
    vertices on exitless cycles, and the vertices on cycles unreachable
    from v, are exactly the vertices of the components found above, so
    each least vertex is the least vertex of those components.
    """
    witnesses = []
    verts = sorted(g.vertices)

    sinks = [v for v in verts if g.is_sink(v)]
    no_sinks = not sinks
    if sinks:
        witnesses.append(("no_sinks", f"sink {sinks[0]}"))

    sources = [v for v in verts if g._incoming[v] == 0]
    no_sources = not sources
    if sources:
        witnesses.append(("no_sources", f"source {sources[0]}"))

    comps = g.strongly_connected_components()
    reach = {}  # vertex -> the reach set of its component
    for comp in comps:
        # successors outside comp lie in components emitted before it
        r = set(comp).union(*(reach[w] for u in comp for w in g._successors[u]
                              if w in reach))
        reach.update(dict.fromkeys(comp, r))
    cyclic = [c for c in comps if g.is_cyclic(c)]

    exitless = [v for c in cyclic
                if all(len(g.out_concrete(u)) == 1 and not g.out_families(u)
                       for u in c)
                for v in c]
    cond_l = not exitless
    if exitless:
        witnesses.append(("condition_L", f"exitless cycle at {min(exitless)}"))

    def first_miss(targets):
        """The least v missing a target from its reach set, and the least
        target it misses; None if every v reaches all targets."""
        for v in verts:
            missed = targets - reach[v]
            if missed:
                return v, min(missed)
        return None

    miss = first_miss(set().union(*cyclic))
    cofinal = miss is None
    if miss:
        witnesses.append(("cofinal",
                          "{} cannot reach the cycle at {}".format(*miss)))

    emitters = [v for v in verts if g.is_infinite_emitter(v)]
    miss = first_miss(set(emitters))
    reaches = miss is None
    if miss:
        witnesses.append(("reaches_all_infinite_emitters",
                          "{} cannot reach {}".format(*miss)))

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


def require_factor_hypotheses(g: Graph) -> CriteriaReport:
    """The report of a graph meeting the factorization hypotheses, else
    HypothesesFailed naming the witness."""
    report = validate(g)
    if not report.factor_hypotheses:
        raise HypothesesFailed(report.witness("factor_hypotheses")
                               or "factorization hypotheses fail")
    return report


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
    if not validate(g).strongly_connected:
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

def free_edges(g: Graph, v: str, banned=()):
    """The out-edges of v not in ``banned``: every concrete one and the
    least member of each family, sorted by ``edge_key``.

    Members of one family share their range, so the least free member
    stands for all of them in any search by range.
    """
    free = [e for e in g.out_concrete(v) if e not in banned]
    for f in g.out_families(v):
        k = 1
        while family_member(f, k) in banned:
            k += 1
        free.append(family_member(f, k))
    return sorted(free, key=edge_key)


def find_path(g: Graph, src: str, dst: str, length=None):
    """Deterministic path from src to dst as a tuple of edge references.

    With `length` given, the lexicographically least path of exactly that
    length (by edge-name order, family members in index order) or None;
    None for a negative length.
    Without it, the shortest path, ties broken lexicographically; the
    empty path when src == dst, and None when dst is not reachable.

    One backward layer table decides everything: ``into[0] = {dst}`` and
    ``into[j]`` holds the vertices with a successor in ``into[j - 1]``,
    i.e. those with a length-j path to dst. The path of length l from
    src exists iff src is in ``into[l]``, and taking at each step the
    least free edge (``free_edges``) whose range is in the next lower
    layer gives the least one. The shortest length is the least j with
    src in ``into[j]``; it is below |V|, and the search stops at 2|V|.
    No recursion, so the length is limited only by memory.
    """
    if src not in g.vertices or dst not in g.vertices:
        raise MalformedGraph("unknown vertex in path query")
    if length is not None and length < 0:
        return None
    into = [{dst}]
    bound = 2 * len(g.vertices) if length is None else length
    while len(into) <= bound and (length is not None or src not in into[-1]):
        into.append({u for u, ws in g._successors.items()
                     if not into[-1].isdisjoint(ws)})
    if src not in into[-1]:
        return None
    path, u = [], src
    for layer in reversed(into[:-1]):
        e = next(e for e in free_edges(g, u) if g.range(e) in layer)
        path.append(e)
        u = g.range(e)
    return tuple(path)


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
        for e in free_edges(g, v, avoid):
            tail = find_path(g, g.range(e), v, length=l - 1)
            if tail is not None:
                first = (e,) + tail
                break
        if first is not None:
            break
    if first is None:
        raise NoDisjointCycles(f"no cycle based at {v}")
    for i, ci in enumerate(first):
        for d in free_edges(g, g.source(ci), (avoid | {ci}) if i == 0 else {ci}):
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
