"""Exact Boolean algebra of compact open subsets of the boundary path space.

A compact open set is a finite disjoint union of punctured cylinders
Z(mu \\ F): boundary paths extending mu but not continuing through any
edge of the finite set F. The canonical form keeps punctures only at
singular range vertices; at regular vertices a punctured cylinder is
split into the finitely many plain sub-cylinders, and complete sibling
families are merged back into their parent. The resulting piece list is
unique for a given set, so structural comparison decides set equality.

Two cylinders meet only when one path is a prefix of the other, so every
search over pieces is a prefix search, and it has one index: the path
trie (``path_trie``), one node per path prefix, each holding the entries
whose path ends there. The canonical form and the complement are walks
over it, ``find_overlap`` finds two meeting pieces with it, and
``fullgroup.compose_bisections`` pairs blocks through it.

Boundary points are represented exactly: a finite prefix followed either
by a repeating cycle or by a stop at a singular vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import MalformedGraph, ParseError
from .graphs import Graph, edge_key


@dataclass(frozen=True)
class Path:
    """Finite path: a base vertex and a composable tuple of edge names."""

    base: str
    edges: tuple = ()

    def __len__(self):
        return len(self.edges)

    def key(self):
        return (len(self.edges), tuple(edge_key(e) for e in self.edges), self.base)

    def extend(self, *edges):
        return Path(self.base, self.edges + tuple(edges))

    def is_prefix_of(self, other: "Path") -> bool:
        return (self.base == other.base
                and other.edges[:len(self.edges)] == self.edges)

    def __str__(self):
        if not self.edges:
            return f"@{self.base}"
        return ".".join(self.edges)


def path_range(g: Graph, p: Path) -> str:
    return g.range(p.edges[-1]) if p.edges else p.base


def check_path(g: Graph, p: Path):
    if p.base not in g.vertices:
        raise MalformedGraph(f"unknown vertex {p.base!r}")
    at = p.base
    for e in p.edges:
        if not g.is_edge(e) or g.source(e) != at:
            raise MalformedGraph(f"path {p} is not composable at {e!r}")
        at = g.range(e)
    return p


@dataclass(frozen=True)
class Piece:
    """Punctured cylinder Z(mu \\ F); punctures stored sorted."""

    mu: Path
    punctures: tuple = ()

    def key(self):
        return (len(self.mu), tuple(edge_key(e) for e in self.mu.edges),
                tuple(edge_key(e) for e in self.punctures), self.mu.base)

    def depth(self):
        return len(self.mu) + (1 if self.punctures else 0)

    def __str__(self):
        if not self.punctures:
            return f"Z({self.mu})"
        return f"Z({self.mu} \\ {','.join(self.punctures)})"


def make_piece(g: Graph, mu: Path, punctures=()) -> Piece:
    check_path(g, mu)
    v = path_range(g, mu)
    punctures = tuple(sorted(set(punctures), key=edge_key))
    for e in punctures:
        if not g.is_edge(e) or g.source(e) != v:
            raise MalformedGraph(f"puncture {e!r} is not emitted by {v}")
    if g.is_regular(v) and set(punctures) >= set(g.out_concrete(v)):
        raise MalformedGraph("fully punctured regular cylinder is empty")
    return Piece(mu, punctures)


def piece_is_empty(g: Graph, p: Piece) -> bool:
    v = path_range(g, p.mu)
    if g.is_regular(v):
        return set(p.punctures) >= set(g.out_concrete(v))
    return False


def intersect_pieces(g: Graph, a: Piece, b: Piece):
    """Intersection of two pieces is empty or a single piece."""
    if a.mu.is_prefix_of(b.mu):
        shorter, longer = a, b
    elif b.mu.is_prefix_of(a.mu):
        shorter, longer = b, a
    else:
        return None
    if len(shorter.mu) == len(longer.mu):
        merged = tuple(sorted(set(a.punctures) | set(b.punctures), key=edge_key))
        p = Piece(a.mu, merged)
        return None if piece_is_empty(g, p) else p
    nxt = longer.mu.edges[len(shorter.mu)]
    if nxt in shorter.punctures:
        return None
    return None if piece_is_empty(g, longer) else longer


def subtract_piece(g: Graph, a: Piece, b: Piece):
    """Pieces of a minus b, pairwise disjoint, not canonicalized.

    ``Clopen.subtract`` is a complement walk and does not call this; it
    stays as the pairwise reference of the tests, and the benchmark's
    tracer counts its calls by name."""
    if intersect_pieces(g, a, b) is None:
        return [] if piece_is_empty(g, a) else [a]
    if b.mu.is_prefix_of(a.mu) and len(b.mu) < len(a.mu):
        # a sits strictly below b and meets it, hence a is inside b
        return []
    if a.mu == b.mu:
        out = []
        for e in b.punctures:
            if e not in a.punctures:
                out.append(Piece(a.mu.extend(e)))
        return out
    # b sits strictly below a: carve the route to b out of a, descending
    out = []
    cur = a
    rel = b.mu.edges[len(a.mu):]
    at = a.mu
    punct = set(a.punctures)
    for e in rel:
        keep = Piece(at, tuple(sorted(punct | {e}, key=edge_key)))
        if not piece_is_empty(g, keep):
            out.append(keep)
        at = at.extend(e)
        punct = set()
    # at == b.mu now; remove Z(b.mu \ F) from Z(b.mu)
    for e in b.punctures:
        out.append(Piece(at.extend(e)))
    return out


class TrieNode:
    """A node of ``path_trie``: the indices of the entries whose path ends
    here, in increasing order, the children by edge, and the slot where
    ``_emit`` settles the subtree below."""

    __slots__ = ("at", "children", "result")

    def __init__(self):
        self.at = []
        self.children = {}
        self.result = None


def path_trie(paths):
    """The trie over the given paths, one root per base vertex, and the
    node where each path ends.

    Building it touches each edge of each path once, so it takes time
    linear in the total path length; no prefix is copied or hashed.
    """
    roots = {}
    ends = []
    for i, path in enumerate(paths):
        node = roots.get(path.base)
        if node is None:
            node = roots[path.base] = TrieNode()
        for e in path.edges:
            children = node.children
            node = children.get(e)
            if node is None:
                node = children[e] = TrieNode()
        node.at.append(i)
        ends.append(node)
    return roots, ends


def _open_edges(pieces, node):
    """The edges punctured by every piece ending at the node: the pieces
    there cover the rest of its cylinder."""
    at = node.at
    edges = set(pieces[at[0]].punctures)
    for i in at[1:]:
        edges.intersection_update(pieces[i].punctures)
    return edges


def find_overlap(g: Graph, pieces):
    """Indices of two overlapping pieces, or None.

    Two pieces meet only when one path is a prefix of the other. The
    search builds the trie over all the paths (``path_trie``) and then
    makes two passes in list order. The first pairs each piece with the
    earlier pieces on its own path, which meet unless their punctures
    together empty the cylinder. The second walks each path down the
    trie and pairs it with the pieces ending at each strict prefix whose
    punctures miss the path's next edge. The trie is whole before either
    pass, so a shorter piece later in the list is found too. The pair
    reported is (j, i) for the first i that either pass meets, with the
    least j on i's own path in the first pass, and in the second the
    least j on the shortest prefix of i's path that holds one. No prefix
    is copied or hashed: the search takes time linear in the total path
    length plus the pairs on shared paths.
    """
    roots, ends = path_trie(p.mu for p in pieces)
    for i, node in enumerate(ends):
        if len(node.at) > 1:
            for j in node.at:
                if j >= i:
                    break
                if intersect_pieces(g, pieces[j], pieces[i]) is not None:
                    return j, i
    for i, p in enumerate(pieces):
        node = roots[p.mu.base]
        for e in p.mu.edges:
            for j in node.at:
                if e not in pieces[j].punctures:
                    return j, i
            node = node.children[e]
    return None


_FULL = object()


def _emit(g: Graph, mu: Path, node: TrieNode, pieces):
    """_FULL if the subtree at mu covers Z(mu), else its canonical pieces.

    A post-order walk on an explicit stack, so a deep trie takes no stack
    frames. A node is settled (``_settle``) into its ``result`` slot once
    the children it reads are settled; a childless one is settled as
    soon as it is reached instead of going on the stack.
    """
    stack = [(mu, node, None)]
    while stack:
        mu, node, edges = stack.pop()
        if edges is not None:
            node.result = _settle(g, mu, node, edges, pieces)
            continue
        if node.at:
            # coverage is Z(mu) minus the open edges plus whatever fills
            # them, so only the children on open edges count
            edges = [e for e in sorted(_open_edges(pieces, node), key=edge_key)
                     if e in node.children]
        else:
            edges = sorted(node.children, key=edge_key)
        stack.append((mu, node, edges))
        for e in edges:
            sub = node.children[e]
            if sub.children:
                stack.append((mu.extend(e), sub, None))
            else:
                sub.result = _settle(g, mu.extend(e), sub, (), pieces)
    return node.result


def _settle(g: Graph, mu: Path, node: TrieNode, edges, pieces):
    """The result of ``_emit`` at a node whose children on the given
    edges are settled."""
    v = path_range(g, mu)
    regular = g.is_regular(v)
    children = node.children
    if node.at:
        residue = []
        eff = _open_edges(pieces, node)
        for e in edges:
            r = children[e].result
            if r is _FULL:
                eff.discard(e)
            else:
                residue.extend(r)
        if not eff:
            return _FULL
        if not regular:
            residue.insert(0, Piece(mu, tuple(sorted(eff, key=edge_key))))
        else:
            # split the punctured regular piece into plain children; a
            # fully punctured one contributes nothing
            residue.extend(Piece(mu.extend(e)) for e in g.out_concrete(v)
                           if e not in eff)
        return residue
    # no at-node piece: coverage is the union of the child subtrees
    if (regular and all(children[e].result is _FULL for e in edges)
            and set(edges) == set(g.out_concrete(v))):
        return _FULL
    collected = []
    for e in edges:
        r = children[e].result
        if r is _FULL:
            collected.append(Piece(mu.extend(e)))
        else:
            collected.extend(r)
    return collected


def canonical_pieces(g: Graph, pieces):
    """The pieces of ``canonicalize``, in walk order rather than sorted."""
    pieces = [p for p in pieces if not piece_is_empty(g, p)]
    roots, _ = path_trie(p.mu for p in pieces)
    out = []
    for v, node in sorted(roots.items()):
        r = _emit(g, Path(v), node, pieces)
        if r is _FULL:
            out.append(Piece(Path(v)))
        else:
            out.extend(r)
    return out


def canonicalize(g: Graph, pieces):
    """Canonical disjoint piece list of the union of the given pieces.

    Union semantics: input pieces may overlap. Punctures survive only at
    singular range vertices; complete sibling covers merge into their
    parent; puncture sets are minimal; output is sorted.
    """
    return tuple(sorted(canonical_pieces(g, pieces), key=Piece.key))


def complement_pieces(g: Graph, pieces):
    """Disjoint pieces covering what the given pieces leave uncovered,
    by one walk over their path trie; not canonicalized.

    Pieces may overlap and need not be merged. Below a node holding
    pieces, only the edges punctured by all of them stay uncovered; below
    a node holding none, the walk follows the taken edges and keeps the
    out-edges it does not take. So an emitted piece reaches one edge
    below an input path only through a puncture of a piece there, and
    otherwise stays on or above some input path: no emitted piece is
    deeper than the deepest input piece.
    """
    pieces = [p for p in pieces if not piece_is_empty(g, p)]
    roots, _ = path_trie(p.mu for p in pieces)
    out = []
    stack = []
    for v in sorted(g.vertices):
        if v in roots:
            stack.append((Path(v), roots[v]))
        else:
            out.append(Piece(Path(v)))
    while stack:
        mu, node = stack.pop()
        if node.at:
            # the pieces here leave only their common punctures open;
            # sorted, so the output order does not follow string hashing
            edges = sorted(_open_edges(pieces, node), key=edge_key)
        else:
            # nothing sits here: keep the untaken edges, descend the rest
            edges = node.children
            v = path_range(g, mu)
            if g.is_regular(v):
                out.extend(Piece(mu.extend(e)) for e in g.out_concrete(v)
                           if e not in edges)
            else:
                out.append(Piece(mu, tuple(sorted(edges, key=edge_key))))
        for e in edges:
            sub = node.children.get(e)
            if sub is None:
                out.append(Piece(mu.extend(e)))
            else:
                stack.append((mu.extend(e), sub))
    return out


@dataclass(frozen=True)
class Clopen:
    """Finite disjoint union of pieces over a fixed graph."""

    graph: Graph = field(repr=False)
    pieces: tuple = ()

    @classmethod
    def of(cls, g: Graph, pieces) -> "Clopen":
        pieces = [make_piece(g, p.mu, p.punctures) if isinstance(p, Piece) else p
                  for p in pieces]
        return cls(g, canonicalize(g, pieces))

    @classmethod
    def cylinder(cls, g: Graph, mu: Path, punctures=()) -> "Clopen":
        return cls(g, canonicalize(g, [make_piece(g, mu, punctures)]))

    @classmethod
    def empty(cls, g: Graph) -> "Clopen":
        return cls(g, ())

    @classmethod
    def full(cls, g: Graph) -> "Clopen":
        return cls(g, tuple(Piece(Path(v)) for v in sorted(g.vertices)))

    def _check_same_graph(self, other):
        if self.graph != other.graph:
            raise MalformedGraph("operands live over different graphs")

    def is_empty(self) -> bool:
        """A union is empty iff every piece is; ``piece_is_empty`` is exact."""
        return all(piece_is_empty(self.graph, p) for p in self.pieces)

    def canonical(self) -> "Clopen":
        return Clopen(self.graph, canonicalize(self.graph, self.pieces))

    def intersect(self, other: "Clopen") -> "Clopen":
        """Points in both: the complement of the two complements, three
        trie walks (``complement_pieces``) and one canonical form."""
        self._check_same_graph(other)
        g = self.graph
        return Clopen(g, canonicalize(g, complement_pieces(
            g, complement_pieces(g, self.pieces)
            + complement_pieces(g, other.pieces))))

    def subtract(self, other: "Clopen") -> "Clopen":
        """Points of self off other: the complement of self's complement
        joined with other, two trie walks and one canonical form."""
        self._check_same_graph(other)
        g = self.graph
        return Clopen(g, canonicalize(g, complement_pieces(
            g, complement_pieces(g, self.pieces) + list(other.pieces))))

    def union(self, other: "Clopen") -> "Clopen":
        self._check_same_graph(other)
        return Clopen(self.graph,
                      canonicalize(self.graph, self.pieces + other.pieces))

    def complement(self) -> "Clopen":
        """The rest of the space: the canonical form of
        ``complement_pieces``, so the piece list of
        ``Clopen.full(g).subtract(self)``, canonical forms being unique."""
        g = self.graph
        return Clopen(g, canonicalize(g, complement_pieces(g, self.pieces)))

    def equal(self, other: "Clopen") -> bool:
        """Same set of points. Equal piece tuples are the same set, which
        skips both canonical forms whenever the two are already one form."""
        self._check_same_graph(other)
        return (self.pieces == other.pieces
                or canonicalize(self.graph, self.pieces)
                == canonicalize(self.graph, other.pieces))

    def refine_to(self, depth: int) -> "Clopen":
        """The same set with every regular-range piece split to the depth.

        Pieces whose range vertex is singular stop early and keep their
        punctures; the output is deliberately not re-merged.
        """
        out = []
        stack = list(self.pieces)
        while stack:
            p = stack.pop()
            v = path_range(self.graph, p.mu)
            if len(p.mu) >= depth or self.graph.is_singular(v):
                out.append(p)
                continue
            for e in self.graph.out_concrete(v):
                if e not in p.punctures:
                    stack.append(Piece(p.mu.extend(e)))
        return Clopen(self.graph, tuple(sorted(out, key=Piece.key)))

    def contains(self, x: "BoundaryPoint") -> bool:
        return any(piece_contains(self.graph, p, x) for p in self.pieces)

    def depth(self) -> int:
        return max((p.depth() for p in self.pieces), default=0)

    def __str__(self):
        if not self.pieces:
            return "0"
        return " + ".join(str(p) for p in self.pieces)


@dataclass(frozen=True)
class BoundaryPoint:
    """Eventually periodic boundary path: prefix plus cycle, or a stop.

    ``cycle=None`` encodes a finite boundary path ending at a singular
    vertex; otherwise the point is prefix followed by the cycle repeated
    forever. Construction normalizes to the unique minimal representative
    (primitive cycle, shortest prefix), so equality is structural.
    """

    prefix: Path
    cycle: tuple = None

    @staticmethod
    def at_singular(g: Graph, prefix: Path) -> "BoundaryPoint":
        check_path(g, prefix)
        if not g.is_singular(path_range(g, prefix)):
            raise MalformedGraph(f"path {prefix} does not end at a singular vertex")
        return BoundaryPoint(prefix, None)

    @staticmethod
    def periodic(g: Graph, prefix: Path, cycle) -> "BoundaryPoint":
        cycle = tuple(cycle)
        if not cycle:
            raise MalformedGraph("periodic tail needs a nonempty cycle")
        check_path(g, prefix)
        at = path_range(g, prefix)
        for e in cycle:
            if not g.is_edge(e) or g.source(e) != at:
                raise MalformedGraph("cycle is not composable with the prefix")
            at = g.range(e)
        if at != path_range(g, prefix):
            raise MalformedGraph("tail is not a cycle")
        prefix_edges = list(prefix.edges)
        cycle = list(cycle)
        # primitive cycle
        n = len(cycle)
        for d in range(1, n + 1):
            if n % d == 0 and cycle == cycle[:d] * (n // d):
                cycle = cycle[:d]
                break
        # absorb trailing prefix edges that already follow the cycle
        while prefix_edges and prefix_edges[-1] == cycle[-1]:
            prefix_edges.pop()
            cycle = [cycle[-1]] + cycle[:-1]
        return BoundaryPoint(Path(prefix.base, tuple(prefix_edges)), tuple(cycle))

    def edge_at(self, i: int):
        if i < len(self.prefix.edges):
            return self.prefix.edges[i]
        if self.cycle is None:
            return None
        return self.cycle[(i - len(self.prefix.edges)) % len(self.cycle)]

    def source(self) -> str:
        return self.prefix.base

    def __str__(self):
        if self.cycle is None:
            return f"{self.prefix}"
        return f"{self.prefix}({'.'.join(self.cycle)})^inf"


def piece_contains(g: Graph, p: Piece, x: BoundaryPoint) -> bool:
    if x.source() != p.mu.base:
        return False
    for i, e in enumerate(p.mu.edges):
        if x.edge_at(i) != e:
            return False
    nxt = x.edge_at(len(p.mu))
    return nxt not in p.punctures if nxt is not None else True


def singleton_point(g: Graph, p: Piece):
    """The unique point of a one-point piece, else None.

    A piece is a single point iff the walk from its range vertex through
    forced out-edges reaches a sink or revisits a vertex without ever
    meeting a branching vertex or an infinite emitter. Punctures act only
    on the first step.
    """
    v = path_range(g, p.mu)
    walked = []
    banned = set(p.punctures)
    seen_at = {}
    while True:
        if g.is_infinite_emitter(v):
            return None
        if g.is_sink(v):
            return BoundaryPoint(p.mu.extend(*walked), None)
        options = [e for e in g.out_concrete(v) if e not in banned]
        banned = set()
        if len(options) != 1:
            return None
        if v in seen_at:
            i = seen_at[v]
            return BoundaryPoint.periodic(g, p.mu.extend(*walked[:i]),
                                          tuple(walked[i:]))
        seen_at[v] = len(walked)
        walked.append(options[0])
        v = g.range(options[0])


def strip_prefix(g: Graph, x: BoundaryPoint, mu: Path) -> BoundaryPoint:
    """The tail of x after removing the prefix mu (mu must be a prefix)."""
    for i, e in enumerate(mu.edges):
        if x.edge_at(i) != e:
            raise MalformedGraph(f"{mu} is not a prefix of {x}")
    n = len(mu)
    base = path_range(g, mu)
    if n <= len(x.prefix.edges):
        rest = Path(base, x.prefix.edges[n:])
        if x.cycle is None:
            return BoundaryPoint(rest, None)
        return BoundaryPoint.periodic(g, rest, x.cycle)
    k = (n - len(x.prefix.edges)) % len(x.cycle)
    rotated = x.cycle[k:] + x.cycle[:k]
    return BoundaryPoint.periodic(g, Path(base), rotated)


def prepend_prefix(g: Graph, mu: Path, x: BoundaryPoint) -> BoundaryPoint:
    if path_range(g, mu) != x.source():
        raise MalformedGraph("prefix does not compose with the point")
    joined = Path(mu.base, mu.edges + x.prefix.edges)
    if x.cycle is None:
        return BoundaryPoint(joined, None)
    return BoundaryPoint.periodic(g, joined, x.cycle)


# -- text syntax -------------------------------------------------------------

def parse_path(g: Graph, text: str) -> Path:
    text = text.strip()
    if text.startswith("@"):
        return check_path(g, Path(text[1:]))
    edges = tuple(part.strip() for part in text.split("."))
    if not edges or any(not e for e in edges):
        raise ParseError(f"cannot parse path {text!r}")
    for e in edges:
        if not g.is_edge(e):
            raise ParseError(f"unknown edge {e!r} in path {text!r}")
    return check_path(g, Path(g.source(edges[0]), edges))


def parse_piece(g: Graph, text: str) -> Piece:
    text = text.strip()
    if not (text.startswith("Z(") and text.endswith(")")):
        raise ParseError(f"cannot parse piece {text!r}")
    body = text[2:-1]
    if "\\" in body:
        mu_text, punct_text = body.split("\\", 1)
        punctures = [p.strip() for p in punct_text.split(",") if p.strip()]
    else:
        mu_text, punctures = body, []
    try:
        return make_piece(g, parse_path(g, mu_text), punctures)
    except MalformedGraph as exc:
        raise ParseError(str(exc)) from exc


def parse_clopen(g: Graph, text: str) -> Clopen:
    text = text.strip()
    if text == "0":
        return Clopen.empty(g)
    pieces = [parse_piece(g, part) for part in text.split("+")]
    return Clopen.of(g, pieces)
