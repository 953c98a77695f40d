"""Seeded inputs and independent oracles for the benchmark workloads.

Everything here is the benchmark's own: the generators are rewritten
from the test helpers rather than imported, and the oracles check the
program's results without going through ``compose``:

* factorizations are checked pointwise with ``apply`` over an
  eventually-periodic point family built around the element's blocks;
* homology is cross-checked against a naive Smith reduction of a
  relation matrix the oracle builds itself;
* class zero-tests have known answers (a class-preserving mutation of a
  clopen has the same class, a nonempty clopen has a nonzero class);
* cancellation bisections are checked pointwise against both clopens.

Every input is a pure function of (workload, seed, op index), so a run
that does more ops sees a longer prefix of the same stream.
"""

from __future__ import annotations

import random

from ggt.fixtures import emitter_two_loops, infinite_rose, rose
from ggt.fullgroup import Block, Element, apply, transposition, validate_element
from ggt.graphs import Graph, family_member
from ggt.pathspace import (BoundaryPoint, Clopen, Path, Piece, intersect_pieces,
                           make_piece, path_range, piece_contains,
                           piece_is_empty, prepend_prefix, strip_prefix)


def op_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{i}")


# -- shared random generators -------------------------------------------------

def out_refs(g: Graph, v: str, members: int):
    refs = list(g.out_concrete(v))
    for f in g.out_families(v):
        refs.extend(family_member(f, k) for k in range(1, members + 1))
    return refs


def random_walk(g: Graph, rng, start: str, length: int, members=4):
    edges = []
    v = start
    for _ in range(length):
        refs = out_refs(g, v, members)
        if not refs:
            return None
        e = rng.choice(refs)
        edges.append(e)
        v = g.range(e)
    return Path(start, tuple(edges))


def random_clopen(g: Graph, rng, pieces=2, max_len=2) -> Clopen:
    acc = Clopen.empty(g)
    verts = sorted(g.vertices)
    for _ in range(pieces):
        p = random_walk(g, rng, rng.choice(verts), rng.randrange(0, max_len + 1))
        if p is not None:
            acc = acc.union(Clopen.cylinder(g, p))
    if rng.random() < 0.4 and not acc.is_empty():
        p = random_walk(g, rng, rng.choice(verts), rng.randrange(0, max_len + 1))
        if p is not None:
            acc = acc.subtract(Clopen.cylinder(g, p))
    return acc


def random_transposition(g: Graph, rng, lag: int, punctured: bool,
                         length=2) -> Element:
    """One-block transposition with random disjoint source and range.

    The range path has `length` edges and the source path `lag` fewer;
    a punctured transposition ends at an infinite emitter and leaves out
    one member of one of its families.
    """
    verts = sorted(g.vertices)
    for _ in range(400):
        nu = random_walk(g, rng, rng.choice(verts), length - lag)
        if nu is None:
            continue
        target = path_range(g, nu)
        if punctured and not g.is_infinite_emitter(target):
            continue
        mu = None
        for u in rng.sample(verts, len(verts)):
            cand = random_walk(g, rng, u, length)
            if cand is not None and path_range(g, cand) == target:
                mu = cand
                break
        if mu is None:
            continue
        punct = ()
        if punctured:
            fam = rng.choice(g.out_families(target))
            punct = (family_member(fam, rng.randrange(1, 5)),)
        block = Block(mu, punct, nu)
        src, dst = block.source_piece(), block.range_piece()
        if piece_is_empty(g, src) or intersect_pieces(g, src, dst) is not None:
            continue
        return transposition(g, [block])
    raise RuntimeError("could not sample a transposition")


# -- factor-mixed ---------------------------------------------------------------

FACTOR_GRAPHS = {"einf": infinite_rose(), "petal": emitter_two_loops()}

# One entry per op, cycled by op index: the graph and one spec per
# transposition, its lag with "p" when punctured. Each transposition sits
# in its own cylinder, disjoint from the others. Unconstrained products of
# random transpositions spread over four decades of cost per op, which no
# run of a few hundred ops summarizes steadily across seeds; fixing the
# parts, lags and punctures of an entry keeps its cost within about 10%,
# the seed still choosing every path and puncture. The entry counts put
# the median inside the "1p" entries and the 90th percentile inside the
# two-part entries, which follow compose scaling.
FACTOR_SCHEDULE = (
    ("einf", ("1",)), ("einf", ("1p",)), ("einf", ("1", "1p")),
    ("einf", ("0",)), ("einf", ("1",)), ("petal", ("1",)),
    ("einf", ("1p",)), ("petal", ("1p",)), ("einf", ("1",)),
    ("einf", ("1", "1p")),
)


def _corner_prefixes(g: Graph, slot: int):
    """Pairwise disjoint prefixes, one per vertex, for cylinder slot `slot`.

    Every prefix starts at the graph's loop-family emitter with a member
    reserved for this slot, so different slots and different vertices
    land in disjoint cylinders; all prefixes of a graph have one length,
    so embedding keeps each block's lag.
    """
    if g.name == "einf":
        return {"v": ("L#%d" % (slot + 1),)}
    return {"w": ("W#%d" % (3 * slot + 1), "W#1"),
            "x": ("W#%d" % (3 * slot + 2), "a"),
            "y": ("W#%d" % (3 * slot + 3), "b")}


def _embed(g: Graph, e: Element, slot: int) -> Element:
    pre = _corner_prefixes(g, slot)
    start = g.source(next(iter(pre.values()))[0])
    blocks = [Block(Path(start, pre[b.mu.base] + b.mu.edges), b.punctures,
                    Path(start, pre[b.nu.base] + b.nu.edges))
              for b in e.blocks]
    return validate_element(g, blocks)


def factor_input(seed: int, i: int):
    """(graph, ordered parts) of op i; the element is their product."""
    gname, specs = FACTOR_SCHEDULE[i % len(FACTOR_SCHEDULE)]
    g = FACTOR_GRAPHS[gname]
    rng = op_rng("factor-mixed", seed, i)
    parts = [_embed(g, random_transposition(g, rng, int(spec[0]), spec.endswith("p")),
                    slot)
             for slot, spec in enumerate(specs)]
    rng.shuffle(parts)
    return g, parts


# -- af-balanced ----------------------------------------------------------------

AF_GRAPH = rose(2)
# Refinement depth of op i, cycled every 100 ops: 96 tables of 32 blocks,
# three of 64 and one of 128, which keeps a pass of 100 ops to a few
# seconds. Within a depth the cost varies little from seed to seed.
AF_DEPTHS = tuple(7 if i == 50 else 6 if i % 33 == 16 else 5 for i in range(100))


def af_input(seed: int, i: int) -> Element:
    """A seeded permutation table of a depth-d refinement of rose(2)."""
    g = AF_GRAPH
    depth = AF_DEPTHS[i % len(AF_DEPTHS)]
    rng = op_rng("af-balanced", seed, i)
    pieces = sorted(Clopen.full(g).refine_to(depth).pieces, key=Piece.key)
    images = pieces[:]
    rng.shuffle(images)
    return validate_element(g, [Block(dst.mu, dst.punctures, src.mu)
                                for src, dst in zip(pieces, images)])


# -- classes-cold -----------------------------------------------------------------

def random_graph(rng, n: int) -> Graph:
    """Strongly connected graph on n vertices, about 20% carrying a family.

    A random Hamiltonian cycle makes it strongly connected with no sinks
    and no sources; extra edges and edge families vary the homology.
    """
    verts = [f"v{j}" for j in range(1, n + 1)]
    order = verts[:]
    rng.shuffle(order)
    edges = []
    for j, v in enumerate(order):
        edges.append((v, order[(j + 1) % n]))
    for v in verts:
        for _ in range(rng.randrange(0, 3)):
            edges.append((v, rng.choice(verts)))
    rng.shuffle(edges)
    named = [(f"e{j}", s, r) for j, (s, r) in enumerate(edges, start=1)]
    emitters = rng.sample(verts, max(1, round(0.2 * n)))
    families = [(f"F{len(named) + j}", v, rng.choice(verts))
                for j, v in enumerate(sorted(emitters), start=1)]
    return Graph(f"r{n}", verts, named, families)


def _fresh_edge_like(g: Graph, rng, e: str, used):
    """A fresh edge out of the same vertex with the same range as e."""
    v, w = g.source(e), g.range(e)
    cands = [x for x in g.out_concrete(v) if g.range(x) == w and x not in used]
    for f in g.out_families(v):
        if g.family_range(f) == w:
            cands.extend(family_member(f, k) for k in range(1, 8)
                         if family_member(f, k) not in used)
    return rng.choice(cands) if cands else None


def mutate_clopen(g: Graph, rng, clopen: Clopen, moves=3) -> Clopen:
    """Class-preserving split and translate moves.

    Translating a punctured piece swaps each puncture for a fresh edge
    with the same range vertex, which keeps the class (a puncture
    subtracts the atom of its range one level down).
    """
    pieces = list(clopen.pieces)
    verts = sorted(g.vertices)
    for _ in range(moves):
        if not pieces:
            break
        idx = rng.randrange(len(pieces))
        p = pieces[idx]
        v = path_range(g, p.mu)
        if rng.random() < 0.5:
            del pieces[idx]
            if g.is_regular(v):
                pieces.extend(Piece(p.mu.extend(e)) for e in g.out_concrete(v)
                              if e not in p.punctures)
            else:
                fam = rng.choice(g.out_families(v))
                k = 1 + rng.randrange(0, 3)
                while family_member(fam, k) in p.punctures:
                    k += 1
                e = family_member(fam, k)
                pieces.append(make_piece(g, p.mu, p.punctures + (e,)))
                pieces.append(Piece(p.mu.extend(e)))
            continue
        others = pieces[:idx] + pieces[idx + 1:]
        for _ in range(60):
            q = random_walk(g, rng, rng.choice(verts), len(p.mu))
            if q is None or path_range(g, q) != v:
                continue
            punct = []
            for e in p.punctures:
                fresh = _fresh_edge_like(g, rng, e, punct)
                if fresh is None:
                    break
                punct.append(fresh)
            if len(punct) != len(p.punctures):
                continue
            cand = make_piece(g, q, punct)
            if piece_is_empty(g, cand):
                continue
            if any(intersect_pieces(g, cand, o) is not None for o in others):
                continue
            pieces[idx] = cand
            break
    return Clopen(g, tuple(sorted(pieces, key=Piece.key)))


CLASSES_MIN_VERTICES = 10
CLASSES_VERTEX_SPAN = 51  # 10..60 vertices, visited in a scrambled order


def classes_input(seed: int, i: int):
    """(graph, a, b, c, d): b and d are mutations of a and c."""
    n = CLASSES_MIN_VERTICES + (i * 23) % CLASSES_VERTEX_SPAN
    rng = op_rng("classes-cold", seed, i)
    g = random_graph(rng, n)
    seeds = []
    while len(seeds) < 2:
        a = random_clopen(g, rng)
        if not a.is_empty():
            seeds.append(a)
    a, c = seeds
    return g, a, mutate_clopen(g, rng, a), c, mutate_clopen(g, rng, c)


# -- oracles ----------------------------------------------------------------------

def _tail_cycles(g: Graph):
    """For each vertex, one cycle through it (shortest by BFS)."""
    out = {}
    for v in sorted(g.vertices):
        prev = {v: None}
        frontier = [v]
        found = None
        while frontier and found is None:
            nxt = []
            for u in frontier:
                for e in out_refs(g, u, 1):
                    w = g.range(e)
                    if w == v:
                        found = (u, e)
                        break
                    if w not in prev:
                        prev[w] = (u, e)
                        nxt.append(w)
                if found:
                    break
            frontier = nxt
        if found is None:
            continue
        edges = [found[1]]
        u = found[0]
        while u != v:
            u, e = prev[u]
            edges.append(e)
        out[v] = tuple(reversed(edges))
    return out


def points_around(g: Graph, pieces, rng):
    """Eventually periodic points inside, beside and below the pieces."""
    cycles = _tail_cycles(g)
    pts = set()
    for p in pieces:
        for mu in (p.mu, Path(p.mu.base, p.mu.edges[:-1])):
            v = path_range(g, mu)
            if g.is_singular(v):
                pts.add(BoundaryPoint.at_singular(g, mu))
            refs = out_refs(g, v, 2)
            if mu == p.mu:
                refs += list(p.punctures)
            for f in g.out_families(v):
                refs.append(family_member(f, rng.randrange(3, 12)))
            for e in rng.sample(refs, min(3, len(refs))):
                q = mu.extend(e)
                w = path_range(g, q)
                if w in cycles:
                    pts.add(BoundaryPoint.periodic(g, q, cycles[w]))
                elif g.is_singular(w):
                    pts.add(BoundaryPoint.at_singular(g, q))
    return sorted(pts, key=str)


def factor_points(g: Graph, parts, rng):
    pieces = []
    for t in parts:
        for b in t.blocks:
            pieces.append(b.source_piece())
    for v in sorted(g.vertices):
        pieces.append(Piece(Path(v)))
    return points_around(g, pieces, rng)


def act(factors, x: BoundaryPoint) -> BoundaryPoint:
    """Ordered product applied pointwise: the first factor acts last."""
    for f in reversed(factors):
        x = apply(f, x)
    return x


def check_factorization(factors, expected, points) -> bool:
    """The factors' product acts as the map `expected` on every point, and
    every factor is an involution there."""
    for x in points:
        if act(factors, x) != expected(x):
            return False
    return all(apply(t, apply(t, x)) == x for t in factors for x in points)


def af_points(g: Graph, depth: int, rng, count=48):
    """Eventually periodic points of rose(2) past the table's depth."""
    cycles = [("a",), ("b",), ("a", "b"), ("b", "a", "a")]
    pts = set()
    while len(pts) < count:
        p = random_walk(g, rng, "v", depth + rng.randrange(0, 2))
        pts.add(BoundaryPoint.periodic(g, p, rng.choice(cycles)))
    return sorted(pts, key=str)


def naive_invariant_factors(rows):
    """Nonzero diagonal of a textbook Smith reduction, no transforms."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    diag = []
    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(pivot[2])):
                    pivot = (i, j, a[i][j])
        if pivot is None:
            break
        i, j, _ = pivot
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        for i in range(t + 1, m):
            while a[i][t] != 0:
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
        for j in range(t + 1, n):
            while a[t][j] != 0:
                q = a[t][j] // a[t][t]
                for row in a:
                    row[j] -= q * row[t]
                if a[t][j] != 0:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
        p = abs(a[t][t])
        bad = next((i for i in range(t + 1, m)
                    if any(a[i][j] % p for j in range(t + 1, n))), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        diag.append(p)
        t += 1
    return diag


def expected_homology(g: Graph):
    """(H0 torsion, H0 free rank, H1 rank) from the vertex presentation."""
    verts = sorted(g.vertices)
    idx = {v: k for k, v in enumerate(verts)}
    cols = []
    for v in verts:
        if g.is_regular(v):
            col = [0] * len(verts)
            col[idx[v]] += 1
            for e in g.out_concrete(v):
                col[idx[g.range(e)]] -= 1
            cols.append(col)
    rows = [[col[r] for col in cols] for r in range(len(verts))]
    diag = naive_invariant_factors(rows) if cols else []
    return (tuple(d for d in diag if d > 1), len(verts) - len(diag),
            len(cols) - len(diag))


def check_bisection_pointwise(g: Graph, blocks, a: Clopen, b: Clopen, rng) -> bool:
    """Lag zero; sources tile a and ranges tile b on a point family; each
    block carries its source points into b."""
    if any(len(x.mu) != len(x.nu) for x in blocks):
        return False
    pieces = list(a.pieces) + list(b.pieces)
    pieces += [x.source_piece() for x in blocks] + [x.range_piece() for x in blocks]
    for x in points_around(g, pieces, rng):
        srcs = [bl for bl in blocks if piece_contains(g, bl.source_piece(), x)]
        rngs = [bl for bl in blocks if piece_contains(g, bl.range_piece(), x)]
        if len(srcs) > 1 or len(rngs) > 1:
            return False
        if bool(srcs) != a.contains(x) or bool(rngs) != b.contains(x):
            return False
        if srcs:
            bl = srcs[0]
            y = prepend_prefix(g, bl.mu, strip_prefix(g, x, bl.nu))
            if not b.contains(y):
                return False
    return True
