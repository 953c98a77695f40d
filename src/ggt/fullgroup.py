"""Topological full group elements as finite bisection tables.

An element is a finite list of blocks (mu, F, nu) with a common range
vertex per block: the block maps the source cylinder Z(nu \\ F) onto the
range cylinder Z(mu \\ F) by exchanging the prefix nu for mu. Source
pieces are pairwise disjoint, range pieces are pairwise disjoint, and
both unions agree (the carrier); the element acts as the identity off
the carrier. Normalization drops blocks that act as the identity, which
makes the carrier coincide with the support, i.e. the closure of the
moved points. That identification is exact for effective graph
groupoids, where supports of full-group elements are clopen. It then
writes the blocks sharing a reduced prefix exchange as the canonical
pieces of their union, so over graphs without one-point pieces (all
graphs meeting the AH criteria) equal elements have equal tables.

Every piece of every table here is nonempty. ``make_block`` refuses an
empty source, a fully punctured regular cylinder; the complement walk
(``pathspace.complement_pieces``) emits no empty piece and normal forms
are canonical; and ``compose_bisections``, given nonempty pieces, emits
none. So the table checks filter nothing, and the pairing tests only the
one piece where two puncture sets meet. The two public entries that pair
a caller's raw ``Clopen``, ``image_of`` and ``factor.graded_cancellation``,
keep its empty pieces out of the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (CarrierMismatch, MalformedGraph, OverlappingSourceRange,
                     ParseError, RangesOverlap, SourcesOverlap,
                     VerificationFailed)
from .graphs import (Graph, edge_key, free_edges, require_ah_criteria,
                     two_disjoint_cycles)
from .pathspace import (BoundaryPoint, Clopen, Path, Piece, canonical_pieces,
                        canonicalize, check_path, check_punctures,
                        complement_pieces, find_overlap, intersect_pieces,
                        overlap_or_complement, overlap_or_union, parse_path,
                        path_range, path_trie, piece_contains,
                        piece_is_canonical, piece_is_empty, prepend_prefix,
                        singleton_point, strip_prefix)


class Block(NamedTuple):
    """One table entry: maps Z(nu \\ F) onto Z(mu \\ F) by prefix exchange.

    An immutable tuple like ``Path`` and ``Piece``: equality and hashing go
    by the fields, and tuple order is never used; tables sort by
    ``Block.key``."""

    mu: Path
    punctures: tuple
    nu: Path

    def source_piece(self) -> Piece:
        return Piece(self.nu, self.punctures)

    def range_piece(self) -> Piece:
        return Piece(self.mu, self.punctures)

    def lag(self) -> int:
        return len(self.mu.edges) - len(self.nu.edges)

    def inverse(self) -> "Block":
        return Block(self.nu, self.punctures, self.mu)

    def key(self):
        """The source piece's key. Every list sorted by it has pairwise
        disjoint, nonempty sources, so no two keys are equal."""
        return self.source_piece().key()

    def __str__(self):
        punct = ",".join(self.punctures) if self.punctures else "-"
        return f"block {self.mu} | {punct} | {self.nu}"


def make_block(g: Graph, mu: Path, punctures, nu: Path) -> Block:
    """The block after checking both paths, their common range vertex and
    the punctures there; each path is walked once."""
    check_path(g, mu)
    check_path(g, nu)
    v = path_range(g, nu)
    if path_range(g, mu) != v:
        raise MalformedGraph(
            f"block paths {mu} and {nu} end at different vertices")
    return Block(mu, check_punctures(g, v, punctures), nu)


@dataclass(frozen=True)
class Element:
    """Normalized full-group element over a fixed graph."""

    graph: Graph = field(repr=False)
    blocks: tuple = ()

    @classmethod
    def identity(cls, g: Graph) -> "Element":
        return cls(g, ())

    def is_identity(self) -> bool:
        return not self.blocks

    def max_depth(self) -> int:
        return max((max(len(b.mu.edges), len(b.nu.edges))
                     + (1 if b.punctures else 0)
                     for b in self.blocks), default=0)

    def __str__(self):
        return "\n".join(str(b) for b in self.blocks)


def _block_is_identity(g: Graph, b: Block) -> bool:
    """True when the block fixes every point of its source piece.

    This happens when both paths agree, or when the source piece is a
    single point left fixed by the prefix exchange. Without the singleton
    rule the support of an element would overstate its moved set.
    """
    if b.mu == b.nu:
        return True
    if len(b.mu.edges) == len(b.nu.edges):
        return False
    pt = singleton_point(g, b.source_piece())
    if pt is None:
        return False
    image = prepend_prefix(g, b.mu, strip_prefix(g, pt, b.nu))
    return image == pt


def _refuse_overlap(live, hit, error, side):
    """Raise error naming the two blocks of live that an overlap search
    hit on the given side; nothing when hit is None."""
    if hit is not None:
        raise error(f"blocks [{live[hit[0]]}] and [{live[hit[1]]}] "
                    f"have overlapping {side}")


def _check_table(g: Graph, blocks):
    """The blocks, after the disjointness and carrier axioms: two sources
    meeting raise SourcesOverlap, then ``_check_ranges`` runs."""
    src = [b.source_piece() for b in blocks]
    _refuse_overlap(blocks, find_overlap(g, src), SourcesOverlap, "sources")
    _check_ranges(g, blocks, src)
    return blocks


def _check_ranges(g: Graph, blocks, src):
    """The rest of the table axioms once the blocks' source pieces src
    are known to be disjoint: two ranges meeting raise RangesOverlap, and
    unions that differ raise CarrierMismatch.

    When the range list is the source list, the ranges search would
    repeat the sources search and the unions are equal, so nothing runs.
    When the two lists hold the same pieces the unions are equal and
    nothing is canonicalized; the sources are disjoint and nonempty,
    hence distinct, so comparing sets is exact.
    """
    rng = [b.range_piece() for b in blocks]
    if rng == src:
        return
    _refuse_overlap(blocks, find_overlap(g, rng), RangesOverlap, "ranges")
    if set(src) == set(rng):
        return
    src = canonicalize(g, src)
    rng = canonicalize(g, rng)
    if src != rng:
        raise CarrierMismatch(f"source union {Clopen(g, src)} differs "
                              f"from range union {Clopen(g, rng)}")


def _normalize_table(g: Graph, live) -> Element:
    """The normal form of a table of disjoint non-empty blocks.

    Identity blocks are dropped and the rest grouped by reduced prefix
    exchange: stripping the longest common edge suffix t of mu and nu
    leaves (mu0, nu0), the exchange applied to Z(t \\ F) at the range of
    nu0. Each group's tails become the canonical pieces of their union
    (``pathspace.canonical_pieces``), re-prefixed to (mu0.t', F', nu0.t'),
    and all are sorted. No rewritten block fixes its source: a merge only
    joins moved pieces, and a split child fixed pointwise would need its
    branching parent vertex on an exitless cycle.

    A group of one tail that ``pathspace.piece_is_canonical`` accepts is
    already canonical, so it keeps its input block and builds no trie;
    any other group is walked. This is exact: the predicate holds
    iff ``canonical_pieces`` returns that tail alone, field for field.
    That includes the puncture order: the walk writes punctures sorted by
    ``edge_key``, and the predicate compares the tail's punctures with
    that sort itself instead of trusting each caller to have sorted them.

    Theorem: without one-point pieces (so over every graph meeting the AH
    criteria: no sinks and Condition (L)) equal action implies equal
    normal form. Proof: if blocks (mu, nu) and (mu', nu.s) agree near x,
    then mu.s.z = mu'.z for an open set of tails z. If |mu.s| = |mu'| both
    reduce to one exchange; else one side is the other followed by some
    nonempty q, so z = q.z, i.e. z = qqq..., for every z there: an
    isolated point. Hence each group's source set is the set of points
    where the element acts by that exchange, and ``canonicalize`` is
    unique per set. With one-point pieces forms may differ (see acts_as).
    """
    groups = {}   # (mu0, nu0) -> {tail piece: input block}
    for b in live:
        if _block_is_identity(g, b):
            continue
        mu_edges, nu_edges = b.mu.edges, b.nu.edges
        m, k = len(mu_edges), len(nu_edges)
        n = 0
        while n < m and n < k and mu_edges[-1 - n] == nu_edges[-1 - n]:
            n += 1
        mu0 = Path(b.mu.base, mu_edges[:m - n])
        nu0 = Path(b.nu.base, nu_edges[:k - n])
        tail = Piece(Path(path_range(g, nu0), nu_edges[k - n:]), b.punctures)
        groups.setdefault((mu0, nu0), {})[tail] = b
    kept = []
    for (mu0, nu0), tails in groups.items():
        pieces = (tails if len(tails) == 1 and piece_is_canonical(g, *tails)
                  else canonical_pieces(g, tails))
        for p in pieces:
            b = tails.get(p)
            if b is None:
                b = Block(Path(mu0.base, mu0.edges + p.mu.edges), p.punctures,
                          Path(nu0.base, nu0.edges + p.mu.edges))
            kept.append(b)
    return Element(g, tuple(sorted(kept, key=Block.key)))


def validate_element(g: Graph, blocks) -> Element:
    """Check the table axioms and return the normalized element.

    Each block goes through ``make_block`` first, which raises
    MalformedGraph for a bad path, mismatched range vertices or a bad
    puncture, an empty source included. The table checks then raise
    SourcesOverlap / RangesOverlap / CarrierMismatch naming the
    offending blocks. Normalization (``_normalize_table``) drops identity
    blocks, rewrites the blocks of each reduced prefix exchange to the
    canonical pieces of their union and sorts canonically; without
    one-point pieces the result is unique.
    """
    checked = [make_block(g, b.mu, b.punctures, b.nu) for b in blocks]
    return _normalize_table(g, _check_table(g, checked))


def apply(e: Element, x: BoundaryPoint) -> BoundaryPoint:
    """Image of the boundary point under the element."""
    for b in e.blocks:
        if piece_contains(e.graph, b.source_piece(), x):
            return prepend_prefix(e.graph, b.mu, strip_prefix(e.graph, x, b.nu))
    return x


def inverse(e: Element) -> Element:
    return Element(e.graph, tuple(sorted((b.inverse() for b in e.blocks),
                                         key=Block.key)))


def _totalize(e: Element):
    """Table blocks plus identity blocks covering the carrier complement.

    The complement is one walk over the trie of the raw source pieces
    (``complement_pieces``), neither merged nor canonicalized: a fold
    needs only some partition of the identity region. Splitting a block
    along another partition only appends a common suffix to both of its
    paths, which keeps its reduced prefix exchange, so the normal form of
    every product (``_normalize_table``) is the same for any partition.
    """
    return list(e.blocks) + identity_blocks(complement_pieces(
        e.graph, [b.source_piece() for b in e.blocks]))


def identity_blocks(pieces):
    """Blocks fixing each of the given pieces pointwise."""
    return [Block(p.mu, p.punctures, p.mu) for p in pieces]


def compose_bisections(g: Graph, outer, inner):
    """Blocks of the partial bisection acting as outer after inner.

    This is the one place where a block is restricted to a sub-piece and
    re-prefixed. An inner block's range piece and an outer block's source
    piece meet in at most one piece; restricting the inner block to it
    and fusing with the outer prefix exchange yields one block of the
    product. Two pieces meet only when one path is a prefix of the other
    and no puncture of the shorter one is the longer path's next edge.
    So the outer source paths go into one trie (``pathspace.path_trie``),
    and each inner range path walks down it. At each strict prefix the
    walk takes the outer sources ending there whose punctures miss the
    path's next edge; an unpunctured one always does. At the end node it
    takes every outer source ending there, and below it every outer
    source in the child subtrees whose edge is not an inner puncture,
    walked on an explicit stack.

    The walk already knows how the two paths relate, so each pair fuses
    without a further intersection: over a shorter outer path the piece
    is the inner range piece, over the same path it carries both
    puncture sets, and over a longer one it is the outer source piece.
    Both lists hold nonempty pieces only (the module's table invariant),
    so the first and the last kind are nonempty, and only a same-path
    piece with punctures is tested: the two puncture sets together may
    cover a regular vertex's out-edges, and then it yields no block. The
    output thus holds nonempty pieces only as well. Blocks
    come out in inner order and, within one inner block, in outer order;
    they are not sorted. No prefix is copied or hashed: the cost is the
    total length of the paths of both lists plus the subtrees walked and
    the blocks made. The subtrees below two disjoint inner range pieces
    are disjoint, so for a bisection the subtree walks together visit
    each trie node at most once.
    """
    roots, _ = path_trie(bo.nu for bo in outer)
    out = []
    for bi in inner:
        node = roots.get(bi.mu.base)
        if node is None:
            continue
        edges = bi.mu.edges
        punctures = bi.punctures
        hits = []
        for e in edges:
            for i in node.at:
                if e not in outer[i].punctures:
                    hits.append(i)
            node = node.children.get(e)
            if node is None:
                break
        else:
            hits += node.at
            below = [sub for e, sub in node.children.items()
                     if e not in punctures]
            while below:
                node = below.pop()
                hits += node.at
                below.extend(node.children.values())
        if not hits:
            continue
        hits.sort()
        n = len(edges)
        for i in hits:
            bo = outer[i]
            m = len(bo.nu.edges)
            if m < n:
                # the outer source lies above: the piece is the inner range
                out.append(Block(Path(bo.mu.base, bo.mu.edges + edges[m:]),
                                 punctures, bi.nu))
            elif m == n:
                merged = (tuple(sorted(set(punctures) | set(bo.punctures),
                                       key=edge_key))
                          if punctures or bo.punctures else ())
                if not (merged and piece_is_empty(g, Piece(bi.mu, merged))):
                    out.append(Block(bo.mu, merged, bi.nu))
            else:
                # the outer source lies below: the piece is that source
                out.append(Block(bo.mu, bo.punctures,
                                 Path(bi.nu.base, bi.nu.edges + bo.nu.edges[n:])))
    return out


def _fold(g: Graph, factors):
    """The total table of the ordered product, last factor first.

    The running table starts as the last factor's total table; each step
    is ``compose_bisections`` of the next factor's total table after it,
    and no partial product is checked or normalized. Each distinct
    factor, the last one included, is totalized once per fold.
    """
    totals = {}
    table = None
    for f in reversed(factors):
        if f.graph != g:
            raise MalformedGraph("operands live over different graphs")
        outer = totals.get(id(f))
        if outer is None:
            outer = totals[id(f)] = _totalize(f)
        table = outer if table is None else compose_bisections(g, outer, table)
    return table


def compose(f: Element, g_elt: Element) -> Element:
    """The element acting as x -> f(g(x)): the two-factor fold
    ``compose_all([f, g_elt])``."""
    return compose_all([f, g_elt])


def compose_all(factors) -> Element:
    """Ordered product: the first factor is applied last.

    One fold of total tables (identity blocks over each carrier
    complement), last factor first, with ``compose_bisections``, which
    partitions the product of two total tables exactly; so the folded
    blocks form the product's table. Nothing in between is checked or
    normalized: the table is checked and normalized once at the end.

    Depth guard. A total table's paths are no longer than its element's
    ``max_depth``: an identity block over the carrier complement
    (``complement_pieces`` of the raw source pieces) reaches at most one
    edge below a source path, and only through a puncture, which
    ``max_depth`` counts. A fused block's range path is the
    outer block's range path followed by the part of the inner range
    path beyond the outer source path, and its source path is the inner
    source path followed by the part of the outer source path beyond the
    inner range path; so each step lengthens a path by at most the outer
    factor's depth, and the folded paths stay within the sum of the
    factors' depths. The guard allows one edge more per step, the bound
    sum(max_depth) + (n - 1), which is f + g + 1 for two factors; a block
    beyond it raises VerificationFailed.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("compose_all needs at least one element")
    g = factors[-1].graph
    table = _fold(g, factors)
    bound = sum(f.max_depth() for f in factors) + len(factors) - 1
    deep = next((b for b in table
                 if max(len(b.mu.edges), len(b.nu.edges)) > bound), None)
    if deep is not None:
        raise VerificationFailed(
            f"composed block [{deep}] is deeper than the bound {bound}")
    # fused paths are concatenations of already validated paths, so the
    # per-block path walk of validate_element is skipped here
    return _normalize_table(g, _check_table(g, table))


def acts_as(factors, e: Element) -> bool:
    """True when the ordered product of the factors equals e pointwise.

    One fold over total tables, never normalized: e^{-1}'s total table is
    pushed through the factors, last factor first, by the fold of
    ``compose_all``. The product f_1 ... f_n e^{-1} is the identity iff
    the factors multiply to e. The final table is checked once: the table
    axioms, totality (its sources cover the whole space), and every block
    fixing its source pointwise. A prefix exchange with mu != nu fixes at
    most one point, which ``_block_is_identity``'s singleton rule decides,
    so no normal form is needed. The sources are total iff they leave no
    complement piece (``complement_pieces`` emits no empty one).

    One trie over the sources serves their overlap search and the
    complement walk (``overlap_or_complement``); the walk raises nothing,
    so the refusals keep ``_check_table``'s order: SourcesOverlap, then
    ``_check_ranges``, and only then the answer. Without one-point pieces
    every block of a passing certificate is (mu, F, mu), so the range list
    is the source list, ``_check_ranges`` searches nothing and the final
    table builds one trie; a block (mu, F, nu) fixing its one point costs
    the ranges search and the carrier check.
    """
    g = e.graph
    table = _fold(g, list(factors) + [inverse(e)])
    src = [b.source_piece() for b in table]
    hit, rest = overlap_or_complement(g, src)
    _refuse_overlap(table, hit, SourcesOverlap, "sources")
    _check_ranges(g, table, src)
    if rest:
        return False
    return all(_block_is_identity(g, b) for b in table)


def is_involution(t: Element) -> bool:
    """True when t squares to the identity.

    A table equal to its inverse's table is an involution; this check
    costs one sort. Over graphs without one-point pieces normal forms are
    unique (``_normalize_table``), so differing tables mean t is not an
    involution; only graphs with one-point pieces need the fold
    ``acts_as([t, t], identity)``, which decides every case.
    """
    if inverse(t).blocks == t.blocks:
        return True
    return acts_as([t, t], Element.identity(t.graph))


def support(e: Element) -> Clopen:
    """Union of the source pieces of the (normalized) non-identity blocks."""
    return bisection_source(e.graph, e.blocks)


def image_of(e: Element, a: Clopen) -> Clopen:
    """Exact image e(a): e's total table paired by ``compose_bisections``
    with the identity blocks of a's nonempty pieces. a may be any
    ``Clopen``, not canonical, so its empty pieces are dropped here."""
    if a.graph != e.graph:
        raise MalformedGraph("operands live over different graphs")
    g = e.graph
    inner = identity_blocks(p for p in a.pieces if not piece_is_empty(g, p))
    return bisection_range(g, compose_bisections(g, _totalize(e), inner))


@dataclass(frozen=True)
class GradedPartition:
    """Clopen partition of the unit space by lag; finitely many parts."""

    ambient: Clopen
    levels: tuple  # ordered (k, Clopen) pairs, nonempty parts only

    def part(self, k: int) -> Clopen:
        for kk, c in self.levels:
            if kk == k:
                return c
        return Clopen.empty(self.ambient.graph)

    def keys(self):
        return [k for k, _ in self.levels]


def lag_parts(e: Element):
    """The set moved with lag k, for each lag k of the normalized table:
    {k: canonical union of the source pieces of the lag-k blocks}, in
    ascending k. Every part is nonempty."""
    g = e.graph
    buckets = {}
    for b in e.blocks:
        buckets.setdefault(b.lag(), []).append(b.source_piece())
    return {k: Clopen(g, canonicalize(g, buckets[k])) for k in sorted(buckets)}


def graded_partition(e: Element) -> GradedPartition:
    """S(k) is the set moved with lag k (``lag_parts``) for k != 0, and
    S(0) is the rest: one complement walk over the source pieces of the
    nonzero-lag blocks, which leaves the lag-0 sources and the fixed
    region off the carrier. Empty parts are left out."""
    g = e.graph
    parts = {k: c for k, c in lag_parts(e).items() if k}
    parts[0] = Clopen.complement_of(
        g, [b.source_piece() for b in e.blocks if b.lag()])
    levels = tuple((k, parts[k]) for k in sorted(parts) if not parts[k].is_empty())
    return GradedPartition(Clopen.full(g), levels)


def check_bisection_unions(g: Graph, blocks):
    """(the blocks, the canonical pieces of their source union, those of
    their range union), the pieces in walk order.

    Every block goes through ``make_block``; then the sources must be
    pairwise disjoint, else SourcesOverlap, and so must the ranges, else
    RangesOverlap. Each side builds one path trie, which both finds an
    overlap and, when there is none, is walked to the side's union
    (``overlap_or_union``). The sources' union is walked before the
    ranges are searched; a walk raises nothing, so the order holds.
    ``transposition`` names its refusals with this function too.
    """
    blocks = [make_block(g, b.mu, b.punctures, b.nu) for b in blocks]
    hit, src = overlap_or_union(g, [b.source_piece() for b in blocks])
    _refuse_overlap(blocks, hit, SourcesOverlap, "sources")
    hit, rng = overlap_or_union(g, [b.range_piece() for b in blocks])
    _refuse_overlap(blocks, hit, RangesOverlap, "ranges")
    return blocks, src, rng


def bisection_source(g: Graph, blocks) -> Clopen:
    return Clopen(g, canonicalize(g, [b.source_piece() for b in blocks]))


def bisection_range(g: Graph, blocks) -> Clopen:
    return Clopen(g, canonicalize(g, [b.range_piece() for b in blocks]))


def transposition(g: Graph, blocks) -> Element:
    """Involution swapping the source and range of a compact bisection.

    The bisection's total source and range must be disjoint; the result
    is the table blocks + inverse blocks, identity elsewhere, and squares
    to the identity. Every block goes through ``make_block``. One overlap
    search over sources + ranges then checks all three of the table's
    disjointness axioms at once, and its source and range unions are both
    source + range, so the table is not checked again. When the search
    hits, the refusal is the one of the checks in turn:
    ``check_bisection_unions`` (two sources, then two ranges), then the
    pair the search found, which is then a source and a range.
    """
    blocks = [make_block(g, b.mu, b.punctures, b.nu) for b in blocks]
    hit = find_overlap(g, [b.source_piece() for b in blocks]
                       + [b.range_piece() for b in blocks])
    if hit is not None:
        check_bisection_unions(g, blocks)
        i, j = sorted(hit)
        raise OverlappingSourceRange(f"source of block [{blocks[i]}] meets range "
                                     f"of block [{blocks[j - len(blocks)]}]")
    return _normalize_table(g, blocks + [b.inverse() for b in blocks])


def doubling_bisections(g: Graph, a: Clopen):
    """Two bisections with source a and disjoint ranges inside a.

    Requires the AH criteria. Each piece of a is routed into the unique
    nontrivial strongly connected component and extended by two disjoint
    cycles; the cycles avoid the piece's punctures at their first edge so
    both ranges stay inside the piece.
    """
    if a.graph != g:
        raise MalformedGraph("clopen lives over a different graph")
    require_ah_criteria(g)
    if a.is_empty():
        raise MalformedGraph("doubling needs a nonempty clopen")
    scc = g.nontrivial_scc()
    pieces = []
    stack = list(a.pieces)
    while stack:
        p = stack.pop()
        v = path_range(g, p.mu)
        if v in scc:
            pieces.append(p)
            continue
        # vertices outside the component are regular under the AH criteria
        for e in g.out_concrete(v):
            if e not in p.punctures:
                stack.append(Piece(p.mu.extend(e)))
    pieces.sort(key=Piece.key)
    w1, w2 = [], []
    for p in pieces:
        v = path_range(g, p.mu)
        c1, c2 = two_disjoint_cycles(g, v, avoid_first=p.punctures)
        w1.append(Block(p.mu.extend(*c1), p.punctures, p.mu))
        w2.append(Block(p.mu.extend(*c2), p.punctures, p.mu))
    return w1, w2


def shrink_support(e: Element):
    """A transposition tau agreeing with e on some clopen Z with
    e(Z) disjoint from Z, and the remainder tau . e fixing Z.

    Returns (tau, e2) with e == tau . e2 and support(e2) a proper subset
    of the whole space. The caller guarantees e is not the identity.
    """
    g = e.graph
    if e.is_identity():
        raise MalformedGraph("shrink_support needs a non-identity element")
    b = e.blocks[0]
    src, rng = b.source_piece(), b.range_piece()
    if intersect_pieces(g, src, rng) is None:
        tau = transposition(g, [b])
        return tau, compose(tau, e)
    # comparable paths: walk the forced ray below the longer path and
    # branch off it; the branch cylinder and its image are then disjoint
    if len(b.mu) > len(b.nu):
        lam = b.mu.edges[len(b.nu):]
    else:
        lam = b.nu.edges[len(b.mu):]
    banned = set(b.punctures)
    walked = []
    v = path_range(g, b.nu)
    for i in range(len(g.vertices) + len(lam) + 2):
        ray_edge = lam[i % len(lam)]
        options = free_edges(g, v, banned | {ray_edge})
        banned = set()
        if options:
            d = options[0]
            sub = Path(b.nu.base, b.nu.edges + tuple(walked) + (d,))
            img = Path(b.mu.base, b.mu.edges + tuple(walked) + (d,))
            tau = transposition(g, [Block(img, (), sub)])
            return tau, compose(tau, e)
        walked.append(ray_edge)
        v = g.range(ray_edge)
    raise MalformedGraph("block acts on a single point; table not normalized")


# -- element file format -----------------------------------------------------

def parse_element_text(g: Graph, text: str):
    """Parse an element file; returns (name, element)."""
    name = None
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # no inline comments here: '#' appears inside family member names
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "element":
            if len(parts) != 4 or parts[2] != "over":
                raise ParseError(f"line {lineno}: bad element header")
            name = parts[1]
            if parts[3] != g.name:
                raise ParseError(
                    f"line {lineno}: element is over {parts[3]!r}, "
                    f"graph loaded is {g.name!r}")
        elif parts[0] == "block":
            body = line[len("block"):]
            cols = [c.strip() for c in body.split("|")]
            if len(cols) != 3:
                raise ParseError(f"line {lineno}: block needs 'mu | F | nu'")
            mu = parse_path(g, cols[0])
            punct = [] if cols[1] == "-" else [p.strip()
                                               for p in cols[1].split(",") if p.strip()]
            nu = parse_path(g, cols[2])
            blocks.append(make_block(g, mu, punct, nu))
        else:
            raise ParseError(f"line {lineno}: cannot parse {raw!r}")
    if name is None:
        raise ParseError("missing 'element <name> over <graph>' header")
    # every block was checked by make_block as its line was read
    return name, _normalize_table(g, _check_table(g, blocks))


def print_element(name: str, e: Element) -> str:
    lines = [f"element {name} over {e.graph.name}"]
    lines.extend(str(b) for b in e.blocks)
    return "\n".join(lines) + "\n"
