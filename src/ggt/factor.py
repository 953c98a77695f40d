"""Constructive factorization of index-kernel elements into transpositions.

The pipeline mirrors the structure of the underlying existence proofs
but produces explicit bisection tables: equal homology classes of
compact opens are witnessed by bisections matched inside the AF kernel
of the cocycle, at a depth read off the zero test; a level shift of the
class is witnessed by a bisection of constant lag; an element whose
table is length-balanced is a permutation of a stable clopen partition
and the product of two involutions, each one multi-block transposition
through canonical arrows; and a general element with vanishing index is
conjugated off its support by an explicit transposition built from
mutually disjoint paths through a distinguished infinite emitter, after
which the balanced case applies. ``certify`` checks every public
factorization once: each factor must be an involution, and one exact
fold pushes the inverse of the input through the factors over total
tables, normalizing no partial product, and checks the final table once
(``fullgroup.acts_as``). A failed certification raises
VerificationFailed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (HypothesesFailed, IndexNonzero, MalformedGraph,
                     NotEquivalent, ParseError, VerificationFailed)
from .fullgroup import (Block, Element, acts_as, bisection_range,
                        bisection_source, check_bisection, compose_all,
                        compose_bisections, identity_blocks, is_involution,
                        lag_parts, parse_element_text,
                        print_element, shrink_support, support,
                        transposition)
from .graphs import (Graph, edge_key, family_member, find_path, free_edges,
                     require_factor_hypotheses, split_member)
from .homology import class_of, classes_equal, index, shift, vanishing_level
from .pathspace import (Clopen, Path, Piece, canonicalize, find_overlap,
                        path_range)


# -- cancellation bisections -------------------------------------------------

def _pool_insert(pools, g, piece, depth):
    """File a piece under (length, range vertex), splitting regular
    ranges down to the working depth first."""
    for p in Clopen(g, (piece,)).refine_to(depth).pieces:
        pools.setdefault((len(p.mu), path_range(g, p.mu)), []).append(p)


def _match_at_depth(g: Graph, a: Clopen, b: Clopen, depth: int):
    """Signature matching at one working depth: (blocks, residue), where
    residue counts the pieces left unmatched; the blocks are a bisection
    from a onto b only when it is 0.

    Pieces are grouped by (length, range vertex). Two paired pieces with
    different puncture sets are split to the common superset: the middle
    parts admit a canonical arrow and the released plain sub-cylinders
    re-enter the pools one level deeper.
    """
    pools_a, pools_b = {}, {}
    for p in a.pieces:
        _pool_insert(pools_a, g, p, depth)
    for p in b.pieces:
        _pool_insert(pools_b, g, p, depth)
    blocks = []
    residue = 0
    while pools_a or pools_b:
        # releases go to longer keys (point (3) of find_bisection's
        # proof), so the least key is complete when it is popped
        key = min(pools_a.keys() | pools_b.keys())
        la = sorted(pools_a.pop(key, []), key=lambda p: (len(p.punctures), p.key()))
        lb = sorted(pools_b.pop(key, []), key=lambda p: (len(p.punctures), p.key()))
        for p, q in zip(la, lb):
            punct = tuple(sorted(set(p.punctures) | set(q.punctures), key=edge_key))
            for f in punct:
                if f not in p.punctures:
                    _pool_insert(pools_a, g, Piece(p.mu.extend(f)), depth)
                if f not in q.punctures:
                    _pool_insert(pools_b, g, Piece(q.mu.extend(f)), depth)
            blocks.append(Block(q.mu, punct, p.mu))
        residue += abs(len(la) - len(lb))
    return blocks, residue


def _check_matched(g: Graph, blocks, a: Clopen, b: Clopen, lag: int):
    """The checked blocks of a lag-``lag`` bisection from a onto b.

    A failed check raises VerificationFailed naming it, also under
    ``python -O``.
    """
    blocks = check_bisection(g, blocks)
    bad = next((x for x in blocks if x.lag() != lag), None)
    if bad is not None:
        raise VerificationFailed(
            f"lag check failed: block [{bad}] has lag {bad.lag()}, not {lag}")
    if not bisection_source(g, blocks).equal(a):
        raise VerificationFailed(f"source check failed: source is not {a}")
    if not bisection_range(g, blocks).equal(b):
        raise VerificationFailed(f"range check failed: range is not {b}")
    return blocks


def find_bisection(a: Clopen, b: Clopen):
    """Blocks of a lag-zero bisection with source a and range b.

    Requires equal classes in the kernel grading, else NotEquivalent.
    The matcher runs once, at depth D = max(start, L), where start =
    max(a.depth(), b.depth(), 1) and L = ``vanishing_level`` of
    c = class(a) - class(b).

    Theorem: for D >= start, ``_match_at_depth`` leaves no residue iff
    the rewrite of c to level D is empty, that is iff D >= L; so
    max(start, L) is the least working depth >= start that matches.

    (1) Every pooled piece lies at a level <= D, and regular pieces lie
    exactly at D: the input pieces have depth <= start <= D, so a
    punctured one has length < D, and regular ranges are refined to D.
    Only a key holding a punctured piece releases, and a released piece
    is plain and goes to length + 1 <= D. (2) A paired p and q leave two
    middle parts of equal class plus released pieces whose atoms are
    exactly the punctures the other side has, so the signed atom sum of
    the pools changes only by the forward rewrites of refinement, which
    fix its rewrite to level D: that stays the rewrite of c. (3) Keys are
    visited in ascending (length, vertex) order and releases go to longer
    keys, so a key is complete when it is visited, and the count
    difference there is what stays unmatched, all on one side. With no
    residue the pools end empty, so c rewrites to nothing. Otherwise take
    the least key (n, v) left unmatched. If v is singular and n < D,
    the coefficient of (v, n) in the level-D rewrite of the leftovers is
    that count difference: rewriting adds only higher atoms, and an atom
    at level n from a puncture, or rewritten from below, comes from a
    smaller key. If n = D, which every regular key has, no leftover is
    punctured or shorter, so at level D what remains is the level-D
    vector, whose coordinate v is again that difference. Either way the
    rewrite of c is not empty.

    A residue at the derived depth is thus a broken invariant and raises
    VerificationFailed naming the depth, the level and the residue.
    """
    g = a.graph
    level = vanishing_level(class_of(a).sub(class_of(b)))
    if level is None:
        raise NotEquivalent(f"classes of {a} and {b} differ")
    if a.is_empty():
        return []
    depth = max(a.depth(), b.depth(), 1, level)
    blocks, residue = _match_at_depth(g, a, b, depth)
    if residue:
        raise VerificationFailed(
            f"matching {a} onto {b} at depth {depth} (vanishing level "
            f"{level}) left residue={residue} pieces")
    return sorted(_check_matched(g, blocks, a, b, 0), key=Block.key)


def _least_path_into(g: Graph, dst: str, length: int):
    best = None
    for u in sorted(g.vertices):
        p = find_path(g, u, dst, length=length)
        if p is not None:
            key = tuple(edge_key(e) for e in p)
            if best is None or key < best[0]:
                best = (key, p)
    if best is None:
        raise MalformedGraph(f"no path of length {length} into {dst}")
    return best[1]


def graded_cancellation(a: Clopen, b: Clopen, n: int):
    """Blocks of a lag-n bisection with source a and range b.

    Requires phi^n of the class of a to equal the class of b. Length-n
    paths are prepended to a's pieces, giving a set with the class of b,
    and the lag-zero matcher closes the gap.
    """
    if n <= 0:
        raise MalformedGraph("graded cancellation needs a positive lag")
    g = a.graph
    if not classes_equal(shift(class_of(a), n), class_of(b)):
        raise NotEquivalent(f"phi^{n} of the class of {a} is not the class of {b}")
    lift = []
    for p in a.pieces:
        gamma = _least_path_into(g, p.mu.base, n)
        lift.append(Block(Path(g.source(gamma[0]), gamma + p.mu.edges),
                          p.punctures, p.mu))
    lifted = Clopen(g, tuple(sorted((b_.range_piece() for b_ in lift),
                                    key=Piece.key)))
    closing = find_bisection(lifted, b)
    blocks = sorted(compose_bisections(g, closing, lift), key=Block.key)
    return _check_matched(g, blocks, a, b, n)


# -- disjoint path families --------------------------------------------------

@dataclass(frozen=True)
class PathFamilies:
    """Mutually disjoint routing paths through a distinguished emitter.

    ``paths[(k, i, j)]`` routes the i-th piece of level k and has length
    n_length + j. For j = 0 its cylinder avoids the support region;
    otherwise j runs over min(k, 0)..max(k, 0) and its cylinder lies
    inside the region.
    """

    n_length: int
    paths: dict         # (k, i, j) -> Path


def _plain_cylinder_inside(g: Graph, region: Clopen) -> Path:
    """Least plain cylinder contained in a nonempty region: the least
    piece, extended by a concrete edge before any family member when it
    is punctured."""
    piece = min(region.pieces, key=Piece.key)
    if not piece.punctures:
        return piece.mu
    free = free_edges(g, path_range(g, piece.mu), piece.punctures)
    if not free:
        raise MalformedGraph("region piece admits no extension")
    return piece.mu.extend(min(free, key=lambda e: split_member(e) is not None))


def construct_disjoint_paths(g: Graph, ambient: Clopen, region: Clopen,
                             targets) -> PathFamilies:
    """Build the routing table used by the factorization.

    ``targets`` maps (k, i) to the required end vertex of the i-th piece
    of level k; the levels and the buffer are read off its keys. Every
    path runs through the distinguished emitter w, the one
    ``graphs.validate`` records as ``CriteriaReport.emitter``: a prefix
    (mu outside the region for j = 0, mu_p inside it otherwise, both of
    one length) fixes the side, k_buf + 1 + j copies of a loop edge of
    its own per (k, i) separate the paths, and a connector edge from w
    that is not a loop edge reaches the target vertex. k_buf is the
    largest |k| over the negative levels, so every path takes at least
    one loop edge.
    """
    w, loop_fam = require_factor_hypotheses(g).emitter
    if region.is_empty() or not region.subtract(ambient).is_empty():
        raise HypothesesFailed("region must be a nonempty subset of the ambient")
    outside = ambient.subtract(region)
    if outside.is_empty():
        raise HypothesesFailed("region must be a proper subset of the ambient")

    mu = _plain_cylinder_inside(g, outside)
    mu = Path(mu.base, mu.edges + find_path(g, path_range(g, mu), w))
    mu_p = _plain_cylinder_inside(g, region)
    mu_p = Path(mu_p.base, mu_p.edges + find_path(g, path_range(g, mu_p), w))
    pad = family_member(loop_fam, 1)
    while len(mu) < len(mu_p):
        mu = mu.extend(pad)
    while len(mu_p) < len(mu):
        mu_p = mu_p.extend(pad)

    keys = sorted(targets)
    k_buf = max([0] + [-k for k, _ in keys])
    loops = {key: family_member(loop_fam, n) for n, key in enumerate(keys, start=1)}
    allocated = set(loops.values())
    paths = {}
    for k, i in keys:
        f = next((e for e in free_edges(g, w, allocated)
                  if g.range(e) == targets[(k, i)]), None)
        if f is None:
            raise HypothesesFailed(f"no connector edge from {w} to {targets[(k, i)]}")
        for j in range(min(k, 0), max(k, 0) + 1):
            prefix = mu if j == 0 else mu_p
            paths[(k, i, j)] = Path(prefix.base, prefix.edges
                                    + (loops[(k, i)],) * (k_buf + 1 + j) + (f,))

    fam = PathFamilies(len(mu) + k_buf + 2, paths)
    _check_path_families(g, fam, ambient, region, targets)
    return fam


def _check_path_families(g, fam: PathFamilies, ambient, region, targets):
    """VerificationFailed naming two paths that are not disjoint, or else
    the first path that breaks the table's length, end vertex or
    containment, also under -O.

    All paths are pairwise disjoint: the prefixes mu and mu_p have one
    length and disjoint cylinders, two keys (k, i) differ in the loop edge
    that follows, and within one key the shorter loop run ends in the
    connector, which is no loop edge. One overlap search over the paths
    as plain pieces checks it."""
    outside = ambient.subtract(region)
    routed = sorted(fam.paths.items())
    hit = find_overlap(g, [Piece(p) for _, p in routed])
    if hit is not None:
        raise VerificationFailed(f"paths not disjoint: {routed[hit[0]][1]} "
                                 f"and {routed[hit[1]][1]}")
    for (k, i, j), p in routed:
        if len(p) != fam.n_length + j:
            raise VerificationFailed(f"wrong path length: {(k, i, j)} -> {p}")
        if path_range(g, p) != targets[(k, i)]:
            raise VerificationFailed(f"wrong end vertex: {(k, i, j)} -> {p}")
        container = outside if j == 0 else region
        if not Clopen.cylinder(g, p).subtract(container).is_empty():
            raise VerificationFailed(
                f"cylinder escapes its container: {(k, i, j)} -> {p}")


# -- AF factorization --------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    transpositions: tuple
    certified: bool = field(default=False)


def verify_product(e: Element, factors) -> bool:
    """Exact check that the ordered factors multiply to e.

    The first factor is applied last. e^{-1} is folded through the factors
    by ``fullgroup.acts_as`` and the final table is checked once; no
    partial product is normalized.
    """
    return acts_as(factors, e)


def certify(e: Element, factors) -> Factorization:
    """The certified factorization, or VerificationFailed: the ordered
    factors must recompose to e and every factor must be an involution.
    ``factor``, ``af_factor`` and ``ggt verify`` all certify here."""
    recompose = verify_product(e, factors)
    involutions = all(is_involution(t) for t in factors)
    if not (recompose and involutions):
        raise VerificationFailed(
            f"factors={len(factors)} recompose={str(recompose).lower()} "
            f"involutions={str(involutions).lower()}")
    return Factorization(tuple(factors), True)


def af_factor(e: Element) -> Factorization:
    """Certified decomposition of a length-balanced table into at most
    two transpositions.

    The table is refined until its source pieces and range pieces agree
    as a partition; balanced blocks preserve piece depth under
    restriction, so the refinement stays inside the finite universe of
    pieces over the table's own paths and terminates. The element then
    permutes the partition's pieces through canonical arrows.

    Bound: at most two factors, the [s, r] of ``_cycle_swaps`` over the
    cycles of the permutation; one when the element is an involution,
    none for the identity. The pieces of a cycle share length, range
    vertex and punctures, so every pair is swapped through a canonical
    arrow; holonomy is trivial because canonical arrows compose to
    canonical arrows, so s.r moves each piece by the element's own prefix
    exchange. A block of nonzero lag raises HypothesesFailed; the factors
    are certified by ``certify``.
    """
    for b in e.blocks:
        if b.lag() != 0:
            raise HypothesesFailed(
                f"table is not length-balanced: block [{b}] has lag {b.lag()}")
    return certify(e, _af_swaps(e))


def _af_swaps(e: Element):
    """The uncertified factors [s, r] of af_factor (s applied last),
    with an empty side dropped; none for the identity.

    A round replaces each source piece by pieces inside it, each with a
    longer path or more punctures, or by itself. It need not split a
    block: at a vertex with one out-edge e, Z(mu) and Z(mu.e) are one set,
    so a round may only lengthen paths. A round that changes no block, or
    cuts below the table's depth, raises VerificationFailed with the table
    size and depth, also under ``python -O``.
    """
    g = e.graph
    table = list(e.blocks)
    depth_cap = e.max_depth()
    while True:
        src = {b.source_piece() for b in table}
        rng = {b.range_piece() for b in table}
        if src == rng:
            break
        # cut every block's source along the range pieces
        refined = compose_bisections(
            g, table, identity_blocks([b.range_piece() for b in table]))
        depth = max((x.depth() for bl in refined
                     for x in (bl.source_piece(), bl.range_piece())), default=0)
        if depth > depth_cap or set(refined) == set(table):
            raise VerificationFailed(
                f"AF refinement stalled: table={len(table)} refined={len(refined)} "
                f"depth={depth} depth_cap={depth_cap}")
        table = refined
    perm = {b.source_piece(): b.range_piece() for b in table}
    cycles, seen = [], set()
    for start in sorted(perm, key=Piece.key):
        if start in seen:
            continue
        cycle = [start]
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            nxt = perm[nxt]
        seen.update(cycle)
        cycles.append(cycle)
    return _cycle_swaps(g, cycles, _canonical_arrow)


def _canonical_arrow(p: Piece, q: Piece):
    """The prefix exchange carrying piece p onto q; both pieces share
    range vertex and punctures."""
    return [Block(q.mu, q.punctures, p.mu)]


def _cycle_swaps(g: Graph, cycles, arrow):
    """The factors [s, r] (s applied last) of the product of disjoint
    cycles, with an empty side dropped.

    Each cycle lists disjoint members c_0, c_1, ..., c_{m-1}, and the
    product carries c_i onto c_{i+1} (indices mod m). ``arrow(a, b)``
    gives the blocks of a bisection carrying member a onto member b; a
    transposition swaps both ways, so which of the two it carries does
    not matter. The cycle is s.r with r: c_i <-> c_{-i} and
    s: c_i <-> c_{1-i}, since s(r(c_i)) = s(c_{-i}) = c_{1+i}. Both swap
    disjoint pairs, and members of different cycles are disjoint, so the
    pairs of r over all cycles form one transposition and those of s
    another. r has a pair only in a cycle of length >= 3 and s only in
    one of length >= 2. s.r carries c_i onto c_{i+1} by the arrow through
    c_{-i}; that is the product's own arrow when holonomy is trivial: the
    arrows around a cycle compose to the identity, so the arrow from a to
    b through any member is the arrow from a to b.
    """
    r_pairs, s_pairs = [], []
    for cycle in cycles:
        m = len(cycle)
        r_pairs.extend((cycle[i], cycle[m - i]) for i in range(1, (m + 1) // 2))
        s_pairs.extend((cycle[i], cycle[(1 - i) % m])
                       for i in range(1, m // 2 + 1))
    return [transposition(g, [b for a, c in pairs for b in arrow(a, c)])
            for pairs in (s_pairs, r_pairs) if pairs]


# -- the full pipeline -------------------------------------------------------

def factor(e: Element) -> Factorization:
    """Certified transposition factorization of an index-kernel element.

    The graph must satisfy the factorization hypotheses (strongly
    connected with a distinguished emitter); the element must have
    vanishing index. Every returned factor squares to the identity and
    the ordered product recomposes to the input exactly; ``certify``
    checks both once here, and a failure raises VerificationFailed.

    Bound: at most 9 factors, whatever the lags: the shrink step <= 1,
    tau_v twice, the balanced core <= 2 (``af_factor``) and each ladder
    side <= 2. The lag-1 swaps of one positive key's ladder, d_0 <-> d_1,
    ..., d_{p-1} <-> d_p, multiply to one cycle d_0 -> d_p -> ... -> d_1
    -> d_0, and a negative key's ladder is the cycle S(q) = c_0 -> c_|q|
    -> ... -> c_1 -> c_0; so each side is the [s, r] of
    ``_cycle_swaps``. Holonomy is trivial: positive members are joined by
    canonical arrows, and every negative member carries its arrow onto
    c_0, so the arrows around a cycle compose to the identity. The
    supports of different keys are disjoint: the routed paths are
    (``_check_path_families``), and the c-sets are images of disjoint
    X-sets under one bisection. The two sides overlap, since the c-sets
    lie inside the positive members, so they stay two products.
    """
    require_factor_hypotheses(e.graph)
    value = index(e)
    if not value.zero:
        raise IndexNonzero(f"index class {value.vector} is nonzero")
    return certify(e, _factor_proper(e))


def _factor_proper(e: Element):
    """The uncertified factors of ``factor``, first factor applied last.

    After at most one shrink step, a transposition tau_v conjugates e off
    its support to beta = tau_v e tau_v. Ladders tau_minus and tau_plus
    cancel beta's nonzero lags; each is ``_cycle_swaps`` of its cycles,
    one per routed piece of a positive key and one per negative key. The
    balanced remainder beta . tau^-1 goes to ``_af_swaps``. beta and the
    remainder are one ``compose_all`` fold each, so each is checked and
    normalized once; the S(k) checks, the lag check on the remainder and
    ``certify`` in ``factor`` read only those two normal forms. The
    regions to route are e's ``lag_parts``, the level-0 region being the
    lag-0 part (empty without one), and the S(k) checks read beta's; the
    fixed region S(0) is never built.
    """
    g = e.graph
    # one shrink step suffices: the remainder fixes a clopen, so its
    # support is proper
    head = []
    carrier = support(e)
    if not e.is_identity() and carrier.equal(Clopen.full(g)):
        tau, e = shrink_support(e)
        head = [tau]
        carrier = support(e)
    if e.is_identity():
        return head

    parts = lag_parts(e)
    pos = [k for k in parts if k > 0]
    neg = [k for k in parts if k < 0]
    if not pos and not neg:
        return head + _af_swaps(e)
    # a nonempty region cannot have vanishing class, so the two sides
    # of the index balance are nonempty together
    if not (pos and neg):
        raise VerificationFailed(
            f"index balance broken: levels {pos + neg} have one sign")

    region_pieces = {k: parts[k].pieces if k in parts else ()
                     for k in neg + [0] + pos}

    targets = {}
    for k, pieces in region_pieces.items():
        for i, p in enumerate(pieces, start=1):
            targets[(k, i)] = p.mu.base
    routed = construct_disjoint_paths(g, Clopen.full(g), carrier, targets).paths

    def prepend(gamma: Path, piece: Piece) -> Piece:
        return Piece(Path(gamma.base, gamma.edges + piece.mu.edges),
                     piece.punctures)

    # conjugate the element off its support
    v_blocks = []
    for k, pieces in region_pieces.items():
        for i, p in enumerate(pieces, start=1):
            moved = prepend(routed[(k, i, 0)], p)
            v_blocks.append(Block(moved.mu, moved.punctures, p.mu))
    tau_v = transposition(g, v_blocks)
    # one fold, normalized once: lag_parts reads beta's lags
    beta = compose_all([tau_v, e, tau_v])

    beta_parts = lag_parts(beta)
    s_beta = {}
    for k in neg + pos:
        s_beta[k] = Clopen(g, canonicalize(
            g, [prepend(routed[(k, i, 0)], p)
                for i, p in enumerate(region_pieces[k], start=1)]))
        if not beta_parts.get(k, Clopen.empty(g)).equal(s_beta[k]):
            raise VerificationFailed(
                f"conjugated part S({k}) is not its routed copy {s_beta[k]}")

    # positive side: a routed piece cycles from its j = 0 copy through its
    # j = p, ..., 1 copies, all joined by canonical arrows
    plus_cycles = [[prepend(routed[(p_key, i, j)], pc)
                    for j in [0] + list(range(p_key, 0, -1))]
                   for p_key in pos
                   for i, pc in enumerate(region_pieces[p_key], start=1)]
    tau_plus = _cycle_swaps(g, plus_cycles, _canonical_arrow)

    # negative side: S(q) = c_0 cycles through c_|q|, ..., c_1, where c_l
    # is the image of the j = -l copies under a matching onto the
    # positive members other than the j = p copies; arrows[(q, l)]
    # carries c_l onto c_0, composed of lag-1 cancellations c_l -> c_{l-1}
    d_all = Clopen(g, canonicalize(g, [c for cycle in plus_cycles
                                       for k, c in enumerate(cycle) if k != 1]))
    x_pieces = {(q_key, l): [prepend(routed[(q_key, i, -l)], pc)
                             for i, pc in enumerate(region_pieces[q_key], start=1)]
                for q_key in neg for l in range(1, -q_key + 1)}
    x_all = Clopen(g, canonicalize(g, [x for xs in x_pieces.values() for x in xs]))
    matching = find_bisection(x_all, d_all)
    arrows = {}
    minus_cycles = []
    for q_key in neg:
        c_prev = s_beta[q_key]
        for l in range(1, -q_key + 1):
            # restrict the matching to the X part to read off its image
            c_l = bisection_range(g, compose_bisections(
                g, matching, identity_blocks(x_pieces[(q_key, l)])))
            t_blocks = graded_cancellation(c_l, c_prev, 1)
            arrows[(q_key, l)] = (t_blocks if l == 1 else compose_bisections(
                g, arrows[(q_key, l - 1)], t_blocks))
            c_prev = c_l
        minus_cycles.append([(q_key, l) for l in [0] + list(range(-q_key, 0, -1))])

    def carry(a, b):
        # a transposition swaps both ways, so a pair holding c_0 needs
        # only the other member's arrow
        if a[1] == 0:
            a, b = b, a
        if b[1] == 0:
            return arrows[a]
        return compose_bisections(g, [x.inverse() for x in arrows[b]], arrows[a])

    tau_minus = _cycle_swaps(g, minus_cycles, carry)

    # beta . tau^-1 for the ladder product tau = tau_minus . tau_plus:
    # every ladder factor is its own inverse, so tau^-1 is the ladders in
    # reverse order, and the whole product is one fold normalized once
    balanced = compose_all([beta] + list(reversed(tau_minus + tau_plus)))
    lagged = next((b for b in balanced.blocks if b.lag() != 0), None)
    if lagged is not None:
        raise VerificationFailed(
            f"ladders left block [{lagged}] of lag {lagged.lag()}")
    core = _af_swaps(balanced)
    return head + [tau_v] + core + tau_minus + tau_plus + [tau_v]


# -- factorization file format ------------------------------------------------

def print_factorization(base_name: str, fact: Factorization, g: Graph) -> str:
    lines = [f"product-of {len(fact.transpositions)} transpositions, "
             f"certified={'true' if fact.certified else 'false'}"]
    for i, t in enumerate(fact.transpositions, start=1):
        lines.append(print_element(f"{base_name}_f{i}", t).rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_factorization(g: Graph, text: str):
    """Returns (claimed_certified, [elements]) from a factorization file."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty factorization file")
    head = lines[0].strip()
    if not head.startswith("product-of"):
        raise ParseError("missing product-of header")
    try:
        count = int(head.split()[1])
        certified = head.rsplit("certified=", 1)[1] == "true"
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad header {head!r}") from exc
    chunks = []
    current = None
    for line in lines[1:]:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("element "):
            current = [line]
            chunks.append(current)
        elif current is None:
            raise ParseError("block before the first element header")
        else:
            current.append(line)
    if len(chunks) != count:
        raise ParseError(f"header claims {count} factors, file has {len(chunks)}")
    elements = [parse_element_text(g, "\n".join(c))[1] for c in chunks]
    return certified, elements
