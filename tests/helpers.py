"""Shared test utilities: independent oracles and random generators.

The oracles here are deliberately separate implementations: a naive
Smith reducer without transform tracking, the dense Smith invariants
that unit elimination replaced, the dense relation matrix and the
dense-scan, rescanning unit elimination that sparse relation rows and
the pivot heap replaced, integer matrix products, determinants and
determinantal divisors (gcds of minors) for checking Smith forms, a
boundary-point enumerator that checks set algebra pointwise, the
dictionary forms of block pairing and overlap search with the recursive
canonical walk that the path-trie walks replaced, the pairwise intersection and subtraction
that the complement walks replaced, the graded partition and index
that built S(0) everywhere, the routed-path check that decided
containment by one subtraction per path, and the matcher that filed
every piece through a one-piece refinement and scanned for its least
key, the normal form that walked every reduced-exchange group,
even a group of one canonical tail (``reference_normalize_table``), and
the complement walk that pushed every child node on its stack, also one
that a plain piece covers (``reference_complement_pieces``).
They stay independent of the code paths they check.
"""

import itertools
import math
import random

from ggt.errors import NotEssential, VerificationFailed
from ggt.fullgroup import (Block, Element, GradedPartition,
                           _block_is_identity, apply, compose, transposition,
                           validate_element)
from ggt.graphs import Graph, edge_key, family_member, validate
from ggt.homology import (ClassVector, HomologyReport, IndexValue, class_of,
                          is_zero, shift)
from ggt.intlin import IntMatrix, Lattice, smith_normal_form
from ggt.pathspace import (BoundaryPoint, Clopen, Path, Piece,
                           canonical_pieces, canonicalize, complement_pieces,
                           find_overlap, intersect_pieces, make_piece,
                           path_range, path_trie, piece_is_empty,
                           subtract_piece)


# -- naive Smith normal form (oracle) -----------------------------------------

def naive_invariant_factors(rows):
    """Diagonal invariant factors by textbook reduction, no transforms.

    Step t repeats until row t and column t are both clear past the
    pivot: a column swap made while clearing row t can put nonzero
    entries back into column t below the pivot."""
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
        restart = False
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
        if any(a[i][t] != 0 for i in range(t + 1, m)):
            continue
        p = abs(a[t][t])
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p != 0:
                    a[t] = [x + y for x, y in zip(a[t], a[i])]
                    restart = True
                    break
            if restart:
                break
        if restart:
            continue
        diag.append(p)
        t += 1
    return diag


def dense_smith_invariants(m):
    """(torsion, free rank, kernel) of m from one dense Smith normal form
    of all of m, with no unit elimination: the reference of the sparse
    ``intlin.smith_invariants``.

    With D = U*m*V of rank k (U is never built) the torsion is the
    diagonal entries above 1, the free rank is rows - k, and the last
    cols - k columns of V span the kernel.
    """
    d, v = smith_normal_form(m)
    diag = d.diagonal()
    rank = sum(1 for x in diag if x != 0)
    ker = Lattice.from_vectors(m.cols, [[v.get(i, j) for i in range(m.cols)]
                                        for j in range(rank, m.cols)])
    return [x for x in diag if x > 1], m.rows - rank, ker


# -- dense relation matrix and unit elimination (references) ------------------

def relation_matrix(g):
    """The dense relation matrix, read off the graph's edge triples: one
    row per vertex u and one column per regular vertex v, both in sorted
    order, with entry [u = v] minus the number of edges from v to u. The
    reference of the sparse ``homology.relation_rows``."""
    verts = sorted(g.vertices)
    regular = [v for v in verts if g.is_regular(v)]
    col = {v: j for j, v in enumerate(regular)}
    row = {u: i for i, u in enumerate(verts)}
    a = [[int(u == v) for v in regular] for u in verts]
    for _, s, r in g.edges:
        if s in col:
            a[row[r]][col[s]] -= 1
    return IntMatrix(len(verts), len(regular), tuple(x for r in a for x in r))


def reference_unit_eliminate(m):
    """The dense-scan, rescanning unit elimination that the pivot heap
    replaced: (R, basis) as a dense residual with its empty rows, and the
    columns of V of R's columns.

    The rows are read out of m into dicts; each pivot is found by
    scanning every live entry for the +-1 of least Markowitz cost, the
    first one met on ties.
    """
    rows = {}
    at = [set() for _ in range(m.cols)]
    for i in range(m.rows):
        row = {j: x for j, x in enumerate(m.entries[i * m.cols:(i + 1) * m.cols]) if x}
        for j in row:
            at[j].add(i)
        rows[i] = row
    v = {j: {j: 1} for j in range(m.cols)}
    while True:
        best = None
        for i, row in rows.items():
            rn = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    cost = rn * (len(at[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, i, j = best
        pivot = rows.pop(i)
        s = pivot[j]
        for i2 in [i2 for i2 in at[j] if i2 != i]:
            row = rows[i2]
            q = row[j] * s
            for j2, x in pivot.items():
                y = row.get(j2, 0) - q * x
                if y:
                    if j2 not in row:
                        at[j2].add(i2)
                    row[j2] = y
                else:
                    del row[j2]
                    at[j2].discard(i2)
        vj = v.pop(j)
        for j2, x in pivot.items():
            if j2 == j:
                continue
            at[j2].discard(i)
            q = x * s
            col = v[j2]
            for r, y in vj.items():
                z = col.get(r, 0) - q * y
                if z:
                    col[r] = z
                else:
                    del col[r]
        at[j] = set()
    left = sorted(v)
    res = IntMatrix(len(rows), len(left),
                    tuple(row.get(j, 0) for row in rows.values() for j in left))
    return res, [v[j] for j in left]


def reference_smith_invariants(m):
    """(torsion, free rank, kernel) of m by ``reference_unit_eliminate``
    and one Smith normal form of the whole residual, empty rows and all:
    the oracle of ``intlin.smith_invariants`` at sizes where
    ``dense_smith_invariants`` is too slow."""
    res, basis = reference_unit_eliminate(m)
    d, v = smith_normal_form(res)
    diag = d.diagonal()
    rank = sum(1 for x in diag if x != 0)
    vectors = []
    for t in range(rank, res.cols):
        vec = [0] * m.cols
        for s, col in enumerate(basis):
            w = v.get(s, t)
            if w:
                for r, y in col.items():
                    vec[r] += w * y
        vectors.append(vec)
    return ([x for x in diag if x > 1], res.rows - rank,
            Lattice.from_vectors(m.cols, vectors))


def reference_homology(g):
    """``homology.homology`` from the dense ``relation_matrix`` and
    ``reference_smith_invariants``."""
    torsion, free, ker = reference_smith_invariants(relation_matrix(g))
    even = sum(1 for t in torsion if t % 2 == 0)
    return HomologyReport(tuple(torsion), free, ker.rank, ker.basis,
                          free + even)


# -- integer matrix arithmetic (Smith transform checks) ------------------------

def mat_mul(a, b):
    """The integer matrix product a * b."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    return IntMatrix(a.rows, b.cols, tuple(
        sum(a.get(i, k) * b.get(k, j) for k in range(a.cols))
        for i in range(a.rows) for j in range(b.cols)))


def mat_vec(m, v):
    """The integer vector m * v."""
    if len(v) != m.cols:
        raise ValueError("shape mismatch")
    return [sum(m.get(i, j) * v[j] for j in range(m.cols)) for i in range(m.rows)]


def full_lattice(n):
    """All of Z^n, spanned by the unit vectors."""
    return Lattice.from_vectors(n, [[1 if i == j else 0 for j in range(n)]
                                    for i in range(n)])


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minors_gcd(m, k):
    """The gcd of all k x k minors of m (1 for k = 0, as the empty minor
    is 1; 0 if k exceeds a side)."""
    out = 0
    for rs in itertools.combinations(range(m.rows), k):
        for cs in itertools.combinations(range(m.cols), k):
            out = math.gcd(out, determinant(IntMatrix(k, k, tuple(
                m.get(i, j) for i in rs for j in cs))))
    return out


def determinantal_invariant_factors(m):
    """The nonzero invariant factors of m from its determinantal divisors:
    with D_k the gcd of the k x k minors, the k-th factor is D_k / D_(k-1),
    for k up to the rank. Independent of every elimination order."""
    out, prev = [], 1
    for k in range(1, min(m.rows, m.cols) + 1):
        dk = minors_gcd(m, k)
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


# -- prefix dictionaries and the recursive canonical walk (references) --------

def dict_find_overlap(g, pieces):
    """Indices of two overlapping pieces, or None: the search that slices
    and hashes every proper prefix of every path. Same-path pairs come
    first, then each piece against the pieces on its prefixes, cut by cut."""
    by_path = {}
    for i, p in enumerate(pieces):
        key = (p.mu.base, p.mu.edges)
        for j in by_path.get(key, ()):
            if intersect_pieces(g, pieces[j], p) is not None:
                return j, i
        by_path.setdefault(key, []).append(i)
    for i, p in enumerate(pieces):
        for cut in range(len(p.mu.edges)):
            key = (p.mu.base, p.mu.edges[:cut])
            for j in by_path.get(key, ()):
                if p.mu.edges[cut] not in pieces[j].punctures:
                    return j, i
    return None


def dict_compose_bisections(g, outer, inner):
    """Blocks of outer after inner, in inner order then outer order: each
    inner range path looks up the outer source paths on its prefixes and
    below it in dictionaries keyed by path, and each candidate pair goes
    through ``intersect_pieces``."""
    at_path = {}   # source path -> outer indices with unpunctured sources on it
    at_punct = {}  # source path -> outer indices with punctured sources on it
    below = {}     # path -> outer indices whose source path extends it strictly
    for i, bo in enumerate(outer):
        base, edges = bo.nu.base, bo.nu.edges
        (at_punct if bo.punctures else at_path).setdefault(
            (base, edges), []).append(i)
        for cut in range(len(edges)):
            below.setdefault((base, edges[:cut]), []).append(i)
    out = []
    for bi in inner:
        base, edges = bi.mu.base, bi.mu.edges
        hits = below.get((base, edges), ())
        if bi.punctures:
            n = len(edges)
            hits = [i for i in hits if outer[i].nu.edges[n] not in bi.punctures]
        else:
            hits = list(hits)
        for cut in range(len(edges) + 1):
            hits.extend(at_path.get((base, edges[:cut]), ()))
        if at_punct:
            hits.extend(at_punct.get((base, edges), ()))
            for cut in range(len(edges)):
                hits.extend(i for i in at_punct.get((base, edges[:cut]), ())
                            if edges[cut] not in outer[i].punctures)
        rng = bi.range_piece()
        for i in sorted(hits):
            bo = outer[i]
            piece = intersect_pieces(g, rng, bo.source_piece())
            if piece is None:
                continue
            lam = piece.mu.edges[len(bi.mu):]
            rho = piece.mu.edges[len(bo.nu):]
            out.append(Block(Path(bo.mu.base, bo.mu.edges + rho),
                             piece.punctures,
                             Path(bi.nu.base, bi.nu.edges + lam)))
    return out


_COVERED = object()


def _setdefault_trie(g, pieces):
    """Path trie of the nonempty pieces as nested (puncture sets, children
    by edge) pairs, one root per base vertex."""
    roots = {}
    for p in pieces:
        if piece_is_empty(g, p):
            continue
        node = roots.setdefault(p.mu.base, ([], {}))
        for e in p.mu.edges:
            node = node[1].setdefault(e, ([], {}))
        node[0].append(frozenset(p.punctures))
    return roots


def _recursive_emit(g, mu, node):
    """_COVERED if the subtree at mu covers Z(mu), else its canonical
    pieces, one call per trie level."""
    v = path_range(g, mu)
    regular = g.is_regular(v)
    punctures, children = node
    if punctures:
        at_node = frozenset.intersection(*punctures)
        residue = []
        eff = set(at_node)
        for e in sorted(at_node, key=edge_key):
            sub = children.get(e)
            if sub is None:
                continue
            r = _recursive_emit(g, mu.extend(e), sub)
            if r is _COVERED:
                eff.discard(e)
            else:
                residue.extend(r)
        if not eff:
            return _COVERED
        if not regular:
            residue.insert(0, Piece(mu, tuple(sorted(eff, key=edge_key))))
        else:
            residue.extend(Piece(mu.extend(e)) for e in g.out_concrete(v)
                           if e not in eff)
        return residue
    results = {e: _recursive_emit(g, mu.extend(e), children[e])
               for e in sorted(children, key=edge_key)}
    if (regular and all(r is _COVERED for r in results.values())
            and set(results) == set(g.out_concrete(v))):
        return _COVERED
    collected = []
    for e, r in results.items():
        if r is _COVERED:
            collected.append(Piece(mu.extend(e)))
        else:
            collected.extend(r)
    return collected


def recursive_canonical_pieces(g, pieces):
    """``pathspace.canonical_pieces`` by a recursive walk of a trie built
    with ``dict.setdefault``, independent of ``pathspace.path_trie``."""
    out = []
    for v, node in sorted(_setdefault_trie(g, pieces).items()):
        r = _recursive_emit(g, Path(v), node)
        out.extend([Piece(Path(v))] if r is _COVERED else r)
    return out


def reference_complement_pieces(g, pieces):
    """``pathspace.complement_pieces`` as it walked before it skipped
    covered children: every child node on a taken or open edge is pushed,
    and one that a plain piece covers is popped, leaves no open edge and
    emits nothing."""
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
            open_edges = set(pieces[node.at[0]].punctures)
            for i in node.at[1:]:
                open_edges.intersection_update(pieces[i].punctures)
            edges = sorted(open_edges, key=edge_key)
        else:
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


# -- pairwise set algebra and the S(0)-building index (references) ------------

def pairwise_intersect(a, b):
    """``Clopen.intersect`` by ``intersect_pieces`` over every pair of
    pieces, canonicalized."""
    g = a.graph
    out = []
    for p in a.pieces:
        for q in b.pieces:
            r = intersect_pieces(g, p, q)
            if r is not None:
                out.append(r)
    return Clopen(g, canonicalize(g, out))


def pairwise_subtract(a, b):
    """``Clopen.subtract`` by cutting each piece of a with
    ``subtract_piece`` against every piece of b, canonicalized."""
    g = a.graph
    out = []
    for p in a.pieces:
        parts = [p]
        for q in b.pieces:
            parts = [x for part in parts for x in subtract_piece(g, part, q)]
            if not parts:
                break
        out.extend(parts)
    return Clopen(g, canonicalize(g, out))


def reference_block_key(b):
    """The block order by source key, then range key: ``Block.key`` before
    it read the source alone."""
    return b.source_piece().key() + b.range_piece().key()


def reference_normalize_table(g, live):
    """``fullgroup._normalize_table`` with one ``canonical_pieces`` walk per
    reduced-exchange group, a group of one tail included."""
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
        for p in canonical_pieces(g, tails):
            b = tails.get(p)
            if b is None:
                b = Block(Path(mu0.base, mu0.edges + p.mu.edges), p.punctures,
                          Path(nu0.base, nu0.edges + p.mu.edges))
            kept.append(b)
    return Element(g, tuple(sorted(kept, key=Block.key)))


def reference_graded_partition(e):
    """``fullgroup.graded_partition`` with S(0) built as the lag-0
    sources canonicalized together with the complement of all sources."""
    g = e.graph
    buckets = {0: []}
    for b in e.blocks:
        buckets.setdefault(b.lag(), []).append(b.source_piece())
    buckets[0] += complement_pieces(g, [b.source_piece() for b in e.blocks])
    parts = {k: Clopen(g, canonicalize(g, pieces))
             for k, pieces in buckets.items()}
    levels = tuple((k, parts[k]) for k in sorted(parts)
                   if not parts[k].is_empty())
    return GradedPartition(Clopen.full(g), levels)


def _reference_phi_term(part, k):
    """phi^(k) of the class of a part, one ``shift`` and ``add`` per power."""
    if k == 0:
        return ClassVector.zero(part.graph)
    if k > 0:
        cls = class_of(part)
        total = ClassVector.zero(part.graph)
        for i in range(k):
            total = total.add(shift(cls, i))
        return total.negate()
    refined = part.refine_to(-k)
    shallow = next((p for p in refined.pieces if len(p.mu) < -k), None)
    if shallow is not None:
        raise VerificationFailed(
            f"refined part has piece {shallow} shallower than depth {-k}")
    cls = class_of(refined)
    total = ClassVector.zero(part.graph)
    for i in range(k, 0):
        total = total.add(shift(cls, i))
    return total


def reference_index(e):
    """``homology.index`` summed over every part of
    ``reference_graded_partition``, S(0) included."""
    g = e.graph
    report = validate(g)
    if not report.no_sinks or not report.no_sources:
        raise NotEssential("index needs a graph with no sinks and no sources")
    total = ClassVector.zero(g)
    for k, chunk in reference_graded_partition(e).levels:
        total = total.add(_reference_phi_term(chunk, k))
    if not is_zero(total.sub(shift(total, 1))):
        raise VerificationFailed(f"index class {total} is not in ker(id - phi)")
    return IndexValue(total, is_zero(total))


# -- routed-path check by subtraction (reference) -----------------------------

def reference_check_path_families(g, fam, region, targets):
    """``factor._check_path_families`` as one overlap search over all the
    paths and one ``Clopen.subtract`` per path for its container, the
    outside being the whole space minus the region."""
    outside = Clopen.full(g).subtract(region)
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


# -- boundary point enumeration (oracle) ---------------------------------------

def enumerate_prefixes(g, max_len, members=3):
    """All paths of length <= max_len, families truncated to low members."""
    out = []
    stack = [Path(v) for v in sorted(g.vertices)]
    while stack:
        p = stack.pop()
        out.append(p)
        if len(p) >= max_len:
            continue
        v = path_range(g, p)
        refs = list(g.out_concrete(v))
        for f in g.out_families(v):
            refs.extend(family_member(f, k) for k in range(1, members + 1))
        for e in refs:
            stack.append(p.extend(e))
    return out


def cycle_sets(g, members=2):
    """A fixed finite set of tail cycles per vertex."""
    cycles = {v: [] for v in g.vertices}
    for v in sorted(g.vertices):
        refs = list(g.out_concrete(v))
        for f in g.out_families(v):
            refs.extend(family_member(f, k) for k in range(1, members + 1))
        for e in refs:
            if g.range(e) == v:
                cycles[v].append((e,))
        for e in refs:
            w = g.range(e)
            if w == v:
                continue
            for e2 in g.out_concrete(w):
                if g.range(e2) == v:
                    cycles[v].append((e, e2))
                    break
    return cycles


def point_family(g, max_prefix=4, members=3):
    """Finite point family: bounded prefixes with fixed tails."""
    cycles = cycle_sets(g)
    points = []
    for p in enumerate_prefixes(g, max_prefix, members=members):
        v = path_range(g, p)
        if g.is_singular(v):
            points.append(BoundaryPoint.at_singular(g, p))
        for c in cycles[v][:2]:
            points.append(BoundaryPoint.periodic(g, p, c))
    seen = set()
    out = []
    for x in points:
        key = (x.prefix, x.cycle)
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


def symmetric_difference_empty(a, b):
    """Set equality by subtraction, without canonical forms."""
    return a.subtract(b).is_empty() and b.subtract(a).is_empty()


def member_set(clopen, points):
    return frozenset(i for i, x in enumerate(points) if clopen.contains(x))


def acts_pointwise(e, factors, points):
    """The ordered product of the factors moves every point as e does;
    the first factor acts last. Neither ``compose`` nor ``acts_as`` runs."""
    for x in points:
        y = x
        for t in reversed(factors):
            y = apply(t, y)
        if y != apply(e, x):
            return False
    return True


# -- reachability (oracle) -----------------------------------------------------

def reachable_from(g, v):
    """All vertices reachable from v, including v, by depth-first search."""
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in g.successors(u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# -- graphs with twin vertices -------------------------------------------------

def twin_chain(k):
    """Two chains a1 -> ... -> ak -> c and b1 -> ... -> bk -> c, with c
    feeding a1 (edge s) and b1 (edge t). The class (a1, n) - (b1, n)
    rewrites to (ai, n + i - 1) - (bi, n + i - 1) and vanishes exactly at
    level n + k, so Z(s) and Z(t) match first at depth 1 + k."""
    if k < 1:
        raise ValueError("a twin chain needs at least one link")
    verts = [f"{side}{i}" for side in "ab" for i in range(1, k + 1)] + ["c"]
    edges = [("s", "c", "a1"), ("t", "c", "b1")]
    for side, name in (("a", "p"), ("b", "q")):
        for i in range(1, k + 1):
            nxt = f"{side}{i + 1}" if i < k else "c"
            edges.append((f"{name}{i}", f"{side}{i}", nxt))
    return Graph(f"chain{k}", verts, edges)


def random_twin_graph(rng):
    """A random strongly connected graph on 3-6 vertices meeting the
    factorization hypotheses, with twins, so that the eventual kernel of
    the pushdown is nontrivial.

    v0 is an infinite emitter with a loop family W and an edge to every
    other vertex. v1 and v2 are twins: regular, with equal multisets of
    out-edge ranges, so (v1, n) - (v2, n) vanishes one level up but not
    at level n.
    """
    for _ in range(1000):
        n = rng.randrange(3, 7)
        verts = [f"v{i}" for i in range(n)]
        outs = {v: sorted(rng.choice(verts) for _ in range(rng.randrange(1, 4)))
                for v in verts[1:]}
        outs["v2"] = list(outs["v1"])
        edges = [(f"w{i}", "v0", v) for i, v in enumerate(verts[1:], start=1)]
        for v in verts[1:]:
            edges += [(f"{v}x{j}", v, r) for j, r in enumerate(outs[v])]
        g = Graph(f"twins{n}", verts, edges, [("W", "v0", "v0")])
        if validate(g).factor_hypotheses:
            return g
    raise RuntimeError("could not sample a strongly connected twin graph")


# -- random generators ---------------------------------------------------------

def random_sparse_graph(rng, n, p_sink=0.0, p_family=0.0):
    """n vertices; each is a sink with probability p_sink and otherwise
    has 1-3 edges to random vertices (loops and parallel edges occur),
    plus an edge family with probability p_family."""
    verts = [f"v{j}" for j in range(n)]
    edges, families = [], []
    for v in verts:
        if rng.random() < p_sink:
            continue
        for _ in range(rng.randrange(1, 4)):
            edges.append((f"e{len(edges)}", v, rng.choice(verts)))
        if rng.random() < p_family:
            families.append((f"F{len(families)}", v, rng.choice(verts)))
    return Graph(f"g{n}", verts, edges, families)


def random_cycle_graph(rng, n):
    """Strongly connected graph on n vertices in the style of the
    benchmark's ``random_graph``: a random Hamiltonian cycle, 0-2 extra
    edges per vertex, and an edge family on about 20% of the vertices."""
    verts = [f"v{j}" for j in range(1, n + 1)]
    order = verts[:]
    rng.shuffle(order)
    pairs = [(v, order[(j + 1) % n]) for j, v in enumerate(order)]
    for v in verts:
        pairs.extend((v, rng.choice(verts)) for _ in range(rng.randrange(0, 3)))
    rng.shuffle(pairs)
    edges = [(f"e{j}", s, r) for j, (s, r) in enumerate(pairs, start=1)]
    emitters = sorted(rng.sample(verts, max(1, round(0.2 * n))))
    families = [(f"F{j}", v, rng.choice(verts))
                for j, v in enumerate(emitters, start=1)]
    return Graph(f"r{n}", verts, edges, families)


def random_walk(g, rng, start, length, members=4):
    edges = []
    v = start
    for _ in range(length):
        refs = list(g.out_concrete(v))
        for f in g.out_families(v):
            refs.extend(family_member(f, k) for k in range(1, members + 1))
        if not refs:
            return None
        e = rng.choice(refs)
        edges.append(e)
        v = g.range(e)
    return Path(start, tuple(edges))


def random_cylinder(g, rng, max_len=3):
    v = rng.choice(sorted(g.vertices))
    p = random_walk(g, rng, v, rng.randrange(0, max_len + 1))
    return Clopen.cylinder(g, p) if p is not None else Clopen.empty(g)


def random_clopen(g, rng, pieces=3, max_len=3):
    acc = Clopen.empty(g)
    for _ in range(pieces):
        acc = acc.union(random_cylinder(g, rng, max_len))
    if rng.random() < 0.4 and not acc.is_empty():
        acc = acc.subtract(random_cylinder(g, rng, max_len))
    return acc


def random_transposition(g, rng, max_len=3, balanced=False, allow_punctures=True):
    """A one-block transposition with random disjoint source and range."""
    for _ in range(400):
        v = rng.choice(sorted(g.vertices))
        ln = rng.randrange(0, max_len + 1)
        lm = ln if balanced else rng.randrange(0, max_len + 1)
        nu = random_walk(g, rng, v, ln)
        if nu is None:
            continue
        target = path_range(g, nu)
        mu = None
        for u in sorted(g.vertices):
            cand = random_walk(g, rng, u, lm)
            if cand is not None and path_range(g, cand) == target:
                mu = cand
                break
        if mu is None:
            continue
        punct = ()
        if allow_punctures and g.is_infinite_emitter(target) and rng.random() < 0.3:
            fam = rng.choice(g.out_families(target))
            punct = tuple({family_member(fam, rng.randrange(1, 5))
                           for _ in range(rng.randrange(1, 3))})
        block = Block(mu, tuple(sorted(punct)), nu)
        if piece_is_empty(g, block.source_piece()):
            continue
        src, rng_p = block.source_piece(), block.range_piece()
        if intersect_pieces(g, src, rng_p) is not None:
            continue
        return transposition(g, [block])
    raise RuntimeError("could not sample a transposition")


def random_element(g, rng, transpositions=4, max_len=3, balanced=False):
    acc = Element.identity(g)
    for _ in range(transpositions):
        acc = compose(acc, random_transposition(g, rng, max_len, balanced))
    return acc


def punctured_transposition(g, rng, max_len=2):
    """A transposition given by one block with punctures at a regular
    range vertex, which no normal form keeps; a plain random transposition
    when the sampled block has no regular range of out-degree two."""
    t = random_transposition(g, rng, max_len)
    b = t.blocks[0]
    v = path_range(g, b.nu)
    out = g.out_concrete(v)
    if b.punctures or not g.is_regular(v) or len(out) < 2:
        return t
    punct = sorted(rng.sample(out, rng.randrange(1, len(out))), key=edge_key)
    return transposition(g, [Block(b.mu, tuple(punct), b.nu)])


def refine_blocks(g, blocks, rng, splits=3, members=4):
    """The same table map with blocks split at random out-edges.

    Splitting (mu, F, nu) at an edge e outside F leaves the plain child
    (mu.e, {}, nu.e) and the parent (mu, F + {e}, nu), which is dropped
    once it is empty; at a regular range vertex the parent keeps a
    regular puncture.
    """
    blocks = list(blocks)
    for _ in range(splits):
        if not blocks:
            break
        i = rng.randrange(len(blocks))
        b = blocks[i]
        v = path_range(g, b.nu)
        refs = list(g.out_concrete(v))
        for f in g.out_families(v):
            refs.extend(family_member(f, k) for k in range(1, members + 1))
        refs = [e for e in refs if e not in b.punctures]
        if not refs:
            continue
        e = rng.choice(refs)
        parent = Block(b.mu, tuple(sorted(set(b.punctures) | {e}, key=edge_key)),
                       b.nu)
        split = [Block(b.mu.extend(e), (), b.nu.extend(e))]
        if not piece_is_empty(g, parent.source_piece()):
            split.append(parent)
        blocks[i:i + 1] = split
    return blocks


def random_balanced_table(g, rng, depth=2):
    """A random permutation of the depth-d refinement (regular graphs)."""
    pieces = list(Clopen.full(g).refine_to(depth).pieces)
    groups = {}
    for p in pieces:
        groups.setdefault((len(p.mu), path_range(g, p.mu), p.punctures),
                          []).append(p)
    blocks = []
    for key in sorted(groups, key=str):
        group = sorted(groups[key], key=Piece.key)
        images = group[:]
        rng.shuffle(images)
        for src, dst in zip(group, images):
            blocks.append(Block(dst.mu, dst.punctures, src.mu))
    return validate_element(g, blocks)


# -- the min-scan matcher (reference) ------------------------------------------

def _reference_pool_insert(pools, g, piece, depth):
    """File a piece under (length, range vertex), splitting regular
    ranges down to the working depth first, through a one-piece
    ``Clopen.refine_to``."""
    for p in Clopen(g, (piece,)).refine_to(depth).pieces:
        pools.setdefault((len(p.mu), path_range(g, p.mu)), []).append(p)


def reference_match_at_depth(g, a, b, depth):
    """``factor._match_at_depth`` with one pool dict per side and the
    least key taken by a scan of both dicts' keys every round, instead of
    a heap: (blocks, residue)."""
    pools_a, pools_b = {}, {}
    for p in a.pieces:
        _reference_pool_insert(pools_a, g, p, depth)
    for p in b.pieces:
        _reference_pool_insert(pools_b, g, p, depth)
    blocks = []
    residue = 0
    while pools_a or pools_b:
        key = min(pools_a.keys() | pools_b.keys())
        la = sorted(pools_a.pop(key, []), key=lambda p: (len(p.punctures), p.key()))
        lb = sorted(pools_b.pop(key, []), key=lambda p: (len(p.punctures), p.key()))
        for p, q in zip(la, lb):
            punct = tuple(sorted(set(p.punctures) | set(q.punctures), key=edge_key))
            for f in punct:
                if f not in p.punctures:
                    _reference_pool_insert(pools_a, g, Piece(p.mu.extend(f)), depth)
                if f not in q.punctures:
                    _reference_pool_insert(pools_b, g, Piece(q.mu.extend(f)), depth)
            blocks.append(Block(q.mu, punct, p.mu))
        residue += abs(len(la) - len(lb))
    return blocks, residue


# -- class-preserving clopen mutations -----------------------------------------

def mutate_clopen(g, rng, clopen, moves=3):
    """Apply class-preserving split and translate moves to a clopen."""
    pieces = list(clopen.pieces)
    for _ in range(moves):
        if not pieces:
            break
        idx = rng.randrange(len(pieces))
        p = pieces[idx]
        v = path_range(g, p.mu)
        action = rng.random()
        if action < 0.5:
            # split: regular ranges split completely, singular ranges
            # carve one fresh family edge
            if g.is_regular(v):
                del pieces[idx]
                pieces.extend(Piece(p.mu.extend(e)) for e in g.out_concrete(v)
                              if e not in p.punctures)
            else:
                fam = rng.choice(g.out_families(v))
                k = 1
                while family_member(fam, k) in p.punctures:
                    k += 1
                k += rng.randrange(0, 3)
                while family_member(fam, k) in p.punctures:
                    k += 1
                e = family_member(fam, k)
                del pieces[idx]
                pieces.append(make_piece(g, p.mu, p.punctures + (e,)))
                pieces.append(Piece(p.mu.extend(e)))
        else:
            # translate: same length, same range vertex, same puncture count
            for _ in range(60):
                u = rng.choice(sorted(g.vertices))
                q = random_walk(g, rng, u, len(p.mu))
                if q is None or path_range(g, q) != v:
                    continue
                punct = p.punctures
                if punct:
                    fams = g.out_families(v)
                    fresh = set()
                    while len(fresh) < len(punct):
                        fresh.add(family_member(rng.choice(fams),
                                                rng.randrange(1, 8)))
                    punct = tuple(sorted(fresh))
                cand = Piece(q, punct)
                others = pieces[:idx] + pieces[idx + 1:]
                if any(intersect_pieces(g, cand, o) is not None for o in others):
                    continue
                if piece_is_empty(g, cand):
                    continue
                pieces[idx] = cand
                break
    return Clopen(g, tuple(sorted(pieces, key=Piece.key)))
