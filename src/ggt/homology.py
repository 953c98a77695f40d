"""Homology of graph groupoids and the index map.

The zeroth homology of the groupoid is presented on one generator per
vertex with one relation per regular vertex v, namely g_v = sum of
g_{r(e)} over the edges e leaving v; its invariant factors come from the
Smith normal form of the relation matrix and the first homology is the
integer kernel of that matrix.

The AF kernel of the canonical cocycle is handled through an atom
calculus: an atom (v, n) is the class of any cylinder over a length-n
path ending at v. This kernel grading is the only one, so levels are
never negative and a negative level raises NegativeLevel. The only
relations are the forward rewrites (v, n) = sum over e of (r(e), n+1)
at regular v, so the group is the increasing union of its level-n stage
groups. Atoms at singular vertices admit no rewrite and generate free
summands. Hence a vector vanishes iff rewriting it level by level
upward leaves no singular coefficient at any level and, at some level
at or above its top, nothing at all. The top-level vectors that die this
way form the eventual kernel of the pushdown map
(``intlin.eventual_kernel``), the limit of an ascending chain of
saturated sublattices of Z^|V| that is stable from step |V| on, so the
rewrite runs at most |V| levels past the top and the zero test takes no
iteration cap. The level where the rewrite first empties
(``vanishing_level``) is also the depth at which the bisection matcher
pairs two clopens of equal class (``factor.find_bisection``). The
endomorphism phi shifts atom levels by one; the first homology embeds as
the kernel of (id - phi), and the index of a table is the alternating
phi-sum over its lag parts; S(0) adds 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .errors import (MalformedGraph, NegativeLevel, NotEssential,
                     SourcePresent, VerificationFailed)
from .fullgroup import Element, lag_parts
from .graphs import Graph, require_ah_criteria, validate
from .intlin import IntMatrix, smith_invariants
from .pathspace import Clopen, path_range


@dataclass(frozen=True)
class ClassVector:
    """Finite integer combination of atoms (vertex, level)."""

    graph: Graph = field(repr=False)
    terms: tuple = ()  # sorted ((level, vertex), coeff) pairs, coeff != 0

    def __post_init__(self):
        if any(l < 0 for (l, _), _ in self.terms):
            raise NegativeLevel("kernel grading has no negative levels")

    @classmethod
    def of(cls, g: Graph, items) -> "ClassVector":
        acc = {}
        for (v, n), c in items:
            if v not in g.vertices:
                raise MalformedGraph(f"unknown vertex {v!r}")
            acc[(n, v)] = acc.get((n, v), 0) + c
        terms = tuple(sorted((k, c) for k, c in acc.items() if c != 0))
        return cls(g, terms)

    @classmethod
    def zero(cls, g: Graph) -> "ClassVector":
        return cls(g, ())

    @classmethod
    def atom(cls, g: Graph, v: str, n: int) -> "ClassVector":
        return cls.of(g, [((v, n), 1)])

    def items(self):
        return [((v, n), c) for (n, v), c in self.terms]

    def add(self, other: "ClassVector") -> "ClassVector":
        if self.graph != other.graph:
            raise MalformedGraph("class vectors are not compatible")
        return ClassVector.of(self.graph, self.items() + other.items())

    def negate(self) -> "ClassVector":
        return ClassVector.of(self.graph, [(key, -x) for key, x in self.items()])

    def sub(self, other: "ClassVector") -> "ClassVector":
        return self.add(other.negate())

    def min_level(self):
        return min((n for (n, _), _ in self.terms), default=None)

    def max_level(self):
        return max((n for (n, _), _ in self.terms), default=None)

    def __str__(self):
        if not self.terms:
            return "0"
        return " ".join(f"({v},{n}):{c:+d}" for (n, v), c in self.terms)


def shift(c: ClassVector, m: int) -> ClassVector:
    """Apply phi^m: move every atom (v, n) to (v, n + m)."""
    if m != 0 and c.terms:
        lo = c.min_level()
        if lo + m < 0:
            raise NegativeLevel(
                f"shift by {m} drops level {lo} below zero")
    return ClassVector.of(c.graph, [((v, n + m), x) for (v, n), x in c.items()])


def class_of(a: Clopen) -> ClassVector:
    """Atom expansion of a compact open set.

    Each piece Z(mu \\ F) contributes the atom of its range vertex at
    level |mu| minus one atom per puncture one level deeper. Atoms (v, n)
    are meaningful for every n only when every vertex has an incoming
    edge, hence the no-sources requirement.
    """
    g = a.graph
    for v in sorted(g.vertices):
        if g._incoming[v] == 0:
            raise SourcePresent(f"vertex {v} is a source")
    items = []
    for p in a.pieces:
        items.append(((path_range(g, p.mu), len(p.mu)), 1))
        for e in p.punctures:
            items.append(((g.range(e), len(p.mu) + 1), -1))
    return ClassVector.of(g, items)


def vanishing_level(c: ClassVector) -> int | None:
    """The least level at or above the top where c rewrites to nothing,
    or None when c does not vanish in homology.

    Regular atoms are rewritten one level up at a time from the lowest
    level. Rewriting never touches a singular atom, and the level-n
    stage group is free on the singular atoms below n and all atoms at
    n, so a nonzero singular coefficient at any level witnesses a
    nonzero class and an empty rewrite at a level at or above the top
    witnesses zero. Past the top nothing new enters: a vector z with
    zero singular coordinates at every step dies after k pushes iff it
    lies in the k-th lattice of the chain of ``intlin.eventual_kernel``,
    which is stable from step |V| on. So the rewrite runs at most |V|
    levels past the top, and a survivor there is nonzero. The empty
    vector vanishes at level 0.
    """
    if not c.terms:
        return 0
    g = c.graph
    top = c.max_level()
    by_level = {}
    for (v, n), x in c.items():
        by_level.setdefault(n, {})[v] = x
    vec = {}
    for n in range(c.min_level(), top + len(g.vertices) + 1):
        for v, x in by_level.get(n, {}).items():
            vec[v] = vec.get(v, 0) + x
        live = {v: x for v, x in vec.items() if x}
        if not live and n >= top:
            return n
        if any(g.is_singular(v) for v in live):
            return None
        vec = {}
        for v, x in live.items():
            for e in g.out_concrete(v):
                w = g.range(e)
                vec[w] = vec.get(w, 0) + x
    return None


def is_zero(c: ClassVector) -> bool:
    """Decide whether the class vector vanishes in homology."""
    return vanishing_level(c) is not None


def classes_equal(a: ClassVector, b: ClassVector) -> bool:
    return is_zero(a.sub(b))


@dataclass(frozen=True)
class HomologyReport:
    h0_torsion: tuple
    h0_free_rank: int
    h1_rank: int
    h1_kernel_basis: tuple
    h0_tensor_z2_rank: int
    abelianization_note: str = ""

    def h0_text(self) -> str:
        parts = []
        if self.h0_free_rank:
            parts.append(f"Z^{self.h0_free_rank}")
        parts.extend(f"Z/{t}" for t in self.h0_torsion)
        return " + ".join(parts) if parts else "0"

    def h1_text(self) -> str:
        return f"Z^{self.h1_rank}" if self.h1_rank else "0"


def relation_matrix(g: Graph) -> IntMatrix:
    """One row per vertex u and one column per regular vertex v: the entry
    is [u = v] minus the number of edges from v to u."""
    idx = {v: i for i, v in enumerate(sorted(g.vertices))}
    regular = g.regular_vertices()
    rows = [[0] * len(regular) for _ in idx]
    for j, v in enumerate(regular):
        rows[idx[v]][j] += 1
        for e in g.out_concrete(v):
            rows[idx[g.range(e)]][j] -= 1
    return IntMatrix(len(rows), len(regular),
                     tuple(chain.from_iterable(rows)))


def homology(g: Graph) -> HomologyReport:
    """H0 as cokernel invariants, H1 as the kernel lattice, both from
    ``smith_invariants`` of the relation matrix: sparse elimination on
    its unit entries, then one Smith normal form of the residual.

    Sinks are allowed; they are singular and contribute no relation.
    Higher homology vanishes for every graph groupoid and is reported as
    a constant, never computed.
    """
    torsion, free_rank, ker = smith_invariants(relation_matrix(g))
    even = sum(1 for t in torsion if t % 2 == 0)
    return HomologyReport(tuple(torsion), free_rank, ker.rank, ker.basis,
                          free_rank + even)


def abelianization_report(g: Graph) -> HomologyReport:
    """Homology report extended with the abelianization bound.

    For graphs meeting the AH criteria the abelianization of the full
    group is Z^M plus an elementary 2-group of rank at most the 2-rank
    of H0, with M the rank of H1.
    """
    require_ah_criteria(g)
    h = homology(g)
    m, nmax = h.h1_rank, h.h0_tensor_z2_rank
    if m == 0 and nmax == 0:
        note = "trivial"
    else:
        note = f"Z^{m} (+) (Z/2)^N, 0 <= N <= {nmax}"
    return HomologyReport(h.h0_torsion, h.h0_free_rank, h.h1_rank,
                          h.h1_kernel_basis, h.h0_tensor_z2_rank, note)


@dataclass(frozen=True)
class IndexValue:
    vector: ClassVector
    zero: bool


def _phi_term(part: Clopen, k: int) -> ClassVector:
    """phi^(k) applied to the class of the set moved with lag k != 0:
    minus the sum of phi^i over 0 <= i < k for k > 0, the sum of phi^i
    over k <= i < 0 for k < 0, built in one pass over the shifted atoms.

    For k < 0 the part is refined to depth |k| first; every refined piece
    then has depth at least |k| (a shallower stop at a singular vertex
    would put a finite boundary path inside the part, which the block
    structure rules out), so the negative shifts stay in the kernel
    grading.
    """
    if k > 0:
        sign, shifts = -1, range(k)
    else:
        sign, shifts = 1, range(k, 0)
        part = part.refine_to(-k)
        shallow = next((p for p in part.pieces if len(p.mu) < -k), None)
        if shallow is not None:
            raise VerificationFailed(
                f"refined part has piece {shallow} shallower than depth {-k}")
    atoms = class_of(part).items()
    return ClassVector.of(part.graph, [((v, n + i), sign * x)
                                       for (v, n), x in atoms for i in shifts])


def index(e: Element) -> IndexValue:
    """Index class of a full-group element in the kernel grading: the sum
    of ``_phi_term`` over the nonzero-lag parts of ``lag_parts``; the
    lag-0 part adds phi^(0) = 0, so S(0) is never built.

    Requires an essential graph (no sinks, no sources). The result lies
    in the kernel of (id - phi), which is checked (VerificationFailed
    otherwise), and the zero flag is the homology zero-test of the class.
    """
    g = e.graph
    report = validate(g)
    if not report.no_sinks or not report.no_sources:
        raise NotEssential("index needs a graph with no sinks and no sources")
    total = ClassVector.zero(g)
    for k, part in lag_parts(e).items():
        if k:
            total = total.add(_phi_term(part, k))
    if not is_zero(total.sub(shift(total, 1))):
        raise VerificationFailed(f"index class {total} is not in ker(id - phi)")
    return IndexValue(total, is_zero(total))
