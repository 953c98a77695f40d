"""Exact integer linear algebra over arbitrary-precision integers.

Provides the Smith normal form D of a matrix with the unimodular column
transform V (the row transform is never built), integer kernels and
cokernel invariants, canonical (Hermite echelon) lattices with
decidable equality and membership, and the ascending eventual-kernel
chain whose saturation bounds the homology zero-test (the tests use it
as the zero-test's reference). No floating point anywhere;
intermediate entries can blow up during reduction, which is why Python
integers are mandatory.

``sparse_smith_invariants`` takes a matrix as sparse rows, the form the
homology relation is built in; ``smith_invariants`` reads a dense
``IntMatrix`` into that form, the one dense scan, and hands it over.
Both go through one core. It first eliminates sparsely on the +-1
entries (``_unit_eliminate``), taking each pivot off a heap keyed
(Markowitz cost, row, col) that re-costs stale keys when they are
popped, so no pivot rescans the live entries. A unit pivot divides
every entry, so it splits off an I_1 block with no remainder and no
divisibility fix. The row operations are not recorded: the cokernel is
unchanged by any invertible U, so only the column operations V are
kept, and they carry the kernel of the residual R back to that of the
matrix, as V applied to 0 + ker R. The rows of R that are all zero are
then set aside, each a free summand Z of the cokernel that puts no
condition on the kernel, and the dense Smith loop runs once, on the
nonzero rows of R only. It too records only its column operations, for
the same reason. The relation matrices of graphs are mostly 0 and +-1,
so that part of R is small.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import VerificationFailed


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, (0,) * (rows * cols))

    def get(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def diagonal(self):
        return [self.get(i, i) for i in range(min(self.rows, self.cols))]


def _min_abs_entry(a, t, rows, cols):
    """Position of the absolutely smallest nonzero entry in the (t,t) tail."""
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = a[i][j]
            if v != 0 and (best is None or abs(v) < abs(best[2])):
                best = (i, j, v)
                if abs(v) == 1:
                    return best
    return best


def smith_normal_form(m: IntMatrix):
    """Return (D, V) with V unimodular and U*m*V = D for some unimodular U.

    D is diagonal with nonnegative entries d1 | d2 | ... . Only the
    column operations are recorded, in V; the row operations are applied
    to m and forgotten, since no caller needs U: the cokernel is read off
    D and the kernel off the columns of V past the rank. Pivots are
    chosen with minimal absolute value to curb coefficient growth;
    correctness does not depend on that choice.
    """
    r, c = m.rows, m.cols
    a = m.to_rows()
    v = IntMatrix.identity(c).to_rows()

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row[dst] += q * row[src]
        for j in range(c):
            a[dst][j] += q * a[src][j]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    while t < min(r, c):
        pos = _min_abs_entry(a, t, r, c)
        if pos is None:
            break
        i, j, _ = pos
        a[t], a[i] = a[i], a[t]
        if j != t:
            swap_cols(t, j)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        dirty = False
        for i in range(t + 1, r):
            if a[i][t] != 0:
                add_row(i, t, -(a[i][t] // a[t][t]))
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, c):
            if a[t][j] != 0:
                add_col(j, t, -(a[t][j] // a[t][t]))
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # divisibility: pivot must divide every remaining entry
        p = a[t][t]
        fix = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if a[i][j] % p != 0:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            add_row(t, fix, 1)
            continue
        t += 1

    d = IntMatrix.from_rows(a) if a else IntMatrix.zeros(0, c)
    vm = IntMatrix.from_rows(v) if v else IntMatrix.zeros(0, 0)
    return d, vm


def _unit_eliminate(rows, cols):
    """Sparse elimination on the unit entries of the matrix with the
    given rows: (residual rows, basis).

    ``rows`` is a list of dicts {col: value}, nonzero values only, for a
    matrix with ``cols`` columns; the dicts are updated in place. The
    set of rows holding each column is kept beside them. While a +-1
    entry is left, the one whose key (cost, row, col), with the Markowitz
    cost (row nnz - 1) * (col nnz - 1), comes first off the heap below
    becomes the pivot: row operations, not recorded, clear its column,
    and then column operations, recorded in a sparse V kept by column,
    clear its row, which touches no other row because the column is
    already clear. The pivot row and column are dropped.

    The keys live in a heap, with no rescan of the live entries per
    pivot. Every unit entry is pushed at the start and again whenever a
    row operation writes a +-1 into it (fill-in), with its cost at that
    time. A popped key whose entry is gone or no longer a unit is
    dropped; one whose cost has changed since is pushed again with its
    current cost; one whose cost is current is the pivot. So the pivot's
    cost is exact and no greater than any key left in the heap, and ties
    go by (row, col), never by set order. A cost that has dropped since
    its key was pushed is seen when that key comes up, so the rule is
    Markowitz's up to such drops, which only the choice of pivots, never
    the result, depends on.

    A unit divides everything, so no remainder is left and no
    divisibility fix is needed: after k pivots U*m*V is I_k (up to signs
    and the order of rows and columns) beside the residual R: the rows
    left, in increasing order and empty ones included, as dicts on the
    columns left. ``basis`` maps each column left, in increasing order,
    to its column of V as {row: value}.
    """
    live = dict(enumerate(rows))
    at = [set() for _ in range(cols)]
    for i, row in live.items():
        for j in row:
            at[j].add(i)
    heap = [((len(row) - 1) * (len(at[j]) - 1), i, j)
            for i, row in live.items() for j, x in row.items()
            if x == 1 or x == -1]
    heapq.heapify(heap)
    v = {j: {j: 1} for j in range(cols)}
    while heap:
        cost, i, j = heapq.heappop(heap)
        pivot = live.get(i, {})
        s = pivot.get(j)
        if s != 1 and s != -1:
            continue
        now = (len(pivot) - 1) * (len(at[j]) - 1)
        if now != cost:
            heapq.heappush(heap, (now, i, j))
            continue
        del live[i]
        fresh = []
        for i2 in at[j] - {i}:
            row = live[i2]
            q = row[j] * s
            for j2, x in pivot.items():
                y = row.get(j2, 0) - q * x
                if y:
                    if j2 not in row:
                        at[j2].add(i2)
                    row[j2] = y
                    if y == 1 or y == -1:
                        fresh.append((i2, j2))
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
        for i2, j2 in fresh:
            heapq.heappush(heap, ((len(live[i2]) - 1) * (len(at[j2]) - 1), i2, j2))
    return list(live.values()), {j: v[j] for j in sorted(v)}


def sparse_smith_invariants(rows, cols):
    """(torsion, free rank, kernel) of the matrix with the given sparse
    rows (dicts {col: value}, nonzero values only, updated in place) and
    ``cols`` columns, with one Smith normal form of the nonzero rows of
    the residual left by unit elimination.

    ``_unit_eliminate`` gives U*m*V = I_k + R (a block sum, up to signs
    and order). U is never needed: Z^rows / im(m) is isomorphic to
    Z^rows / im(U*m*V), which is 0 on the I_k block and the cokernel of
    R on the rest. A row of R that is all zero is a free summand Z of
    that cokernel and puts no condition on the kernel, since
    Z^rows(R) / im R = Z^(zero rows) + coker(R on its nonzero rows).
    So those rows are set aside before the Smith normal form. Its
    (D, V_R) on the nonzero rows R' has D = U_R*R'*V_R, of rank r, for
    some unimodular U_R that is never built, as it changes neither the
    cokernel nor the kernel. The torsion is the diagonal entries of D
    above 1 and the free rank is rows - k - r, all the rows of R less r.
    And m*x = 0 iff (I_k + R)*(V^-1 x) = 0, that is iff y = V^-1 x is 0
    on the pivot columns and R'*y = 0 on the rest; so the kernel is V
    applied to 0 + ker R', and ker R' is spanned by the last columns of
    V_R past r. ``Lattice.from_vectors`` puts that basis in canonical
    form, which depends on the lattice only. With no columns the kernel
    is the zero lattice, and with no rows it is the full lattice.
    """
    res, basis = _unit_eliminate(rows, cols)
    left = list(basis)
    nonzero = [row for row in res if row]
    dense = IntMatrix(len(nonzero), len(left),
                      tuple(row.get(j, 0) for row in nonzero for j in left))
    d, v = smith_normal_form(dense)
    diag = d.diagonal()
    rank = sum(1 for x in diag if x != 0)
    vectors = []
    for t in range(rank, dense.cols):
        vec = [0] * cols
        for s, j in enumerate(left):
            w = v.get(s, t)
            if w:
                for i, y in basis[j].items():
                    vec[i] += w * y
        vectors.append(vec)
    return [x for x in diag if x > 1], len(res) - rank, Lattice.from_vectors(cols, vectors)


def smith_invariants(m: IntMatrix):
    """(torsion, free rank, kernel) of m: ``sparse_smith_invariants`` of
    its rows. Reading m into sparse rows is the one dense scan, made
    only for a caller that holds a dense matrix.
    """
    rows = [{j: x for j, x in enumerate(m.entries[i * m.cols:(i + 1) * m.cols]) if x}
            for i in range(m.rows)]
    return sparse_smith_invariants(rows, m.cols)


@dataclass(frozen=True)
class Lattice:
    """Subgroup of Z^n in canonical row echelon (Hermite) form.

    The basis rows have positive pivots, entries above each pivot reduced
    into [0, pivot), and strictly increasing pivot columns. This form is
    unique for a given subgroup, so structural equality decides subgroup
    equality, which the eventual-kernel chain relies on.
    """

    ambient_dim: int
    basis: tuple

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        rows = [list(v) for v in vectors if any(v)]
        for vec in rows:
            if len(vec) != ambient_dim:
                raise ValueError("vector of wrong length")
        pivot_row = 0
        for col in range(ambient_dim):
            # gcd-reduce the column below pivot_row to a single entry
            while True:
                live = [i for i in range(pivot_row, len(rows)) if rows[i][col] != 0]
                if not live:
                    break
                i0 = min(live, key=lambda i: abs(rows[i][col]))
                rows[pivot_row], rows[i0] = rows[i0], rows[pivot_row]
                done = True
                for i in range(pivot_row + 1, len(rows)):
                    if rows[i][col] != 0:
                        q = rows[i][col] // rows[pivot_row][col]
                        rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
                        if rows[i][col] != 0:
                            done = False
                if done:
                    break
            if pivot_row < len(rows) and rows[pivot_row][col] != 0:
                if rows[pivot_row][col] < 0:
                    rows[pivot_row] = [-x for x in rows[pivot_row]]
                p = rows[pivot_row][col]
                for i in range(pivot_row):
                    q = rows[i][col] // p
                    if q:
                        rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
                pivot_row += 1
        rows = [r for r in rows if any(r)]
        return cls(ambient_dim, tuple(tuple(r) for r in rows))

    @property
    def rank(self):
        return len(self.basis)

    def _pivots(self):
        out = []
        for row in self.basis:
            j = next(k for k, x in enumerate(row) if x != 0)
            out.append((j, row[j]))
        return out

    def contains(self, vector) -> bool:
        if len(vector) != self.ambient_dim:
            raise ValueError("vector of wrong length")
        v = list(vector)
        for row, (j, p) in zip(self.basis, self._pivots()):
            if v[j] % p != 0:
                return False
            q = v[j] // p
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return not any(v)


def kernel(m: IntMatrix) -> Lattice:
    """The full integer kernel {x : m*x = 0} in canonical basis."""
    return smith_invariants(m)[2]


def preimage(m: IntMatrix, lat: Lattice) -> Lattice:
    """The lattice {z in Z^cols : m*z lies in lat}."""
    if lat.ambient_dim != m.rows:
        raise ValueError("lattice ambient dimension mismatch")
    if not lat.basis:
        return kernel(m)
    # solve m*z - B^T*t = 0 and project the kernel onto the z block
    rows = []
    for i in range(m.rows):
        rows.append(m.row(i) + [-b[i] for b in lat.basis])
    k = kernel(IntMatrix.from_rows(rows))
    return Lattice.from_vectors(m.cols, [vec[:m.cols] for vec in k.basis])


def restrict_to_zero_coords(lat: Lattice, coords) -> Lattice:
    """Sublattice of vectors whose listed coordinates all vanish."""
    coords = sorted(set(coords))
    if not coords or not lat.basis:
        return lat
    rows = [[b[c] for b in lat.basis] for c in coords]
    k = kernel(IntMatrix.from_rows(rows))
    vecs = []
    for t in k.basis:
        vecs.append([sum(t[i] * lat.basis[i][j] for i in range(len(lat.basis)))
                     for j in range(lat.ambient_dim)])
    return Lattice.from_vectors(lat.ambient_dim, vecs)


def eventual_kernel(push: IntMatrix, forbidden_coords) -> Lattice:
    """Largest lattice of the chain V0 = {0}, V_{i+1} = {z : z|forbidden = 0, push*z in V_i}.

    A vector lies in the result iff iterated pushing annihilates it while
    keeping the forbidden coordinates zero at every step. The chain ascends
    through saturated sublattices, so each strict step raises the rank and
    the chain stabilizes within dim + 1 iterations; running past them is a
    broken invariant, and VerificationFailed names dim and the rank reached.
    """
    if push.rows != push.cols:
        raise ValueError("push matrix must be square")
    dim = push.rows
    v = Lattice.zero(dim)
    for _ in range(dim + 1):
        w = restrict_to_zero_coords(preimage(push, v), forbidden_coords)
        if w == v:
            return v
        v = w
    raise VerificationFailed(
        f"eventual-kernel chain not stable within {dim + 1} iterations: "
        f"dim={dim} rank={v.rank}")
