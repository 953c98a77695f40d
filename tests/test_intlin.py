import random

import pytest

from ggt import intlin
from ggt.errors import VerificationFailed
from ggt.intlin import (IntMatrix, Lattice, eventual_kernel, kernel,
                        preimage, restrict_to_zero_coords, smith_invariants,
                        smith_normal_form)

from helpers import (dense_smith_invariants, determinant,
                     determinantal_invariant_factors, full_lattice, mat_mul,
                     mat_vec, minors_gcd, naive_invariant_factors)


def check_smith_form(m, d, v):
    """Assert that (d, v) is a Smith normal form of m and return the
    diagonal of d.

    No row transform is given, so the checks prove that one exists: v is
    unimodular, d is diagonal with d_1 | d_2 | ..., and m*v = [W*diag(d) | 0]
    with the r x r minors of W = [w_0 ... w_(r-1)] coprime, r the rank.
    Such a W extends to a unimodular matrix, so some unimodular U has
    U*W = [I_r; 0] and then U*m*v = d."""
    assert determinant(v) in (1, -1)
    assert (d.rows, d.cols) == (m.rows, m.cols)
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d.get(i, j) == 0
    diag = d.diagonal()
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    r = sum(1 for x in diag if x != 0)
    mv = mat_mul(m, v)
    assert all(mv.get(i, j) == 0 for i in range(m.rows) for j in range(r, m.cols))
    w = []
    for j in range(r):
        col = [mv.get(i, j) for i in range(m.rows)]
        assert all(x % diag[j] == 0 for x in col)
        w.append([x // diag[j] for x in col])
    wm = IntMatrix(m.rows, r, tuple(w[j][i] for i in range(m.rows) for j in range(r)))
    assert minors_gcd(wm, r) == 1
    return diag


def snf_check(rows):
    m = IntMatrix.from_rows(rows)
    return check_smith_form(m, *smith_normal_form(m))


def random_matrices(seed, count, sides=range(1, 7), entries=range(-6, 7)):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.choice(sides), rng.choice(sides)
        yield [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]


def test_snf_examples():
    assert snf_check([[2]]) == [2]
    assert snf_check([[1, 0], [0, 0]]) == [1, 0]
    assert snf_check([[3, 3]]) == [3]


def test_snf_random():
    for m in random_matrices(7, 60):
        diag = snf_check(m)
        naive = naive_invariant_factors(m)
        assert [x for x in diag if x != 0] == [x for x in naive if x != 0]


def test_snf_check_rejects_a_doubled_first_factor():
    # a wrong Smith form with the right V fails the check whenever
    # doubling d_1 changes it, that is whenever d_1 != 0
    failed = 0
    for rows in random_matrices(29, 40):
        m = IntMatrix.from_rows(rows)
        d, v = smith_normal_form(m)
        if d.get(0, 0) == 0:
            continue
        entries = list(d.entries)
        entries[0] *= 2
        with pytest.raises(AssertionError):
            check_smith_form(m, IntMatrix(d.rows, d.cols, tuple(entries)), v)
        failed += 1
    assert failed > 30


def test_naive_oracle_clears_the_pivot_column_again():
    # clearing row t by column swaps refills column t below the pivot;
    # the determinantal divisors give the true factors
    a = [[-3, -1, 5, 4], [1, 0, -5, 1], [2, -3, -5, -4], [-5, 4, -2, 3],
         [-2, 3, -3, -5]]
    b = [[-1, -4, 5, 2, 3], [4, 4, 5, -6, 1], [6, 4, 6, 2, 0], [0, 0, 0, -5, 1],
         [4, 0, -6, -3, -5]]
    for rows, factors in ((a, [1, 1, 1, 9]), (b, [1, 1, 1, 2, 788])):
        assert determinantal_invariant_factors(IntMatrix.from_rows(rows)) == factors
        assert naive_invariant_factors(rows) == factors
        assert snf_check(rows) == factors


def test_invariant_factors_match_determinantal_divisors():
    for rows in random_matrices(31, 200):
        factors = determinantal_invariant_factors(IntMatrix.from_rows(rows))
        assert [x for x in snf_check(rows) if x != 0] == factors
        assert [x for x in naive_invariant_factors(rows) if x != 0] == factors


def test_kernel_examples():
    assert kernel(IntMatrix.from_rows([[1, -1]])).basis == ((1, 1),)
    assert kernel(IntMatrix.identity(2)).basis == ()
    assert kernel(IntMatrix.from_rows([[0, 0]])).basis == ((1, 0), (0, 1))
    # no columns: the zero lattice; no rows: the full lattice
    assert kernel(IntMatrix.zeros(2, 0)) == Lattice.zero(0)
    assert kernel(IntMatrix.zeros(0, 3)) == full_lattice(3)


def test_kernel_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        m = IntMatrix.from_rows([[rng.randrange(-3, 4) for _ in range(cols)]
                                 for _ in range(rows)])
        lat = kernel(m)
        for vec in lat.basis:
            assert all(x == 0 for x in mat_vec(m, list(vec)))
        # every small kernel vector lies in the lattice
        def vectors(n):
            if n == 0:
                yield []
                return
            for rest in vectors(n - 1):
                for x in range(-5, 6):
                    yield [x] + rest
        if cols <= 3:
            for v in vectors(cols):
                if all(x == 0 for x in mat_vec(m, v)):
                    assert lat.contains(v)


def test_cokernel_examples():
    assert smith_invariants(IntMatrix.from_rows([[3]]))[:2] == ([3], 0)
    assert smith_invariants(IntMatrix.zeros(2, 0))[:2] == ([], 2)
    assert smith_invariants(IntMatrix.zeros(2, 1))[:2] == ([], 2)


def test_cokernel_unimodular_invariance():
    rng = random.Random(13)
    for _ in range(25):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        m = IntMatrix.from_rows([[rng.randrange(-4, 5) for _ in range(cols)]
                                 for _ in range(rows)])
        base = smith_invariants(m)[:2]
        # random elementary row and column operations
        a = m.to_rows()
        for _ in range(6):
            if rng.random() < 0.5 and rows > 1:
                i, j = rng.sample(range(rows), 2)
                q = rng.randrange(-2, 3)
                a[i] = [x + q * y for x, y in zip(a[i], a[j])]
            elif cols > 1:
                i, j = rng.sample(range(cols), 2)
                q = rng.randrange(-2, 3)
                for row in a:
                    row[i] += q * row[j]
        assert smith_invariants(IntMatrix.from_rows(a))[:2] == base


def assert_matches_dense(m):
    torsion, free, ker = smith_invariants(m)
    assert (torsion, free, ker) == dense_smith_invariants(m)
    assert ker.ambient_dim == m.cols


def test_unit_elimination_matches_dense_smith():
    rng = random.Random(23)
    for trial in range(400):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        # mostly zeros and units, with a few larger entries
        pool = [0] * 6 + [1, -1] * 3 + [2, -3]
        m = IntMatrix(rows, cols, tuple(rng.choice(pool)
                                        for _ in range(rows * cols)))
        assert_matches_dense(m)
    for trial in range(150):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = IntMatrix(rows, cols, tuple(rng.choice([0, 0, 2, -2, 3, -4, 6])
                                        for _ in range(rows * cols)))
        # no unit entry: nothing is eliminated and the residual is m,
        # row for row in sparse form, with the identity as its basis
        rows = [{j: x for j, x in enumerate(m.row(i)) if x}
                for i in range(rows)]
        res, basis = intlin._unit_eliminate([dict(r) for r in rows], cols)
        assert res == rows
        assert basis == {j: {j: 1} for j in range(cols)}
        assert_matches_dense(m)
    for n in range(4):
        assert_matches_dense(IntMatrix.zeros(0, n))
        assert_matches_dense(IntMatrix.zeros(n, 0))
        assert smith_invariants(IntMatrix.zeros(0, n))[2] == full_lattice(n)
        assert smith_invariants(IntMatrix.zeros(n, 0))[:2] == ([], n)


def test_lattice_canonical_and_membership():
    lat = Lattice.from_vectors(3, [[2, 0, 0], [0, 3, 1], [2, 3, 1]])
    same = Lattice.from_vectors(3, [[2, 3, 1], [0, 3, 1], [4, 0, 0]])
    assert lat == same
    assert lat.contains([2, 0, 0])
    assert lat.contains([2, 3, 1])
    assert not lat.contains([1, 0, 0])
    assert Lattice.zero(3).contains([0, 0, 0])
    assert not Lattice.zero(3).contains([0, 1, 0])


def test_preimage_and_coordinate_restriction():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    lat = Lattice.from_vectors(2, [[4, 0]])
    pre = preimage(m, lat)
    assert pre.contains([2, 0])
    assert not pre.contains([1, 0])
    assert not pre.contains([0, 1])
    sub = restrict_to_zero_coords(full_lattice(2), [0])
    assert sub.contains([0, 5]) and not sub.contains([1, 0])


def test_eventual_kernel_examples():
    z2 = IntMatrix.zeros(2, 2)
    assert eventual_kernel(z2, set()) == full_lattice(2)
    assert eventual_kernel(IntMatrix.identity(2), set()) == Lattice.zero(2)
    assert eventual_kernel(IntMatrix.from_rows([[2]]), set()) == Lattice.zero(1)


def test_eventual_kernel_chain_property():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 4)
        push = IntMatrix.from_rows([[rng.randrange(-2, 3) for _ in range(n)]
                                    for _ in range(n)])
        forbidden = [i for i in range(n) if rng.random() < 0.3]
        lat = eventual_kernel(push, forbidden)
        for vec in lat.basis:
            v = list(vec)
            for _ in range(4 * n + 2):
                assert all(v[c] == 0 for c in forbidden)
                v = mat_vec(push, v)
                if all(x == 0 for x in v):
                    break
            assert all(x == 0 for x in v)


def shift_matrix(n):
    """e_j -> e_{j+1}, e_n -> 0: nilpotent of index n."""
    return IntMatrix.from_rows([[1 if i == j + 1 else 0 for j in range(n)]
                                for i in range(n)])


def test_eventual_kernel_limit(monkeypatch):
    # the n x n shift needs exactly n + 1 iterations: n strict steps, each
    # raising the rank by one, and one more that finds the chain stable
    real = intlin.preimage
    for n in range(1, 9):
        calls = []
        monkeypatch.setattr(intlin, "preimage",
                            lambda m, lat: calls.append(lat) or real(m, lat))
        assert eventual_kernel(shift_matrix(n), set()) == full_lattice(n)
        assert len(calls) == n + 1
    # a chain that never stands still breaks the invariant and is refused
    grow = iter(range(1, 100))
    monkeypatch.setattr(intlin, "preimage", lambda m, lat: Lattice.from_vectors(
        m.cols, [[next(grow)] + [0] * (m.cols - 1)]))
    with pytest.raises(VerificationFailed, match="dim=2 rank=1"):
        eventual_kernel(IntMatrix.zeros(2, 2), set())
    assert next(grow) == 4  # refused after exactly dim + 1 iterations


def test_eventual_kernel_chain_length_bound(monkeypatch):
    # every stage of the chain is recorded; a strict step must raise the
    # rank, so at most dim + 1 stages are computed
    real = intlin.restrict_to_zero_coords
    rng = random.Random(17)
    longest = 0
    for trial in range(300):
        n = rng.randrange(1, 7)
        if trial % 2:
            rows = [[rng.randrange(-2, 3) if j < i else 0 for j in range(n)]
                    for i in range(n)]
        else:
            rows = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
        forbidden = [i for i in range(n) if rng.random() < 0.2]
        chain = [Lattice.zero(n)]
        monkeypatch.setattr(intlin, "restrict_to_zero_coords",
                            lambda lat, c: chain.append(real(lat, c)) or chain[-1])
        result = eventual_kernel(IntMatrix.from_rows(rows), forbidden)
        steps = len(chain) - 1
        assert steps <= n + 1 and chain[-1] == chain[-2] == result
        for before, after in zip(chain[:-2], chain[1:-1]):
            assert after.rank > before.rank
            assert all(after.contains(vec) for vec in before.basis)
        longest = max(longest, steps)
    assert longest == 7  # the bound dim + 1 is reached, at dim 6
