import random

import pytest

from ggt.errors import (CriteriaFailed, NegativeLevel, NotEssential,
                        SourcePresent)
from ggt.fixtures import (cycle_graph, emitter_two_loops, infinite_rose,
                          mixed_graph, rose)
from ggt.fullgroup import (Block, Element, compose, graded_partition, inverse,
                           lag_parts, make_block, support, transposition,
                           validate_element)
from ggt.graphs import Graph, move_s, move_t
from ggt.homology import (ClassVector, abelianization_report, class_of,
                          classes_equal, homology, index, is_zero,
                          relation_matrix, shift, vanishing_level)
from ggt import intlin
from ggt.intlin import IntMatrix, eventual_kernel
from ggt.pathspace import Clopen, Path, Piece, parse_clopen, parse_path

from helpers import (dense_smith_invariants, mat_vec, naive_invariant_factors,
                     pairwise_intersect, random_element, random_transposition,
                     random_twin_graph, reference_graded_partition,
                     reference_index)

E2 = rose(2)
EINF = infinite_rose()


def blk(g, mu, punct, nu):
    return make_block(g, parse_path(g, mu), punct, parse_path(g, nu))


def elem(g, *specs):
    return validate_element(g, [blk(g, m, f, n) for (m, f, n) in specs])


def alpha0():
    return elem(E2, ("a", [], "a.a"), ("b.a", [], "a.b"), ("b.b", [], "b"))


def test_homology_fixtures():
    h = homology(EINF)
    assert (h.h0_torsion, h.h0_free_rank, h.h1_rank) == ((), 1, 0)
    h = homology(mixed_graph())
    assert (h.h0_torsion, h.h0_free_rank, h.h1_rank) == ((3,), 2, 1)
    for n in range(1, 6):
        h = homology(cycle_graph(n))
        assert (h.h0_torsion, h.h0_free_rank, h.h1_rank) == ((), 1, 1)
    for n in range(2, 7):
        h = homology(rose(n))
        expect = () if n == 2 else (n - 1,)
        assert (h.h0_torsion, h.h0_free_rank, h.h1_rank) == (expect, 0, 0)


def test_homology_runs_one_smith_normal_form(monkeypatch):
    real, calls = intlin.smith_normal_form, []
    monkeypatch.setattr(intlin, "smith_normal_form",
                        lambda m: calls.append(m) or real(m))
    graphs = [EINF, E2, rose(4), cycle_graph(3), mixed_graph(),
              emitter_two_loops(), move_t(EINF, "v"),
              Graph("g", ["a", "b"], [("e", "a", "b")]),
              Graph("h", ["a", "b"], [], [("F", "a", "b")])]
    for g in graphs:
        calls.clear()
        h = homology(g)
        assert len(calls) == 1
        m = relation_matrix(g)
        diag = naive_invariant_factors(m.to_rows())
        rank = sum(1 for x in diag if x != 0)
        assert list(h.h0_torsion) == [x for x in diag if x > 1]
        assert (h.h0_free_rank, h.h1_rank) == (m.rows - rank, m.cols - rank)
        for vec in h.h1_kernel_basis:
            assert not any(mat_vec(m, list(vec)))


def test_homology_allows_sinks():
    g = Graph("g", ["a", "b"], [("e", "a", "b")])
    h = homology(g)
    assert (h.h0_torsion, h.h0_free_rank, h.h1_rank) == ((), 1, 0)


def test_cycle_matrix_against_naive_reduction():
    for n in range(1, 6):
        m = relation_matrix(cycle_graph(n))
        diag = naive_invariant_factors(m.to_rows())
        torsion, free = intlin.smith_invariants(m)[:2]
        assert [x for x in diag if x > 1] == list(torsion)
        assert free == n - len([x for x in diag if x != 0])


def test_relation_matrices_match_dense_smith():
    # random graphs of each size, once with sinks (probability 0.1) and
    # edge families (0.2) and once with every vertex regular, where the
    # matrix is square and torsion and a kernel occur
    rng = random.Random(227)
    seen = {"torsion": 0, "kernel": 0}
    for n in (10, 10, 20, 20, 50, 50, 100, 200):
        for p_sink, p_family in ((0.1, 0.2), (0.0, 0.0)):
            verts = [f"v{j}" for j in range(n)]
            edges, families = [], []
            for v in verts:
                if rng.random() < p_sink:
                    continue
                for _ in range(rng.randrange(1, 4)):
                    edges.append((f"e{len(edges)}", v, rng.choice(verts)))
                if rng.random() < p_family:
                    families.append((f"F{len(families)}", v, rng.choice(verts)))
            g = Graph(f"g{n}", verts, edges, families)
            m = relation_matrix(g)
            # entry (u, v): [u = v] minus the number of edges from v to u
            regular = [v for v in verts if g.is_regular(v)]
            assert m.to_rows() == [
                [(u == v) - sum(1 for (_, s, r) in edges if s == v and r == u)
                 for v in sorted(regular)] for u in sorted(verts)]
            torsion, free, ker = intlin.smith_invariants(m)
            assert (torsion, free, ker) == dense_smith_invariants(m)
            seen["torsion"] += bool(torsion)
            seen["kernel"] += bool(ker.rank)
    assert seen["torsion"] >= 3 and seen["kernel"] >= 3, seen


def test_class_of_examples():
    assert str(class_of(parse_clopen(E2, "Z(a.a)"))) == "(v,2):+1"
    got = class_of(parse_clopen(EINF, r"Z(@v \ L#1)"))
    assert str(got) == "(v,0):+1 (v,1):-1"
    # the raw two-piece decomposition contributes one atom per piece
    raw = Clopen(E2, (Piece(Path("v", ("a",))), Piece(Path("v", ("b",)))))
    assert str(class_of(raw)) == "(v,1):+2"
    assert classes_equal(class_of(raw), class_of(parse_clopen(E2, "Z(@v)")))


def test_class_of_rejects_sources():
    with pytest.raises(SourcePresent):
        class_of(Clopen.full(mixed_graph()))


def test_shift_examples():
    c = ClassVector.atom(E2, "v", 2)
    assert str(shift(c, -1)) == "(v,1):+1"
    assert shift(c, 0) == c
    with pytest.raises(NegativeLevel):
        shift(ClassVector.atom(E2, "v", 0), -1)
    # the kernel grading is the only one: no vector has a negative level
    with pytest.raises(NegativeLevel):
        ClassVector.of(EINF, [(("v", -2), 1)])


def test_is_zero_examples():
    assert is_zero(ClassVector.of(E2, [(("v", 0), 1), (("v", 1), -2)]))
    assert not is_zero(ClassVector.of(E2, [(("v", 0), 1), (("v", 1), -1)]))
    assert is_zero(ClassVector.zero(E2))
    g = mixed_graph()
    assert not is_zero(ClassVector.atom(g, "c", 0))


def test_relation_soundness():
    for g in (E2, EINF, emitter_two_loops(), cycle_graph(3)):
        for v in sorted(g.vertices):
            for n in range(0, 4):
                if g.is_regular(v):
                    items = [((v, n), 1)]
                    items += [((g.range(e), n + 1), -1)
                              for e in g.out_concrete(v)]
                    assert is_zero(ClassVector.of(g, items))
                else:
                    assert not is_zero(ClassVector.atom(g, v, n))


def test_phi_naturality_on_lag_one_bisection():
    # a hand-built lag-1 bisection: class of the range is phi of the
    # class of the source
    u_blocks = [blk(E2, "a", [], "@v")]
    src = Clopen.of(E2, [b.source_piece() for b in u_blocks])
    rng_ = Clopen.of(E2, [b.range_piece() for b in u_blocks])
    assert classes_equal(class_of(rng_), shift(class_of(src), 1))
    w_blocks = [blk(EINF, "L#2.L#1", [], "L#1")]
    src = Clopen.of(EINF, [b.source_piece() for b in w_blocks])
    rng_ = Clopen.of(EINF, [b.range_piece() for b in w_blocks])
    assert classes_equal(class_of(rng_), shift(class_of(src), 1))


def test_index_examples():
    value = index(alpha0())
    assert value.zero and str(value.vector) == "0"
    assert index(Element.identity(E2)).zero
    t12 = transposition(EINF, [blk(EINF, "L#1", [], "L#2")])
    assert index(t12).zero
    c2 = cycle_graph(2)
    sw = transposition(c2, [blk(c2, "x2", [], "@u1")])
    assert index(sw).zero
    rot = elem(c2, ("x2", [], "@u1"), ("@u1", [], "x2"))
    assert index(rot).zero


def test_index_nonzero_witness():
    pet = emitter_two_loops()
    e = elem(pet, ("@x", [], "p"), ("r", [], "@y"), ("t", [], "q"))
    value = index(e)
    assert not value.zero
    assert str(value.vector) == "(x,0):+1 (y,0):-1"
    # the class still lies in the kernel of (id - phi)
    assert is_zero(value.vector.sub(shift(value.vector, 1)))


def test_index_requires_essential():
    g = mixed_graph()
    with pytest.raises(NotEssential):
        index(Element.identity(g))


def test_index_additivity_and_kernel_membership():
    rng = random.Random(43)
    for g in (E2, EINF):
        for _ in range(10):
            f = random_element(g, rng, 3)
            h = random_element(g, rng, 3)
            vf, vh, vfh = index(f), index(h), index(compose(f, h))
            assert is_zero(vfh.vector.sub(vf.vector.add(vh.vector)))
            assert is_zero(vf.vector.sub(shift(vf.vector, 1)))
            assert is_zero(index(inverse(f)).vector.add(vf.vector))


def test_transpositions_have_zero_index():
    rng = random.Random(47)
    for g in (E2, EINF):
        for _ in range(20):
            assert index(random_transposition(g, rng)).zero


def test_nonempty_clopen_has_nonzero_class():
    rng = random.Random(49)
    from helpers import random_clopen
    for g in (E2, EINF):
        for _ in range(20):
            a = random_clopen(g, rng)
            assert a.is_empty() == is_zero(class_of(a))


def test_abelianization_notes():
    assert abelianization_report(EINF).abelianization_note == \
        "Z^0 (+) (Z/2)^N, 0 <= N <= 1"
    assert abelianization_report(mixed_graph()).abelianization_note == \
        "Z^1 (+) (Z/2)^N, 0 <= N <= 2"
    assert abelianization_report(E2).abelianization_note == "trivial"
    with pytest.raises(CriteriaFailed):
        abelianization_report(cycle_graph(2))


def random_class_vector(g, rng, span=3, terms=4):
    items = []
    for _ in range(rng.randrange(0, terms + 1)):
        v = rng.choice(sorted(g.vertices))
        items.append(((v, rng.randrange(0, span + 1)), rng.randrange(-3, 4)))
    return ClassVector.of(g, items)


def test_zero_test_oracle_free_atoms():
    # the one-vertex infinite emitter admits no rewriting at all, so a
    # vector vanishes exactly when it is literally empty
    rng = random.Random(73)
    for _ in range(200):
        c = random_class_vector(EINF, rng)
        assert is_zero(c) == (not c.terms)


def test_zero_test_oracle_weighted_sums():
    # with k loops at one vertex the atom (v, n) carries weight k^(-n);
    # clearing denominators gives an exact integer oracle
    rng = random.Random(79)
    for k in (2, 3, 5):
        g = rose(k)
        for _ in range(150):
            c = random_class_vector(g, rng)
            if not c.terms:
                assert is_zero(c)
                continue
            top = c.max_level()
            weighted = sum(coeff * k ** (top - n)
                           for (v, n), coeff in c.items())
            assert is_zero(c) == (weighted == 0)


def test_zero_test_oracle_cycle_points():
    # over a cycle graph every cylinder is a single point; the atom
    # (v, n) is the indicator of the point based n steps before v
    rng = random.Random(83)
    for n_verts in (2, 3, 4):
        g = cycle_graph(n_verts)
        order = sorted(g.vertices)
        pos = {v: i for i, v in enumerate(order)}
        for _ in range(150):
            c = random_class_vector(g, rng)
            sums = [0] * n_verts
            for (v, n), coeff in c.items():
                sums[(pos[v] - n) % n_verts] += coeff
            assert is_zero(c) == all(x == 0 for x in sums)


def test_zero_test_with_nontrivial_eventual_kernel():
    # a and b push to the same vector, so their difference dies in one
    # step and the eventual kernel is a nontrivial lattice
    g = Graph("diamond", ["a", "b", "c"],
              [("ac", "a", "c"), ("bc", "b", "c"),
               ("ca", "c", "a"), ("cb", "c", "b")])
    assert is_zero(ClassVector.of(g, [(("a", 0), 1), (("b", 0), -1)]))
    assert not is_zero(ClassVector.of(g, [(("a", 0), 1), (("c", 0), -1)]))
    assert is_zero(ClassVector.of(g, [(("a", 0), 1), (("c", 1), -1)]))
    # the relation matrix is unimodular here, so both groups vanish
    h = homology(g)
    assert (h.h0_torsion, h.h0_free_rank, h.h1_rank) == ((), 0, 0)


def pushdown_lattice(g):
    """The eventual kernel of the pushdown matrix: column v (regular)
    holds the successor counts of v, singular columns are zero, and the
    singular coordinates are forbidden."""
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    rows = [[0] * len(verts) for _ in verts]
    for v in verts:
        if g.is_regular(v):
            for e in g.out_concrete(v):
                rows[idx[g.range(e)]][idx[v]] += 1
    forbidden = [i for i, v in enumerate(verts) if g.is_singular(v)]
    return eventual_kernel(IntMatrix.from_rows(rows), forbidden)


def lattice_is_zero(c, lattice):
    """The zero test through the lattice: rewrite regular atoms up to
    the top level, a singular coefficient below it is nonzero, and the
    top-level vector must lie in the eventual kernel."""
    if not c.terms:
        return True
    g = c.graph
    verts = sorted(g.vertices)
    top = c.max_level()
    by_level = {}
    for (v, n), x in c.items():
        by_level.setdefault(n, {})[v] = x
    for n in range(c.min_level(), top):
        for v, x in sorted(by_level.get(n, {}).items()):
            if x == 0:
                continue
            if g.is_singular(v):
                return False
            nxt = by_level.setdefault(n + 1, {})
            for e in g.out_concrete(v):
                nxt[g.range(e)] = nxt.get(g.range(e), 0) + x
    return lattice.contains([by_level.get(top, {}).get(v, 0) for v in verts])


def random_twin_vector(g, rng, span=3):
    """A sum of rewriting relations, twin differences (v1, n) - (v2, n),
    false relations at the emitter v0 and stray atoms."""
    items = []
    for _ in range(rng.randrange(1, 4)):
        n, x = rng.randrange(0, span + 1), rng.choice((-2, -1, 1, 2))
        kind = rng.random()
        if kind < 0.7:
            v = rng.choice(g.regular_vertices()) if kind < 0.35 else "v0"
            items.append(((v, n), x))
            items += [((g.range(e), n + 1), -x) for e in g.out_concrete(v)]
        elif kind < 0.9:
            items += [(("v1", n), x), (("v2", n), -x)]
        else:
            items.append(((rng.choice(sorted(g.vertices)), n), x))
    return ClassVector.of(g, items)


def test_push_zero_test_agrees_with_the_lattice():
    # graphs with twins have a nontrivial eventual kernel, so some zero
    # vectors die only past their top level; the false emitter relations
    # die only when a singular atom is pushed
    rng = random.Random(103)
    seen = {"zero": 0, "nonzero": 0, "past_top": 0}
    for _ in range(40):
        g = random_twin_graph(rng)
        lattice = pushdown_lattice(g)
        for _ in range(30):
            c = random_twin_vector(g, rng)
            level = vanishing_level(c)
            assert is_zero(c) == lattice_is_zero(c, lattice) == (level is not None)
            if level is None:
                seen["nonzero"] += 1
                continue
            seen["zero"] += 1
            if c.terms:
                top = c.max_level()
                assert top <= level <= top + len(g.vertices)
                seen["past_top"] += level > top
    assert min(seen.values()) >= 100, seen


def test_index_on_random_twin_graphs():
    # transpositions, hence their products, have zero index and the
    # index is additive, over graphs whose zero test can need pushes
    # past the top level
    rng = random.Random(107)
    for _ in range(20):
        g = random_twin_graph(rng)
        for _ in range(10):
            assert index(random_transposition(g, rng)).zero
        f = random_element(g, rng, 2)
        h = random_element(g, rng, 2)
        vf, vh, vfh = index(f), index(h), index(compose(f, h))
        assert is_zero(vfh.vector.sub(vf.vector.add(vh.vector)))
        assert vf.zero and vh.zero and vfh.zero


def test_moves_leave_homology_unchanged():
    # move (T) gives an isomorphic groupoid and move (S) a Kakutani
    # equivalent one, so the H0 invariant factors, the H0 free rank and
    # the H1 rank cannot change
    def invariants(g):
        h = homology(g)
        return h.h0_torsion, h.h0_free_rank, h.h1_rank

    def regular_sources(g):
        return [v for v in sorted(g.vertices)
                if g._incoming[v] == 0 and g.is_regular(v)]

    rng = random.Random(211)
    graphs = [infinite_rose(), emitter_two_loops(), mixed_graph(), rose(2),
              rose(3), cycle_graph(3)]
    graphs += [random_twin_graph(rng) for _ in range(30)]
    cases = {"T": 0, "S": 0}
    for g in graphs:
        want = invariants(g)
        if len(g.strongly_connected_components()) == 1:
            for w in sorted(g.vertices):
                if g.is_infinite_emitter(w):
                    assert invariants(move_t(g, w)) == want
                    assert invariants(move_t(move_t(g, w), w)) == want
                    cases["T"] += 2
        # regular sources s0, s1, ... feed g and each other, s_i only
        # into later ones, so move (S) peels them off again
        added = [f"s{i}" for i in range(rng.randrange(1, 5))]
        edges = list(g.edges)
        for i, s in enumerate(added):
            for j in range(rng.randrange(1, 4)):
                r = rng.choice(sorted(g.vertices) + added[i + 1:])
                edges.append((f"{s}e{j}", s, r))
        fed = Graph(g.name, list(g.vertices) + added, edges, g.families)
        assert invariants(fed) == want
        while regular_sources(fed):
            for v in regular_sources(fed):
                assert invariants(move_s(fed, v)) == want
                cases["S"] += 1
            fed = move_s(fed, regular_sources(fed)[0])
    assert cases["T"] >= 60 and cases["S"] >= 100, cases


def test_lag_parts_match_the_s0_references():
    # graded_partition builds S(0) as the complement of the nonzero-lag
    # sources and index skips S(0); both land on the reference forms,
    # which build S(0) from every source, so `ggt partition` and
    # `ggt index` print the same bytes
    rng = random.Random(1801)
    pet = emitter_two_loops()
    # the nonzero-index witness of test_index_nonzero_witness
    shift_xy = elem(pet, ("@x", [], "p"), ("r", [], "@y"), ("t", [], "q"))
    long_lags = nonzero = 0
    for g, essential in ((E2, True), (EINF, True), (pet, True),
                         (mixed_graph(), False)):
        for i in range(25):
            e = random_element(g, rng, rng.randrange(1, 4), max_len=3)
            if g is pet and i % 2:
                e = compose(e, shift_xy)
            ref = reference_graded_partition(e)
            assert graded_partition(e).levels == ref.levels
            parts = lag_parts(e)
            assert list(parts) == sorted(parts)
            assert {k: c for k, c in parts.items() if k} == \
                {k: c for k, c in ref.levels if k}
            # the lag-0 part is the level-0 region the factorization routes
            assert parts.get(0, Clopen.empty(g)).pieces == \
                pairwise_intersect(ref.part(0), support(e)).pieces
            long_lags += any(abs(k) >= 2 for k in ref.keys())
            if not essential:
                with pytest.raises(NotEssential):
                    index(e)
                continue
            got, want = index(e), reference_index(e)
            assert (str(got.vector), got.zero) == (str(want.vector), want.zero)
            nonzero += not got.zero
    assert long_lags >= 10 and nonzero >= 5
