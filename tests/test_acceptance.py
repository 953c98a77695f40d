"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All checks are exact (integer arithmetic end to end); the only
tolerances are the stated wall-clock budgets.
"""

import random
import time
from collections import Counter

from ggt.factor import af_factor, factor, find_bisection
from ggt.fixtures import (cycle_graph, emitter_two_loops, infinite_rose,
                          mixed_graph, rose)
from ggt.fullgroup import (Block, Element, bisection_range,
                           bisection_source, compose, compose_all,
                           doubling_bisections, graded_partition, image_of,
                           inverse, make_block, support, transposition,
                           validate_element)
from ggt.homology import class_of, homology, index, is_zero, shift
from ggt.pathspace import Clopen, Path, parse_path

from helpers import (acts_pointwise, member_set, mutate_clopen,
                     point_family, random_balanced_table, random_clopen,
                     random_element, random_transposition)

E2 = rose(2)
EINF = infinite_rose()


def report(criterion, text):
    print(f"\nacceptance {criterion}: PASS ({text})")


def test_criterion_1_homology_fixtures():
    budgets = []

    def check(g, torsion, free, h1):
        start = time.monotonic()
        h = homology(g)
        budgets.append(time.monotonic() - start)
        assert (list(h.h0_torsion), h.h0_free_rank, h.h1_rank) == \
            (torsion, free, h1)

    check(infinite_rose(), [], 1, 0)          # H0 = Z, H1 = 0
    check(mixed_graph(), [3], 2, 1)           # H0 = Z^2 + Z/3, H1 = Z
    for n in range(1, 6):
        check(cycle_graph(n), [], 1, 1)       # H0 = Z, H1 = Z
    for n in range(2, 7):
        check(rose(n), [] if n == 2 else [n - 1], 0, 0)
    # independent naive reduction cross-check for the rose relation
    from helpers import naive_invariant_factors, relation_matrix
    for n in range(2, 7):
        diag = naive_invariant_factors(relation_matrix(rose(n)).to_rows())
        assert [x for x in diag if x > 1] == ([] if n == 2 else [n - 1])
    assert all(b < 1.0 for b in budgets)
    report(1, f"13 fixtures exact, max {max(budgets):.3f}s")


def test_criterion_2_index_suite():
    rng = random.Random(101)
    for i in range(200):
        g = EINF if i % 2 == 0 else E2
        t = random_transposition(g, rng, max_len=2)
        assert index(t).zero
    pairs = 0
    for i in range(100):
        g = EINF if i % 2 == 0 else E2
        f = random_element(g, rng, 2, max_len=2)
        h = random_element(g, rng, 2, max_len=2)
        vf, vh, vfh = index(f), index(h), index(compose(f, h))
        assert is_zero(vfh.vector.sub(vf.vector.add(vh.vector)))
        for v in (vf, vh, vfh):
            assert is_zero(v.vector.sub(shift(v.vector, 1)))
        pairs += 1
    # the full group over a cycle graph is finite; the index map into a
    # torsion-free group must vanish on all of it
    c2 = cycle_graph(2)
    sw = transposition(c2, [make_block(c2, parse_path(c2, "x2"), (),
                                       parse_path(c2, "@u1"))])
    for e in (Element.identity(c2), sw, compose(sw, sw), compose(sw, sw)):
        assert index(e).zero
    report(2, f"200 transpositions, {pairs} additive pairs, C2 exhausted")


def test_criterion_3_graded_partition_lemmas():
    rng = random.Random(103)
    # image lemma on 100 instances
    for i in range(100):
        g = EINF if i % 2 == 0 else E2
        e = random_element(g, rng, 3, max_len=2)
        part = graded_partition(e)
        ipart = graded_partition(inverse(e))
        for k, c in part.levels:
            assert image_of(e, c).equal(ipart.part(-k))
    # conjugation lemma on 100 instances: tau from a constant-lag
    # bisection whose source is the support
    done = 0
    while done < 100:
        factors = []
        for _ in range(2):
            t = random_transposition(EINF, rng, max_len=2)
            blocks = [Block(Path("v", ("L#1",) + b.mu.edges), b.punctures,
                            Path("v", ("L#1",) + b.nu.edges))
                      for b in t.blocks]
            factors.append(validate_element(EINF, blocks))
        alpha = compose_all(factors)
        if alpha.is_identity():
            continue
        sup = support(alpha)
        used = [4]
        for p in sup.pieces:
            for e in p.mu.edges + p.punctures:
                used.append(int(e.split("#")[1]))
        base = max(used) + 1
        v_blocks = [Block(Path("v", ("L#2", f"L#{base + i}") + p.mu.edges),
                          p.punctures, p.mu)
                    for i, p in enumerate(sup.pieces)]
        tau = transposition(EINF, v_blocks)
        beta = compose_all([tau, alpha, tau])
        assert support(beta).equal(bisection_range(EINF, v_blocks))
        bpart, apart = graded_partition(beta), graded_partition(alpha)
        for k in apart.keys():
            if k != 0:
                assert bpart.part(k).equal(image_of(tau, apart.part(k)))
        done += 1
    # equal partitions force a length-balanced quotient
    for _ in range(50):
        alpha = random_element(EINF, rng, 3, max_len=2)
        h = random_element(EINF, rng, 2, max_len=2, balanced=True)
        beta = compose(h, alpha)
        apart, bpart = graded_partition(alpha), graded_partition(beta)
        assert apart.keys() == bpart.keys()
        for k in apart.keys():
            assert apart.part(k).equal(bpart.part(k))
        quotient = compose(beta, inverse(alpha))
        assert all(b.lag() == 0 for b in quotient.blocks)
    report(3, "100 + 100 lemma instances, 50 balanced quotients")


def test_criterion_4_cancellation_suite():
    rng = random.Random(107)
    start = time.monotonic()
    done = 0
    while done < 100:
        g = EINF if done % 2 == 0 else E2
        seed = random_clopen(g, rng, pieces=2, max_len=2)
        if seed.is_empty():
            continue
        a = mutate_clopen(g, rng, seed, moves=3)
        b = mutate_clopen(g, rng, seed, moves=3)
        assert not is_zero(class_of(a))
        blocks = find_bisection(a, b)
        assert bisection_source(g, blocks).equal(a)
        assert bisection_range(g, blocks).equal(b)
        assert all(x.lag() == 0 for x in blocks)
        done += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"100 pairs matched in {elapsed:.1f}s")


def test_criterion_5_factorization():
    rng = random.Random(109)
    points = {g: point_family(g) for g in (EINF, E2)}
    lengths = Counter()
    start = time.monotonic()
    for i in range(50):
        parts = [random_transposition(EINF, rng, max_len=rng.choice([1, 1, 2]))
                 for _ in range(rng.randrange(1, 7))]
        for _ in range(rng.randrange(0, 3)):
            parts.append(random_element(EINF, rng, 2, max_len=1,
                                        balanced=True))
        rng.shuffle(parts)
        e = compose_all(parts)
        assert index(e).zero
        fact = factor(e)
        assert fact.certified
        assert acts_pointwise(e, fact.transpositions, points[EINF])
        for t in fact.transpositions:
            assert compose(t, t).is_identity()
        lengths[len(fact.transpositions)] += 1
    for _ in range(20):
        e = random_balanced_table(E2, rng, depth=2)
        fact = af_factor(e)
        assert fact.certified
        assert len(fact.transpositions) <= 2
        assert acts_pointwise(e, fact.transpositions, points[E2])
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    # head, tau_v twice, two involutions in the core and two per ladder side
    assert max(lengths) <= 9
    histogram = " ".join(f"{n}:{c}" for n, c in sorted(lengths.items()))
    report(5, f"50 full + 20 balanced factorizations in {elapsed:.1f}s; "
              f"full lengths (factors:count) {histogram}")


def test_criterion_6_boolean_oracle():
    rng = random.Random(113)
    graphs = [E2, EINF, cycle_graph(2), mixed_graph()]
    points = {g.name: point_family(g, max_prefix=4) for g in graphs}
    for i in range(500):
        g = graphs[i % len(graphs)]
        pts = points[g.name]
        a = random_clopen(g, rng, pieces=2, max_len=3)
        b = random_clopen(g, rng, pieces=2, max_len=3)
        sa, sb = member_set(a, pts), member_set(b, pts)
        op = i % 3
        if op == 0:
            assert member_set(a.intersect(b), pts) == sa & sb
        elif op == 1:
            assert member_set(a.subtract(b), pts) == sa - sb
        else:
            assert member_set(a.union(b), pts) == sa | sb
    report(6, "500 expressions agree with point enumeration")


def test_criterion_7_purely_infinite_witness():
    rng = random.Random(127)
    graphs = [E2, EINF, mixed_graph(), emitter_two_loops()]
    done = 0
    while done < 50:
        g = graphs[done % len(graphs)]
        a = random_clopen(g, rng, pieces=2, max_len=2)
        if a.is_empty():
            continue
        w1, w2 = doubling_bisections(g, a)
        assert bisection_source(g, w1).equal(a)
        assert bisection_source(g, w2).equal(a)
        r1, r2 = bisection_range(g, w1), bisection_range(g, w2)
        assert r1.intersect(r2).is_empty()
        assert r1.union(r2).subtract(a).is_empty()
        done += 1
    report(7, "50 doubling witnesses verified")
