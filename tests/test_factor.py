import contextlib
import hashlib
import inspect
import io
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path as FsPath

import pytest

from ggt.cli import main
from ggt.errors import (HypothesesFailed, IndexNonzero, MalformedGraph,
                        NotEquivalent, RangesOverlap, SourcesOverlap,
                        VerificationFailed)
from ggt.factor import (Factorization, _check_matched, _match_at_depth,
                        af_factor, compose_bisections,
                        construct_disjoint_paths, factor, find_bisection,
                        graded_cancellation, parse_factorization,
                        print_factorization, verify_product)
from ggt.fixtures import (cycle_graph, emitter_two_loops, infinite_rose,
                          mixed_graph, rose)
from ggt.fullgroup import (Block, Element, bisection_range, bisection_source,
                           compose, compose_all, graded_partition, inverse,
                           is_involution, make_block, parse_element_text,
                           print_element, support, transposition,
                           validate_element)
from ggt.graphs import Graph, free_edges, print_graph, validate
from ggt.homology import (class_of, classes_equal, index, shift,
                          vanishing_level)
from ggt.pathspace import (Clopen, Path, Piece, canonicalize, parse_clopen,
                           parse_path, path_range)

from helpers import (acts_pointwise, mutate_clopen, point_family,
                     random_balanced_table, random_clopen, random_element,
                     random_cycle_graph, random_transposition,
                     random_twin_graph, random_walk, reference_block_key,
                     reference_match_at_depth, twin_chain)

E2 = rose(2)
EINF = infinite_rose()
# the README's example element: two disjoint swaps, itself an involution
PAIR = """element pair over einf
block L#1 | - | L#2
block L#2 | - | L#1
block L#3 | - | L#4
block L#4 | - | L#3
"""
SRC = FsPath(__file__).resolve().parent.parent / "src"


def blk(g, mu, punct, nu):
    return make_block(g, parse_path(g, mu), punct, parse_path(g, nu))


def elem(g, *specs):
    return validate_element(g, [blk(g, m, f, n) for (m, f, n) in specs])


def check_bisection_result(g, blocks, a, b, lag):
    assert bisection_source(g, blocks).equal(a)
    assert bisection_range(g, blocks).equal(b)
    assert all(x.lag() == lag for x in blocks)


def test_find_bisection_examples():
    got = find_bisection(parse_clopen(E2, "Z(a)"), parse_clopen(E2, "Z(b)"))
    assert [str(x) for x in got] == ["block b | - | a"]
    got = find_bisection(parse_clopen(EINF, "Z(L#1.L#2)"),
                         parse_clopen(EINF, "Z(L#3.L#4)"))
    assert [str(x) for x in got] == ["block L#3.L#4 | - | L#1.L#2"]
    a = parse_clopen(EINF, r"Z(@v \ L#1)")
    b = parse_clopen(EINF, r"Z(@v \ L#2)")
    got = find_bisection(a, b)
    check_bisection_result(EINF, got, a, b, 0)
    assert [str(x) for x in got] == [r"block @v | L#1,L#2 | @v",
                                     "block L#1 | - | L#2"]


def test_find_bisection_not_equivalent():
    with pytest.raises(NotEquivalent):
        find_bisection(parse_clopen(E2, "Z(a)"), parse_clopen(E2, "Z(@v)"))
    with pytest.raises(NotEquivalent):
        find_bisection(parse_clopen(EINF, "Z(L#1)"),
                       parse_clopen(EINF, r"Z(@v \ L#1)"))


def test_find_bisection_mixed_shapes():
    a = parse_clopen(EINF, "Z(L#1)")
    b = parse_clopen(EINF, r"Z(L#2 \ L#5) + Z(L#3.L#5)")
    got = find_bisection(a, b)
    check_bisection_result(EINF, got, a, b, 0)


def test_graded_cancellation_examples():
    a, b = parse_clopen(E2, "Z(a)"), parse_clopen(E2, "Z(a.a)")
    got = graded_cancellation(a, b, 1)
    assert [str(x) for x in got] == ["block a.a | - | a"]
    a, b = parse_clopen(EINF, "Z(@v)"), parse_clopen(EINF, "Z(L#1)")
    got = graded_cancellation(a, b, 1)
    assert [str(x) for x in got] == ["block L#1 | - | @v"]
    with pytest.raises(NotEquivalent):
        graded_cancellation(parse_clopen(E2, "Z(a.a)"),
                            parse_clopen(E2, "Z(a.a)"), 1)


def test_graded_cancellation_random():
    rng = random.Random(51)
    for g in (E2, EINF):
        for _ in range(10):
            a = random_clopen(g, rng, pieces=2)
            if a.is_empty():
                continue
            n = rng.randrange(1, 3)
            # build b with the shifted class by prepending paths manually
            blocks = graded_cancellation(a, _shifted_copy(g, rng, a, n), n)
            assert all(x.lag() == n for x in blocks)


def test_blocks_sort_by_source_alone():
    # normalized tables, inverses and matchings have pairwise disjoint,
    # nonempty sources, so the source key alone gives the order of the
    # source-then-range key
    rng = random.Random(139)
    tables = []
    for g in (E2, EINF, emitter_two_loops()):
        for _ in range(12):
            e = random_element(g, rng, 3, max_len=2)
            tables += [e.blocks, inverse(e).blocks]
    for g in (E2, EINF):
        for _ in range(10):
            seed = random_clopen(g, rng, pieces=2, max_len=2)
            if seed.is_empty():
                continue
            a = mutate_clopen(g, rng, seed, moves=3)
            tables.append(find_bisection(a, mutate_clopen(g, rng, seed, moves=3)))
            n = rng.randrange(1, 3)
            tables.append(graded_cancellation(a, _shifted_copy(g, rng, a, n), n))
    assert sum(len(blocks) > 1 for blocks in tables) > 40
    for blocks in tables:
        assert list(blocks) == sorted(blocks, key=reference_block_key)


def _shifted_copy(g, rng, a, n):
    from ggt.factor import _least_path_into
    from ggt.pathspace import Piece
    pieces = []
    for p in a.pieces:
        gamma = _least_path_into(g, p.mu.base, n)
        pieces.append(Piece(Path(g.source(gamma[0]), gamma + p.mu.edges),
                            p.punctures))
    return Clopen(g, tuple(sorted(pieces, key=Piece.key)))


def test_construct_disjoint_paths_basic():
    g = EINF
    region = parse_clopen(g, "Z(L#1)")
    fam = construct_disjoint_paths(g, region, {(1, 1): "v", (0, 1): "v"})
    assert sorted(fam.paths) == [(0, 1, 0), (1, 1, 0), (1, 1, 1)]
    assert fam.n_length == len(fam.paths[(1, 1, 0)])
    assert len(fam.paths[(1, 1, 1)]) == fam.n_length + 1
    assert Clopen.cylinder(g, fam.paths[(0, 1, 0)]).subtract(
        Clopen.full(g).subtract(region)).is_empty()
    assert Clopen.cylinder(g, fam.paths[(1, 1, 1)]).subtract(region).is_empty()


def test_construct_disjoint_paths_negative_buffer():
    g = EINF
    region = parse_clopen(g, "Z(L#1)")
    fam = construct_disjoint_paths(g, region, {(-2, 1): "v", (0, 1): "v"})
    # the buffer makes room for the shorter paths
    assert len(fam.paths[(-2, 1, -1)]) == fam.n_length - 1
    assert len(fam.paths[(-2, 1, -2)]) == fam.n_length - 2


def test_construct_disjoint_paths_rejects_improper_region():
    g = EINF
    for region in (Clopen.full(g), Clopen.empty(g)):
        with pytest.raises(HypothesesFailed, match="nonempty and not the whole"):
            construct_disjoint_paths(g, region, {(0, 1): "v"})
    with pytest.raises(HypothesesFailed):
        construct_disjoint_paths(E2, parse_clopen(E2, "Z(a)"), {(0, 1): "v"})


def _failure_kind(check, *args):
    try:
        check(*args)
    except VerificationFailed as exc:
        return str(exc).split(":")[0]
    return None


def _perturbed_tables(g, rng, fam, region, targets):
    """(fam, region, targets) for the table itself and for tables with
    one defect each; every defect but the swapped containers sits on one
    path."""
    from dataclasses import replace
    yield fam, region, targets
    paths = fam.paths
    keys = sorted(paths)
    key = rng.choice(keys)
    p = paths[key]
    # shorten or extend a path
    yield replace(fam, paths={**paths, key: Path(p.base, p.edges[:-1])}), region, targets
    e = rng.choice(free_edges(g, path_range(g, p), ()))
    yield replace(fam, paths={**paths, key: p.extend(e)}), region, targets
    # duplicate a path on either side under a new key
    for side in ([x for x in keys if x[2] == 0], [x for x in keys if x[2] != 0]):
        k, i, j = rng.choice(side)
        fresh = 1 + max(i_ for k_, i_ in targets if k_ == k)
        yield (replace(fam, paths={**paths, (k, fresh, j): paths[(k, i, j)]}),
               region, {**targets, (k, fresh): targets[(k, i)]})
    # a j = 0 path moved inside the region: its prefix mu becomes mu_p
    k_buf = max([0] + [-k for k, _ in targets])
    n_mu = fam.n_length - k_buf - 2
    base = next(q for x, q in sorted(paths.items()) if x[2] != 0)
    key0 = rng.choice([x for x in keys if x[2] == 0])
    inside = Path(base.base, base.edges[:n_mu] + paths[key0].edges[n_mu:])
    yield replace(fam, paths={**paths, key0: inside}), region, targets
    # a j != 0 path over a cylinder only partly inside the region, with a
    # region piece strictly below it
    keyj = rng.choice([x for x in keys if x[2] != 0])
    q = paths[keyj]
    below = q.extend(rng.choice(free_edges(g, path_range(g, q), ())))
    partial = region.subtract(Clopen.cylinder(g, q)).union(Clopen.cylinder(g, below))
    yield fam, partial, targets
    # region and outside swapped
    yield fam, region.complement(), targets
    # a path retargeted
    others = sorted(set(g.vertices) - {targets[key[:2]]})
    if others:
        yield fam, region, {**targets, key[:2]: rng.choice(others)}


def test_path_check_agrees_with_the_subtraction_reference():
    # routed tables over random regions, each perturbed once: the two
    # overlap searches and the reference's subtraction per path accept
    # the same tables and name the same kind of failure
    from ggt.factor import _check_path_families
    from helpers import reference_check_path_families

    def check_with_complement(g, fam, region, targets):
        return _check_path_families(g, fam, region, region.complement(), targets)

    rng = random.Random(1901)
    kinds = set()
    for g in (EINF, emitter_two_loops()):
        tables = 0
        while tables < 10:
            region = random_clopen(g, rng)
            if region.is_empty() or region.complement().is_empty():
                continue
            levels = {0, rng.randint(1, 3), -rng.randint(1, 3), rng.randint(-3, 3)}
            targets = {(k, i): rng.choice(sorted(g.vertices))
                       for k in levels for i in range(1, rng.randint(1, 2) + 1)}
            fam = construct_disjoint_paths(g, region, targets)
            tables += 1
            for args in _perturbed_tables(g, rng, fam, region, targets):
                got = _failure_kind(check_with_complement, g, *args)
                want = _failure_kind(reference_check_path_families, g, *args)
                assert got == want, (g.name, args)
                kinds.add(got)
    assert kinds == {None, "wrong path length", "paths not disjoint",
                     "cylinder escapes its container", "wrong end vertex"}


def test_af_factor_examples():
    swap = elem(E2, ("a", [], "b"), ("b", [], "a"))
    fact = af_factor(swap)
    assert len(fact.transpositions) == 1 and fact.certified
    three = elem(E2, ("a.b", [], "a.a"), ("b.a", [], "a.b"),
                 ("a.a", [], "b.a"))
    fact = af_factor(three)
    assert len(fact.transpositions) == 2 and fact.certified
    fact = af_factor(Element.identity(E2))
    assert fact.transpositions == () and fact.certified


def python_o(code):
    """Run code under ``python -O``; a hang fails through the timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, timeout=120)


LAGGED_SWAP_REFUSAL = (b"HypothesesFailed: table is not length-balanced: "
                       b"block [block L#1.L#1 | - | L#2] has lag 1")


def test_af_factor_refuses_unbalanced_tables():
    # a lag-1 swap is an involution but not length-balanced
    t = transposition(EINF, [blk(EINF, "L#1.L#1", [], "L#2")])
    with pytest.raises(HypothesesFailed) as info:
        af_factor(t)
    assert f"HypothesesFailed: {info.value}".encode() == LAGGED_SWAP_REFUSAL
    # the refusal does not depend on asserts
    code = ("from ggt.factor import af_factor\n"
            "from ggt.fixtures import infinite_rose\n"
            "from ggt.fullgroup import make_block, transposition\n"
            "from ggt.pathspace import parse_path\n"
            "g = infinite_rose()\n"
            "b = make_block(g, parse_path(g, 'L#1.L#1'), (), parse_path(g, 'L#2'))\n"
            "af_factor(transposition(g, [b]))\n")
    optimized = python_o(code)
    assert optimized.returncode == 1
    assert optimized.stderr.splitlines()[-1].endswith(LAGGED_SWAP_REFUSAL)


def test_af_factor_random_tables():
    rng = random.Random(57)
    for _ in range(10):
        e = random_balanced_table(E2, rng, depth=2)
        fact = af_factor(e)
        assert fact.certified
        assert verify_product(e, fact.transpositions)
        for t in fact.transpositions:
            assert compose(t, t).is_identity()
    for _ in range(10):
        e = random_element(EINF, rng, 3, balanced=True)
        fact = af_factor(e)
        assert fact.certified


def test_verify_product_examples():
    swap = elem(E2, ("a", [], "b"), ("b", [], "a"))
    assert verify_product(swap, [swap])
    assert verify_product(Element.identity(E2), [])
    assert not verify_product(swap, [Element.identity(E2)])


def test_factor_requires_hypotheses():
    swap = elem(E2, ("a", [], "b"), ("b", [], "a"))
    with pytest.raises(HypothesesFailed):
        factor(swap)


def test_factor_rejects_nonzero_index():
    pet = emitter_two_loops()
    e = elem(pet, ("@x", [], "p"), ("r", [], "@y"), ("t", [], "q"))
    with pytest.raises(IndexNonzero):
        factor(e)


def test_factor_disjoint_transpositions():
    t12 = transposition(EINF, [blk(EINF, "L#1", [], "L#2")])
    t34 = transposition(EINF, [blk(EINF, "L#3", [], "L#4")])
    e = compose(t12, t34)
    fact = factor(e)
    assert fact.certified and verify_product(e, fact.transpositions)


def test_factor_alpha0_analogue():
    # the binary table calculus on two loops, with the residual collar
    # at the emitter shuffled by a fourth block
    e = elem(EINF,
             ("L#1", [], "L#1.L#1"),
             ("L#2.L#1", [], "L#1.L#2"),
             ("L#2.L#2", [], "L#2"),
             ("L#2", ["L#1", "L#2"], "L#1"))
    fact = factor(e)
    assert fact.certified
    assert verify_product(e, fact.transpositions)


def test_factor_graded_kernel_element():
    # product of graded transpositions with nonempty positive and
    # negative parts whose index vanishes
    tau_g = transposition(EINF, [blk(EINF, "L#2.L#1", [], "L#1")])
    sw = transposition(EINF, [blk(EINF, "L#1", [], "L#2")])
    e = compose(tau_g, sw)
    fact = factor(e)
    assert fact.certified
    for t in fact.transpositions:
        assert compose(t, t).is_identity()


def test_factor_without_lag_zero_support():
    # a lone graded transposition moves every supported point with a
    # nonzero lag, so the zero part of the support is empty
    tau_g = transposition(EINF, [blk(EINF, "L#2.L#1", [], "L#1")])
    from ggt.fullgroup import graded_partition
    part = graded_partition(tau_g)
    assert part.part(0).intersect(support(tau_g)).is_empty()
    fact = factor(tau_g)
    assert fact.certified and verify_product(tau_g, fact.transpositions)


def test_factor_full_support_element():
    ta = transposition(EINF, [blk(EINF, "L#1", ["L#1", "L#2"], "@v")])
    tb = transposition(EINF, [blk(EINF, "L#2", [], "L#1.L#1")])
    tc = transposition(EINF, [blk(EINF, "L#2", [], "L#1.L#2")])
    e = compose_all([ta, tb, tc])
    assert support(e).equal(Clopen.full(EINF))
    fact = factor(e)
    assert fact.certified and verify_product(e, fact.transpositions)


def test_factor_on_petal_graph():
    pet = emitter_two_loops()
    rng = random.Random(61)
    for _ in range(5):
        e = random_element(pet, rng, 3, max_len=2)
        fact = factor(e)
        assert fact.certified


# sha256 of print_factorization("g", factor(e), emitter_two_loops()) for
# the first ten products of test_petal_factorizations_keep_their_bytes
PETAL_FACTOR_SHA256 = (
    "d7b8ea1f2d460efec83ec1f6d03d20a82d6563c7cd23a9d0250ae8f48e4e5c91",
    "703b8fd71a70bdb680c5007cc20eb19b72bef4a2c6a976b10e2d525be90f6530",
    "d73d68018954e15a918d0850121d5d1f3406f9d338fd595f2434a36c24e46ca3",
    "7e5effd4f14e024aedad880dfdebd3a13578d41d3455638d3e07db64214b5d95",
    "d876725359580296c6b2c8523a1e8a57a3fea16c43b024ab11f6bcd465087bfa",
    "349a19c1d9615a65ac4ea89ba0d7ecbd1b94177273a3f8ac15618a6f1049d72f",
    "2cc697b5fe46af1443bc3b3a67c4219ba0cfbcc888339329fbf7428517fd9b35",
    "56cb191b066448e146787074cad90e1bebffe75869abf964eac237e358810411",
    "04c56a89098eff0cdcbd66faecbb78e7783b336fd02e83cf8218015be7b162a5",
    "c19395a7f56090f17521b30b62144c63291119af0ba4601d9f5f0d9f994a3955",
)


def test_petal_factorizations_keep_their_bytes():
    # a punctured piece ends at w, which emits the concrete edges a and
    # b and the family W; the routing prefix extends it by a concrete
    # edge first, and four of these products print differently if W#1
    # is taken instead
    pet = emitter_two_loops()
    rng = random.Random(2027)
    got = []
    for _ in range(len(PETAL_FACTOR_SHA256)):
        e = compose_all([random_transposition(pet, rng, max_len=2)
                         for _ in range(rng.randrange(1, 4))])
        text = print_factorization("g", factor(e), pet)
        got.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    assert got == list(PETAL_FACTOR_SHA256)


def test_factor_randomized_soundness():
    rng = random.Random(63)
    start = time.monotonic()
    for _ in range(10):
        parts = [random_transposition(EINF, rng, max_len=2)
                 for _ in range(rng.randrange(1, 5))]
        parts += [random_element(EINF, rng, 2, balanced=True)]
        e = compose_all(parts)
        from ggt.homology import index
        assert index(e).zero
        fact = factor(e)
        assert fact.certified
        assert verify_product(e, fact.transpositions)
    assert time.monotonic() - start < 120


def test_factor_on_random_twin_graphs():
    # graphs beyond the fixtures, checked by the point oracle: twins
    # push the zero test past the top level, and vertices with one
    # out-edge give pieces whose paths a refinement may lengthen without
    # splitting them
    rng = random.Random(2026)
    lengths = set()
    long_lags = 0
    for _ in range(40):
        g = random_twin_graph(rng)
        e = compose_all([random_transposition(g, rng, max_len=2)
                         for _ in range(rng.randrange(1, 4))])
        fact = factor(e)
        assert fact.certified
        assert acts_pointwise(e, fact.transpositions,
                              point_family(g, max_prefix=3))
        lengths.add(len(fact.transpositions))
        long_lags += max(abs(k) for k in graded_partition(e).keys()) >= 2
    # ladders of more than one level run, as cycles of length >= 3
    assert min(lengths) == 1 and long_lags > 0


def test_factor_count_does_not_grow_with_the_lags():
    # the involution swapping Z(L#1) with Z(L#2^k.L#3) has lags +-k; its
    # ladders are two cycles of k + 1 members, two involutions per side
    points = point_family(EINF)
    for k in range(1, 9):
        e = elem(EINF, (".".join(["L#2"] * k + ["L#3"]), [], "L#1"),
                 ("L#1", [], ".".join(["L#2"] * k + ["L#3"])))
        assert {b.lag() for b in e.blocks} == {-k, k}
        fact = factor(e)
        assert fact.certified and len(fact.transpositions) <= 7
        assert acts_pointwise(e, fact.transpositions, points)


def test_factorization_file_round_trip():
    t12 = transposition(EINF, [blk(EINF, "L#1", [], "L#2")])
    t34 = transposition(EINF, [blk(EINF, "L#3", [], "L#4")])
    e = compose(t12, t34)
    fact = factor(e)
    text = print_factorization("probe", fact, EINF)
    assert text.startswith(
        f"product-of {len(fact.transpositions)} transpositions, certified=true")
    certified, elements = parse_factorization(EINF, text)
    assert certified
    assert verify_product(e, elements)


def test_find_bisection_on_multi_vertex_graph():
    # cancellation over a graph with several vertices and a genuine
    # pushdown relation structure
    pet = emitter_two_loops()
    rng = random.Random(67)
    done = 0
    while done < 20:
        seed = random_clopen(pet, rng, pieces=2, max_len=2)
        if seed.is_empty():
            continue
        a = mutate_clopen(pet, rng, seed, moves=2)
        b = mutate_clopen(pet, rng, seed, moves=2)
        blocks = find_bisection(a, b)
        assert bisection_source(pet, blocks).equal(a)
        assert bisection_range(pet, blocks).equal(b)
        done += 1


def test_graded_cancellation_on_multi_vertex_graph():
    pet = emitter_two_loops()
    a = Clopen.cylinder(pet, parse_path(pet, "p"))
    b = Clopen.cylinder(pet, parse_path(pet, "p.p.p"))
    blocks = graded_cancellation(a, b, 2)
    assert bisection_source(pet, blocks).equal(a)
    assert bisection_range(pet, blocks).equal(b)
    assert all(x.lag() == 2 for x in blocks)


def test_support_symmetry_and_factor_supports():
    rng = random.Random(71)
    for _ in range(10):
        e = random_element(EINF, rng, 3, max_len=2)
        assert support(e).equal(support(validate_element(
            EINF, [b.inverse() for b in e.blocks])))
    tau = transposition(EINF, [blk(EINF, "L#1", [], "L#2")])
    e = compose(tau, transposition(EINF, [blk(EINF, "L#3", [], "L#4")]))
    fact = factor(e)
    for t in fact.transpositions:
        sup = support(t)
        assert not sup.is_empty()
        assert sup.intersect(Clopen.full(EINF)).equal(sup)


def test_certification_failures_raise(monkeypatch):
    # patch the module namespace that af_factor reads verify_product from
    mod = sys.modules["ggt.factor"]
    t12 = transposition(EINF, [blk(EINF, "L#1", [], "L#2")])
    t34 = transposition(EINF, [blk(EINF, "L#3", [], "L#4")])
    e = compose(t12, t34)
    assert factor(e).certified and af_factor(e).certified
    monkeypatch.setattr(mod, "verify_product", lambda e, factors: False)
    with pytest.raises(VerificationFailed, match="recompose=false"):
        af_factor(e)
    with pytest.raises(VerificationFailed, match="recompose=false"):
        factor(e)
    monkeypatch.undo()
    monkeypatch.setattr(mod, "is_involution", lambda t: False)
    with pytest.raises(VerificationFailed, match="involutions=false"):
        factor(e)
    with pytest.raises(VerificationFailed,
                       match="recompose=true involutions=false"):
        af_factor(e)


def test_factor_certifies_once(monkeypatch):
    mod = sys.modules["ggt.factor"]
    calls = []
    real = mod.verify_product
    monkeypatch.setattr(mod, "verify_product",
                        lambda e, fs: calls.append(1) or real(e, fs))
    rng = random.Random(67)
    parts = [random_transposition(EINF, rng, max_len=2) for _ in range(3)]
    assert factor(compose_all(parts)).certified
    assert calls == [1]
    assert af_factor(random_balanced_table(E2, rng, depth=2)).certified
    assert calls == [1, 1]


def test_criterion_5_factors_are_structural_involutions(monkeypatch):
    # the first elements of the criterion-5 stream (same generator and
    # seed); every factor must pass the involution check without compose
    rng = random.Random(109)
    factors = []
    for _ in range(8):
        parts = [random_transposition(EINF, rng, max_len=rng.choice([1, 1, 2]))
                 for _ in range(rng.randrange(1, 7))]
        for _ in range(rng.randrange(0, 3)):
            parts.append(random_element(EINF, rng, 2, max_len=1,
                                        balanced=True))
        rng.shuffle(parts)
        factors.extend(factor(compose_all(parts)).transpositions)
    assert len(factors) > 20

    def no_compose(f, h):
        raise AssertionError("involution check fell back to compose")

    monkeypatch.setattr(sys.modules["ggt.fullgroup"], "compose", no_compose)
    assert all(is_involution(t) for t in factors)


def reference_verify(e, factors):
    """Certification before the fold: recompose the factors one compose
    at a time and normalize the quotient by e."""
    if not factors:
        return e.is_identity()
    return compose(compose_all(factors), inverse(e)).is_identity()


def corruptions(factors):
    """Wrong factor lists: first, middle or last factor dropped, the order
    reversed, one factor duplicated at the end."""
    n = len(factors)
    return [factors[1:], factors[:n // 2] + factors[n // 2 + 1:],
            factors[:-1], factors[::-1], factors + [factors[n // 2]]]


def fold_inputs(rng):
    """(factorizer, element) pairs, in order: four infinite_rose products
    for ``factor``, four rose(2) balanced tables for ``af_factor`` and
    three petal elements for ``factor``."""
    inputs = []
    for _ in range(4):
        parts = [random_transposition(EINF, rng, max_len=2)
                 for _ in range(rng.randrange(2, 5))]
        inputs.append((factor, compose_all(parts)))
    for depth in (2, 3):
        for _ in range(2):
            inputs.append((af_factor, random_balanced_table(E2, rng, depth=depth)))
    pet = emitter_two_loops()
    for _ in range(3):
        inputs.append((factor, random_element(pet, rng, 3, max_len=2)))
    return inputs


def test_fold_matches_recomposition_reference():
    # seed 90 keeps every factorization under 25 factors
    cases = [(e, list(run(e).transpositions))
             for run, e in fold_inputs(random.Random(90))]
    graphs = set()
    refused = 0
    for e, factors in cases:
        if not factors:
            continue
        graphs.add(e.graph.name)
        assert verify_product(e, factors) and reference_verify(e, factors)
        for wrong in corruptions(factors):
            got = verify_product(e, wrong)
            assert got == reference_verify(e, wrong)
            refused += not got
    assert graphs == {"einf", "e2", "petal"}
    assert refused >= 2 * len(cases)


# source pieces {a, b.a, b.b} and range pieces {b, a.b, a.a}: af_factor
# must refine this table before it can read off a permutation
TANGLED = (("b", "a"), ("a.b", "b.a"), ("a.a", "b.b"))
STALLED = b"VerificationFailed: AF refinement stalled: table=3 refined=3"


def test_af_refinement_stall_raises(monkeypatch):
    # a refinement that changes nothing must refuse, not loop
    e = elem(E2, *[(mu, [], nu) for mu, nu in TANGLED])
    assert af_factor(e).certified
    mod = sys.modules["ggt.factor"]
    monkeypatch.setattr(mod, "compose_bisections",
                        lambda g, outer, inner: list(outer))
    with pytest.raises(VerificationFailed) as info:
        af_factor(e)
    assert f"VerificationFailed: {info.value}".encode().startswith(STALLED)
    stalled = python_o(
        "import sys\n"
        "from ggt.factor import af_factor\n"
        "from ggt.fixtures import rose\n"
        "from ggt.fullgroup import make_block, validate_element\n"
        "from ggt.pathspace import parse_path\n"
        "g = rose(2)\n"
        "e = validate_element(g, [make_block(g, parse_path(g, mu), (),\n"
        "                                    parse_path(g, nu))\n"
        f"                        for mu, nu in {TANGLED!r}])\n"
        "sys.modules['ggt.factor'].compose_bisections = (\n"
        "    lambda g, outer, inner: list(outer))\n"
        "af_factor(e)\n")
    assert stalled.returncode == 1
    assert STALLED in stalled.stderr.splitlines()[-1]


def test_af_refinement_may_lengthen_without_splitting():
    # w has one out-edge d, so Z(a.c) and Z(a.c.d) are one set; no block
    # has a common suffix for the normal form to merge. The first round
    # rewrites the source Z(a.c) to the range piece Z(a.c.d) and splits
    # nothing, and the second finds the partitions equal
    g = Graph("forced", ["v", "w"], [("a", "v", "v"), ("b", "v", "v"),
                                     ("c", "v", "w"), ("e", "v", "w"),
                                     ("d", "w", "v")])
    e = elem(g, ("b.e", [], "a.c"), ("b.b.a", [], "b.e.d"),
             ("a.c.d", [], "b.b.a"))
    assert len(e.blocks) == 3
    fact = af_factor(e)
    assert fact.certified and len(fact.transpositions) == 2
    assert acts_pointwise(e, fact.transpositions, point_family(g))


def test_af_factor_uses_at_most_two_involutions():
    # a permutation of the refined partition is s.r for two involutions
    rng = random.Random(131)
    points = point_family(E2)
    tables = [random_balanced_table(E2, rng, depth=depth)
              for depth in (2, 3, 4) for _ in range(4)]
    tables.append(elem(E2, *[(mu, [], nu) for mu, nu in TANGLED]))
    lengths = set()
    for e in tables:
        fact = af_factor(e)
        assert fact.certified and len(fact.transpositions) <= 2
        assert acts_pointwise(e, fact.transpositions, points)
        lengths.add(len(fact.transpositions))
    assert 2 in lengths
    # an involution is its own single factor, the identity has none
    _, pair = parse_element_text(EINF, PAIR)
    assert len(af_factor(pair).transpositions) == 1
    assert af_factor(Element.identity(EINF)).transpositions == ()


def test_petal_element_factors_short():
    # the ninth fold input at seed 83 is a 9-block petal element whose
    # balanced core, split into one swap per cycle step, takes 313 factors
    run, e = fold_inputs(random.Random(83))[8]
    assert e.graph.name == "petal" and len(e.blocks) == 9
    fact = run(e)
    assert fact.certified and len(fact.transpositions) <= 20
    assert acts_pointwise(e, fact.transpositions, point_family(e.graph))


def test_matching_depth_refusal_names_its_numbers(monkeypatch, tmp_path):
    # the matcher runs once, at max(start, vanishing level); over the
    # 2-link twin chain Z(s) and Z(t) start at depth 1 and vanish at 3
    mod = sys.modules["ggt.factor"]
    real = mod._match_at_depth
    tried = []
    residue = [0]

    def counted(g, a, b, depth):
        tried.append(depth)
        blocks, left = real(g, a, b, depth)
        if residue[0]:
            return blocks[:-1], residue[0]
        return blocks, left

    monkeypatch.setattr(mod, "_match_at_depth", counted)
    g = twin_chain(2)
    a, b = parse_clopen(g, "Z(s)"), parse_clopen(g, "Z(t)")
    assert [str(x) for x in find_bisection(a, b)] == [
        "block t.q1.q2 | - | s.p1.p2"]
    assert tried == [3]
    # a residue at the derived depth is a broken invariant, so the
    # matcher is patched to leave two pieces unmatched
    residue[0] = 2
    tried.clear()
    with pytest.raises(VerificationFailed) as info:
        find_bisection(a, b)
    assert tried == [3]
    assert str(info.value) == (f"matching {a} onto {b} at depth 3 "
                               "(vanishing level 3) left residue=2 pieces")
    # through the CLI: exit 3 and the error name on the first line
    # an element with levels -1 and 1, whose ladders call find_bisection
    tau_g = transposition(EINF, [blk(EINF, "L#2.L#1", [], "L#1")])
    e = compose(tau_g, transposition(EINF, [blk(EINF, "L#1", [], "L#2")]))
    (tmp_path / "einf.graph").write_text(print_graph(EINF))
    (tmp_path / "lagged.elem").write_text(print_element("lagged", e))
    tried.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["factor", str(tmp_path / "einf.graph"),
                     str(tmp_path / "lagged.elem")])
    lines = out.getvalue().splitlines()
    assert code == 3 and lines[0] == "VerificationFailed"
    assert len(tried) == 1
    assert re.fullmatch(rf"matching .+ onto .+ at depth {tried[0]} "
                        rf"\(vanishing level \d+\) left residue=2 pieces",
                        lines[1])


def deepening_reference(a, b, stop=8):
    """The matcher as a deepening loop: the blocks and depth of the first
    depth from max(a.depth(), b.depth(), 1) on that leaves no residue."""
    g = a.graph
    start = max(a.depth(), b.depth(), 1)
    for depth in range(start, stop + 1):
        blocks, residue = _match_at_depth(g, a, b, depth)
        if not residue:
            blocks = _check_matched(g, blocks, a, b, 0)
            return sorted(blocks, key=Block.key), depth
    raise AssertionError(f"no match between {a} and {b} up to depth {stop}")


def depth_theorem_pairs(rng):
    """Equal-class pairs: class-preserving mutations over the fixtures
    and twin graphs, cylinders over twin vertices one level below where
    their classes meet, and twin chains of 1-3 links."""
    pairs = []
    for g in (E2, EINF, emitter_two_loops()):
        for _ in range(20):
            a = random_clopen(g, rng, pieces=2, max_len=2)
            pairs.append((a, mutate_clopen(g, rng, a)))
    for _ in range(16):
        g = random_twin_graph(rng)
        n = rng.randrange(1, 3)
        ends = {}
        for v in ("v1", "v2"):
            while v not in ends:
                p = random_walk(g, rng, rng.choice(sorted(g.vertices)), n)
                if path_range(g, p) == v:
                    ends[v] = Clopen.cylinder(g, p)
        pairs.append((ends["v1"], ends["v2"]))
        pairs.append((ends["v1"], mutate_clopen(g, rng, ends["v2"])))
        a = random_clopen(g, rng, pieces=2, max_len=2)
        pairs.append((a, mutate_clopen(g, rng, a)))
    for k in (1, 2, 3):
        g = twin_chain(k)
        a, b = parse_clopen(g, "Z(s)"), parse_clopen(g, "Z(t)")
        pairs += [(a, b), (b, a), (a, mutate_clopen(g, rng, b, moves=2))]
    return [(a, b) for a, b in pairs if not a.is_empty()]


def test_find_bisection_matches_once_at_the_derived_depth(monkeypatch):
    # for D >= start the matcher leaves no residue iff D >= L, so one
    # match at max(start, L) gives the deepening loop's blocks
    mod = sys.modules["ggt.factor"]
    tried = []

    def counted(g, a, b, depth):
        tried.append(depth)
        return _match_at_depth(g, a, b, depth)

    monkeypatch.setattr(mod, "_match_at_depth", counted)
    gaps = set()
    for a, b in depth_theorem_pairs(random.Random(97)):
        start = max(a.depth(), b.depth(), 1)
        level = vanishing_level(class_of(a).sub(class_of(b)))
        blocks, depth = deepening_reference(a, b)
        assert depth == max(start, level)
        tried.clear()
        assert find_bisection(a, b) == blocks
        assert tried == [depth]
        for d in range(start, max(start, level) + 2):
            assert (_match_at_depth(a.graph, a, b, d)[1] == 0) == (d >= level)
        gaps.add(depth - start)
    assert gaps == {0, 1, 2, 3}


def test_matcher_results_are_checked_without_asserts(monkeypatch):
    mod = sys.modules["ggt.factor"]
    real = mod._match_at_depth

    def drop_last(g, a, b, depth):
        blocks, residue = real(g, a, b, depth)
        return blocks[:-1], residue

    monkeypatch.setattr(mod, "_match_at_depth", drop_last)
    with pytest.raises(VerificationFailed, match="source check failed"):
        find_bisection(parse_clopen(E2, "Z(a)"), parse_clopen(E2, "Z(b)"))
    with pytest.raises(VerificationFailed, match="source check failed"):
        graded_cancellation(parse_clopen(E2, "Z(a)"),
                            parse_clopen(E2, "Z(a.a)"), 1)
    code = ("import sys\n"
            "import ggt.factor\n"
            "mod = sys.modules['ggt.factor']\n"
            "real = mod._match_at_depth\n"
            "def drop_last(*args):\n"
            "    blocks, residue = real(*args)\n"
            "    return blocks[:-1], residue\n"
            "mod._match_at_depth = drop_last\n"
            "from ggt.fixtures import rose\n"
            "from ggt.pathspace import parse_clopen\n"
            "g = rose(2)\n"
            "mod.{call}\n")
    for call in ("find_bisection(parse_clopen(g, 'Z(a)'), parse_clopen(g, 'Z(b)'))",
                 "graded_cancellation(parse_clopen(g, 'Z(a)'), "
                 "parse_clopen(g, 'Z(a.a)'), 1)"):
        refused = python_o(code.format(call=call))
        assert refused.returncode == 1
        assert refused.stderr.splitlines()[-1].startswith(
            b"ggt.errors.VerificationFailed: source check failed")


def test_matcher_matches_the_min_scan_reference(monkeypatch):
    # the levels and the direct filing give the blocks and residue of
    # the matcher that refined each piece as a one-piece clopen and
    # scanned both pool dicts for the least key, at depths start to
    # start + 2: the fixtures, benchmark-style random graphs, unequal
    # classes (residue > 0) and punctured pieces that release
    # sub-cylinders
    mod = sys.modules["ggt.factor"]
    real = mod._pool_insert
    filed = [0]

    def counted(*args):
        filed[0] += 1
        return real(*args)

    monkeypatch.setattr(mod, "_pool_insert", counted)
    rng = random.Random(2503)
    graphs = [mixed_graph(), emitter_two_loops(), EINF, E2, cycle_graph(3)]
    graphs += [random_cycle_graph(rng, rng.randrange(10, 40)) for _ in range(6)]
    pairs = [(parse_clopen(EINF, r"Z(@v \ L#1)"),
              parse_clopen(EINF, r"Z(@v \ L#2)")),
             (parse_clopen(EINF, r"Z(L#3 \ L#1,L#4)"),
              parse_clopen(EINF, r"Z(L#2 \ L#2) + Z(L#1.L#1)"))]
    for g in graphs:
        for _ in range(20):
            a = random_clopen(g, rng, pieces=3, max_len=2)
            if rng.random() < 0.6:
                b = mutate_clopen(g, rng, a)
            else:
                b = random_clopen(g, rng, pieces=3, max_len=2)
            pairs.append((a, b))
    seen = set()
    for a, b in pairs:
        g = a.graph
        start = max(a.depth(), b.depth(), 1)
        for depth in range(start, start + 3):
            filed[0] = 0
            got = _match_at_depth(g, a, b, depth)
            assert got == reference_match_at_depth(g, a, b, depth)
            seen.add("residue" if got[1] else "matched")
            if filed[0] > len(a.pieces) + len(b.pieces):
                seen.add("released")
    assert seen == {"residue", "matched", "released"}


def _refused(g, blocks, a, b, lag=0):
    """(exception type, message) of ``_check_matched``'s refusal."""
    with pytest.raises(Exception) as info:
        _check_matched(g, blocks, parse_clopen(g, a), parse_clopen(g, b), lag)
    return type(info.value), str(info.value)


def test_check_matched_keeps_its_refusals_and_their_order():
    # each message is written out in full, so any change of wording or
    # of order fails here; the checks run in the order make_block,
    # sources, ranges, lag, source union, range union
    e2, petal = E2, emitter_two_loops()
    bad = Block(Path("v", ("c",)), (), Path("v", ("a",)))
    cases = [
        # a malformed block comes first, even after two overlapping ones
        (e2, [blk(e2, "b.a", [], "a"), blk(e2, "b.b", [], "a.a"), bad],
         "Z(a)", "Z(b)",
         MalformedGraph, "path c is not composable at 'c'"),
        (e2, [blk(e2, "b.a", [], "a"), blk(e2, "b.b", [], "a.a")],
         "Z(a)", "Z(b)", SourcesOverlap,
         "blocks [block b.a | - | a] and [block b.b | - | a.a] "
         "have overlapping sources"),
        (e2, [blk(e2, "b", [], "a.a"), blk(e2, "b.b", [], "a.b")],
         "Z(a)", "Z(b)", RangesOverlap,
         "blocks [block b | - | a.a] and [block b.b | - | a.b] "
         "have overlapping ranges"),
        # both overlap: the sources are named
        (e2, [blk(e2, "b", [], "a"), blk(e2, "b.a", [], "a.b")],
         "Z(a)", "Z(b)", SourcesOverlap,
         "blocks [block b | - | a] and [block b.a | - | a.b] "
         "have overlapping sources"),
        # punctured pieces at a singular vertex
        (EINF, [blk(EINF, "L#3", ["L#1"], "L#1"),
                blk(EINF, "L#4", [], "L#1.L#2")],
         "Z(L#1)", "Z(L#3)", SourcesOverlap,
         "blocks [block L#3 | L#1 | L#1] and [block L#4 | - | L#1.L#2] "
         "have overlapping sources"),
        (EINF, [blk(EINF, "L#3", ["L#1"], "L#1"),
                blk(EINF, "L#3.L#2", [], "L#2.L#1")],
         "Z(L#1)", "Z(L#3)", RangesOverlap,
         "blocks [block L#3 | L#1 | L#1] and [block L#3.L#2 | - | L#2.L#1] "
         "have overlapping ranges"),
        (e2, [blk(e2, "b.a", [], "a")], "Z(a)", "Z(b.a)",
         VerificationFailed,
         "lag check failed: block [block b.a | - | a] has lag 1, not 0"),
        # a wrong lag is named before unions that are off too
        (petal, [blk(petal, "a", [], "b.t.a")], "Z(p)", "Z(q)",
         VerificationFailed,
         "lag check failed: block [block a | - | b.t.a] has lag -2, not 0"),
        (e2, [blk(e2, "b.a", [], "a.a")], "Z(a)", "Z(b.a)",
         VerificationFailed, "source check failed: source is not Z(a)"),
        (e2, [blk(e2, "b", [], "a")], "Z(a)", "Z(b.b)",
         VerificationFailed, "range check failed: range is not Z(b.b)"),
        # both unions off: the source is named
        (e2, [blk(e2, "b", [], "a")], "Z(a.a)", "Z(b.b)",
         VerificationFailed, "source check failed: source is not Z(a.a)"),
    ]
    for g, blocks, a, b, error, message in cases:
        assert _refused(g, blocks, a, b) == (error, message)
    # a set over another graph is refused even when its pieces read alike
    e3 = rose(3)
    with pytest.raises(MalformedGraph) as info:
        _check_matched(e2, [blk(e2, "b", [], "a")], parse_clopen(e3, "Z(a)"),
                       parse_clopen(e2, "Z(b)"), 0)
    assert str(info.value) == "operands live over different graphs"


def test_check_matched_builds_one_trie_per_side(monkeypatch):
    # one path trie per side serves the overlap search and the union, and
    # a or b costs one more only when it is not in canonical form; a
    # non-canonical a or b that is the union as a set is accepted
    pathspace = sys.modules["ggt.pathspace"]
    real = pathspace.path_trie
    built = [0]

    def counted(paths):
        built[0] += 1
        return real(paths)

    monkeypatch.setattr(pathspace, "path_trie", counted)
    petal = emitter_two_loops()

    def off_form(g, text):
        c = parse_clopen(g, text)
        return Clopen(g, c.refine_to(c.depth() + 1).pieces)

    def cost(g, blocks, a, b):
        loose = sum(c.pieces != canonicalize(g, c.pieces) for c in (a, b))
        built[0] = 0
        _check_matched(g, blocks, a, b, 0)
        return built[0], loose

    swap = [blk(E2, "b", [], "a")]
    za, zb = parse_clopen(E2, "Z(a)"), parse_clopen(E2, "Z(b)")
    assert cost(E2, swap, za, zb) == (2, 0)
    assert cost(E2, swap, off_form(E2, "Z(a)"), zb) == (3, 1)
    assert cost(E2, swap, off_form(E2, "Z(a)"), off_form(E2, "Z(b)")) == (4, 2)
    # Z(@w) as a punctured piece at the emitter w and the cylinder it misses
    w = Clopen(petal, (Piece(Path("w"), ("W#1",)), Piece(Path("w", ("W#1",)))))
    assert cost(petal, [blk(petal, "@w", [], "@w")], w, w) == (4, 2)
    seen = set()
    for a, b in depth_theorem_pairs(random.Random(2502)):
        g = a.graph
        blocks, residue = _match_at_depth(
            g, a, b, max(a.depth(), b.depth(), 1,
                         vanishing_level(class_of(a).sub(class_of(b)))))
        assert residue == 0
        tries, loose = cost(g, blocks, a, b)
        assert tries == 2 + loose
        seen.add(loose)
    assert seen == {0, 1}


def test_af_certification_does_not_compose(monkeypatch):
    # af_factor certifies by the fold alone: no compose, no compose_all
    e = random_balanced_table(E2, random.Random(89), depth=3)

    def no_compose(*args):
        raise AssertionError("certification fell back to compose")

    for mod, name in (("ggt.fullgroup", "compose"),
                      ("ggt.fullgroup", "compose_all"),
                      ("ggt.factor", "compose_all")):
        monkeypatch.setattr(sys.modules[mod], name, no_compose)
    fact = af_factor(e)
    assert fact.certified and len(fact.transpositions) > 1


def _lagged_elements():
    """A lag-+-1 and a lag-+-3 element of the index kernel over EINF."""
    tau_g = transposition(EINF, [blk(EINF, "L#2.L#1", [], "L#1")])
    k3 = "L#2.L#2.L#2.L#3"
    elements = [compose(tau_g, transposition(EINF, [blk(EINF, "L#1", [], "L#2")])),
                elem(EINF, (k3, [], "L#1"), ("L#1", [], k3))]
    assert [{b.lag() for b in e.blocks} - {0} for e in elements] == [{-1, 1}, {-3, 3}]
    return elements


def test_index_and_factor_never_build_s0(monkeypatch):
    # S(0) carries no index and the factorization routes only the moved
    # set: index makes no complement walk, and factor calls no
    # graded_partition and intersects no clopens. The walk is refused
    # where S(0) would make it, under ``Clopen.complement_of``
    pathspace = sys.modules["ggt.pathspace"]
    elements = _lagged_elements()

    def refuse(*args, **kwargs):
        raise AssertionError("S(0) was built")

    with monkeypatch.context() as m:
        m.setattr(pathspace, "complement_pieces", refuse)
        assert all(index(e).zero for e in elements)

    calls = []

    def counting(e):
        calls.append(e)
        return graded_partition(e)

    with monkeypatch.context() as m:
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("ggt.") and hasattr(mod, "graded_partition"):
                m.setattr(mod, "graded_partition", counting)
        m.setattr(Clopen, "intersect", refuse)
        assert all(factor(e).certified for e in elements)
    assert calls == []


def test_factor_builds_no_cylinder_or_difference(monkeypatch):
    # the routing runs against the whole space: its outside is one
    # complement walk, which its check reuses beside two overlap
    # searches, so factor builds no cylinder clopen and subtracts no
    # clopens. The walk is counted where the outside makes it and under
    # factor's own name, so a second walk in the check would count too
    elements = _lagged_elements()
    factor_mod, pathspace = sys.modules["ggt.factor"], sys.modules["ggt.pathspace"]
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("a cylinder or a difference was built")

    monkeypatch.setattr(Clopen, "subtract", refuse)
    monkeypatch.setattr(Clopen, "cylinder", refuse)
    for mod, name in ((factor_mod, "find_overlap"), (factor_mod, "complement_pieces"),
                      (pathspace, "complement_pieces")):
        monkeypatch.setattr(mod, name, lambda *args, name=name, real=getattr(pathspace, name): (
            calls.append(name) or real(*args)), raising=False)
    assert all(factor(e).certified for e in elements)
    # one routing check per element
    assert sorted(calls) == ["complement_pieces"] * 2 + ["find_overlap"] * 4


def test_invariant_checks_raise_typed_errors(monkeypatch):
    # each internal invariant of the pipeline is broken on purpose and
    # must raise VerificationFailed naming it; no check is an ``assert``
    from dataclasses import replace
    from ggt.factor import _check_path_families
    mod = sys.modules["ggt.factor"]
    tau_g = transposition(EINF, [blk(EINF, "L#2.L#1", [], "L#1")])
    e = compose(tau_g, transposition(EINF, [blk(EINF, "L#1", [], "L#2")]))
    assert factor(e).certified

    real_compose_all = mod.compose_all

    def drop_ladders(fs):
        # the conjugation [tau_v, e, tau_v] folds as usual; the product
        # [beta, ladders...] loses its ladders and stays beta
        return real_compose_all(fs) if fs[0] is fs[-1] else fs[0]

    for name, fake, message in (
            ("lag_parts", lambda x: {1: Clopen.full(EINF)}, "index balance broken"),
            ("canonicalize", lambda g, pieces: (), "conjugated part S"),
            ("compose_all", drop_ladders, "ladders left block")):
        with monkeypatch.context() as m:
            m.setattr(mod, name, fake)
            with pytest.raises(VerificationFailed, match=message):
                factor(e)

    region = parse_clopen(EINF, "Z(L#1)")
    targets = {(1, 1): "v", (0, 1): "v", (0, 2): "v"}
    fam = construct_disjoint_paths(EINF, region, targets)
    twice = fam.paths[(0, 1, 0)]
    # a strict prefix sorted after the longer path is met by the second
    # pass of the overlap search, which walks each path past its prefixes
    prefix = Path(twice.base, twice.edges[:-1])
    for broken, region_, targets_, message in (
            (replace(fam, n_length=fam.n_length + 1), region, targets,
             "wrong path length"),
            (replace(fam, paths={**fam.paths, (0, 2, 0): twice}),
             region, targets, "paths not disjoint"),
            (replace(fam, paths={**fam.paths, (0, 2, 0): prefix}),
             region, targets,
             re.escape(f"paths not disjoint: {prefix} and {twice}") + "$"),
            (fam, region, {**targets, (1, 1): "w"}, "wrong end vertex"),
            (fam, region.complement(), targets,
             "cylinder escapes its container")):
        with pytest.raises(VerificationFailed, match=message):
            _check_path_families(EINF, broken, region_, region_.complement(),
                                 targets_)

    # the index lies in ker(id - phi), and a refined part has full depth
    homology = sys.modules["ggt.homology"]
    with monkeypatch.context() as m:
        m.setattr(homology, "is_zero", lambda c: False)
        with pytest.raises(VerificationFailed, match="ker\\(id - phi\\)"):
            homology.index(e)
    with monkeypatch.context() as m:
        m.setattr(Clopen, "refine_to", lambda self, depth: self)
        with pytest.raises(VerificationFailed, match="shallower than depth 1"):
            homology._phi_term(Clopen.full(EINF), -1)
    # a composed block never outgrows the two operands' depths
    deep = Path("v", ("L#1",) * 6)
    with monkeypatch.context() as m:
        m.setattr(sys.modules["ggt.fullgroup"], "compose_bisections",
                  lambda g, outer, inner: [Block(deep, (), deep)])
        with pytest.raises(VerificationFailed, match="deeper than the bound 5"):
            compose(tau_g, tau_g)


def test_factor_validates_once():
    # validate is cached per graph: the three stages of factor() that
    # read the criteria share one computation
    g = Graph("einf_copy", ["v"], [], [("L", "v", "v")])
    tau_g = transposition(g, [blk(g, "L#1.L#1", [], "L#2")])
    e = compose(tau_g, transposition(g, [blk(g, "L#3", [], "L#4")]))
    validate.cache_clear()
    assert factor(e).certified
    info = validate.cache_info()
    assert info.misses == 1 and info.hits >= 2


def test_factor_normalizes_each_product_once(monkeypatch):
    # the conjugation beta and the balanced core are one fold each,
    # normalized once; every other normal form is a transposition's
    tau_g = transposition(EINF, [blk(EINF, "L#2.L#1", [], "L#1")])
    e = compose(tau_g, transposition(EINF, [blk(EINF, "L#1", [], "L#2")]))
    assert {-1, 1} <= {b.lag() for b in e.blocks} <= {-1, 0, 1}
    fg, mod = sys.modules["ggt.fullgroup"], sys.modules["ggt.factor"]
    real_normalize, real_transposition = fg._normalize_table, mod.transposition
    normalized, built = [], []
    monkeypatch.setattr(fg, "_normalize_table", lambda g, live: (
        normalized.append(1) or real_normalize(g, live)))
    monkeypatch.setattr(mod, "transposition", lambda g, blocks: (
        built.append(1) or real_transposition(g, blocks)))
    assert factor(e).certified
    assert built and len(normalized) == 2 + len(built)


def test_submodules_are_not_shadowed():
    import ggt.factor
    import ggt.homology
    assert inspect.ismodule(ggt.factor) and inspect.ismodule(ggt.homology)
    assert ggt.factor.factor is factor
