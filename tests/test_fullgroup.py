import random
import re
import sys

import pytest

from ggt.errors import (CarrierMismatch, MalformedGraph, OverlappingSourceRange,
                        RangesOverlap, SourcesOverlap, VerificationFailed)
from ggt.fixtures import (cycle_graph, emitter_two_loops, infinite_rose,
                          mixed_graph, rose)
from ggt.factor import af_factor, find_bisection
from ggt.fullgroup import (Block, Element, _check_table, _fold,
                           _normalize_table, _totalize, acts_as, apply, bisection_range,
                           bisection_source, compose, compose_all,
                           compose_bisections, doubling_bisections,
                           graded_partition, identity_blocks, image_of,
                           inverse, is_involution, make_block,
                           parse_element_text, print_element, shrink_support,
                           support, transposition, validate_element)
from ggt.graphs import Graph, edge_key, family_member
from ggt.pathspace import (BoundaryPoint, Clopen, Path, Piece, canonicalize,
                           complement_pieces, find_overlap, intersect_pieces,
                           parse_clopen, parse_path, path_range,
                           subtract_piece)

from helpers import (dict_compose_bisections, dict_find_overlap,
                     mutate_clopen, point_family, punctured_transposition,
                     random_balanced_table, random_clopen, random_element,
                     random_transposition, reference_normalize_table,
                     refine_blocks)
from test_pathspace import TAIL

E2 = rose(2)
EINF = infinite_rose()
# a branching vertex u feeding the exitless loop at c: every piece
# ending at c is a single point
HOOK = Graph("hook", ["u", "c"], [("a", "u", "u"), ("b", "u", "u"),
                                  ("f", "u", "c"), ("x", "c", "c")])


def blk(g, mu, punct, nu):
    return make_block(g, parse_path(g, mu), punct, parse_path(g, nu))


def elem(g, *specs):
    return validate_element(g, [blk(g, m, f, n) for (m, f, n) in specs])


def swap_e2():
    return elem(E2, ("a", [], "b"), ("b", [], "a"))


def alpha0():
    return elem(E2, ("a", [], "a.a"), ("b.a", [], "a.b"), ("b.b", [], "b"))


def test_validate_examples():
    assert len(swap_e2().blocks) == 2
    with pytest.raises(RangesOverlap):
        elem(E2, ("a", [], "a"), ("a", [], "b"))
    with pytest.raises(SourcesOverlap):
        elem(E2, ("a", [], "a"), ("b", [], "a.b"))
    with pytest.raises(CarrierMismatch):
        elem(E2, ("a", [], "a.a"))
    # an empty source never reaches normalization: make_block refuses it
    a, b = parse_path(E2, "a"), parse_path(E2, "b")
    with pytest.raises(MalformedGraph,
                       match="^fully punctured regular cylinder is empty$"):
        validate_element(E2, [Block(a, ("a", "b"), b)])
    assert len(alpha0().blocks) == 3


def test_make_block_names_its_single_defect(monkeypatch):
    # each block has one defect and raises the message naming it; every
    # path is walked once
    g = mixed_graph()
    c1, d1, c2 = (parse_path(g, t) for t in ("c1", "d1", "c2"))
    bad = Path("b", ("c1", "l"))
    for graph, mu, punct, nu, message in (
            (g, Path("z"), (), c1, "unknown vertex 'z'"),
            (g, bad, (), c1, "path c1.l is not composable at 'l'"),
            (g, c1, (), bad, "path c1.l is not composable at 'l'"),
            # an unknown edge, an unknown family and a member of a family
            # that another vertex emits
            (g, Path("b", ("zzz",)), (), c1, "path zzz is not composable at 'zzz'"),
            (g, Path("c", ("G#1",)), (), c1, "path G#1 is not composable at 'G#1'"),
            (g, Path("b", ("c1", "F#2", "F#1")), (), c1,
             "path c1.F#2.F#1 is not composable at 'F#1'"),
            (g, c1, (), d1, "block paths c1 and d1 end at different vertices"),
            (g, c1, ("l",), c2, "puncture 'l' is not emitted by c"),
            (E2, Path("v", ("a",)), ("a", "b"), Path("v", ("b",)),
             "fully punctured regular cylinder is empty")):
        with pytest.raises(MalformedGraph, match=f"^{re.escape(message)}$"):
            make_block(graph, mu, punct, nu)
    walked = []
    for name in ("ggt.pathspace", "ggt.fullgroup"):
        mod = sys.modules[name]
        monkeypatch.setattr(mod, "check_path", lambda graph, p, real=mod.check_path: (
            walked.append(p) or real(graph, p)))
    assert make_block(g, c1, ("F#2", "F#1"), c2) == Block(c1, ("F#1", "F#2"), c2)
    assert walked == [c1, c2]


def test_normalization_drops_identities():
    assert elem(E2, ("a", [], "a")).is_identity()
    # split identity merges back and disappears
    assert elem(E2, ("a.a", [], "a.a"), ("a.b", [], "a.b"),
                ("b", [], "b")).is_identity()
    # a block fixing a single periodic point is the identity in disguise
    c2 = cycle_graph(2)
    assert elem(c2, ("x1.x2.x1", [], "x1")).is_identity()


def test_compose_examples():
    assert compose(swap_e2(), swap_e2()).is_identity()
    a0 = alpha0()
    assert compose(a0, inverse(a0)).is_identity()
    assert compose(inverse(a0), a0).is_identity()
    rng = random.Random(2)
    e = random_element(E2, rng, 3)
    assert acts_as([compose(e, Element.identity(E2))], e)
    assert acts_as([compose(Element.identity(E2), e)], e)


def test_inverse_examples():
    assert inverse(swap_e2()) == swap_e2()
    assert inverse(Element.identity(E2)).is_identity()
    a0 = alpha0()
    assert inverse(inverse(a0)) == a0
    got = {(str(b.mu), str(b.nu)) for b in inverse(a0).blocks}
    assert got == {("a.a", "a"), ("a.b", "b.a"), ("b", "b.b")}


def test_apply_examples():
    x = BoundaryPoint.periodic(E2, Path("v", ("a",)), ("b",))
    assert apply(swap_e2(), x) == BoundaryPoint.periodic(E2, Path("v"), ("b",))
    b_inf = BoundaryPoint.periodic(E2, Path("v"), ("b",))
    assert apply(alpha0(), b_inf) == b_inf
    assert apply(Element.identity(E2), x) == x


def test_apply_matches_compose():
    rng = random.Random(5)
    for g in (E2, EINF):
        pts = point_family(g, max_prefix=3)
        for _ in range(12):
            f = random_element(g, rng, 3)
            h = random_element(g, rng, 3)
            fh = compose(f, h)
            for x in pts[:50]:
                assert apply(fh, x) == apply(f, apply(h, x))


def test_group_laws_random():
    rng = random.Random(9)
    for g in (E2, EINF):
        for _ in range(8):
            a = random_element(g, rng, 2)
            b = random_element(g, rng, 2)
            c = random_element(g, rng, 2)
            assert acts_as([compose(compose(a, b), c)],
                           compose(a, compose(b, c)))
            assert compose(a, inverse(a)).is_identity()
            assert acts_as([a], a)


def test_support_examples():
    assert support(swap_e2()).equal(Clopen.full(E2))
    t12 = elem(EINF, ("L#1", [], "L#2"), ("L#2", [], "L#1"))
    assert str(support(t12)) == "Z(L#1) + Z(L#2)"
    assert support(Element.identity(E2)).is_empty()


def test_graded_partition_examples():
    part = graded_partition(alpha0())
    assert [(k, str(c)) for k, c in part.levels] == [
        (-1, "Z(a.a)"), (0, "Z(a.b)"), (1, "Z(b)")]
    t12 = elem(EINF, ("L#1", [], "L#2"), ("L#2", [], "L#1"))
    part = graded_partition(t12)
    assert part.keys() == [0] and part.part(0).equal(Clopen.full(EINF))
    part = graded_partition(Element.identity(E2))
    assert part.keys() == [0] and part.part(0).equal(Clopen.full(E2))


def test_partition_covers_everything():
    rng = random.Random(17)
    for g in (E2, EINF):
        for _ in range(10):
            e = random_element(g, rng, 4)
            part = graded_partition(e)
            acc = Clopen.empty(g)
            for k, c in part.levels:
                assert acc.intersect(c).is_empty()
                acc = acc.union(c)
            assert acc.equal(Clopen.full(g))


def test_transposition_examples():
    t12 = transposition(EINF, [blk(EINF, "L#1", [], "L#2")])
    assert compose(t12, t12).is_identity()
    assert str(support(t12)) == "Z(L#1) + Z(L#2)"
    t = transposition(E2, [blk(E2, "a.a", [], "a.b")])
    x = BoundaryPoint.periodic(E2, Path("v"), ("b",))
    assert apply(t, x) == x
    with pytest.raises(OverlappingSourceRange):
        transposition(E2, [blk(E2, "a", [], "a")])
    # the overlap search meets the longer source Z(a.a) first
    with pytest.raises(OverlappingSourceRange, match=(
            r"^source of block \[block b\.a \| - \| a\.a\] meets range "
            r"of block \[block a \| - \| b\.b\]$")):
        transposition(E2, [blk(E2, "b.a", [], "a.a"), blk(E2, "a", [], "b.b")])


def raw_block(g, mu, punctures, nu):
    """A block built without make_block, so that transposition checks it."""
    return Block(parse_path(g, mu), tuple(punctures), parse_path(g, nu))


def test_transposition_refusals():
    # every block is made before any overlap search, and the overlap
    # refusals come in the order sources, ranges, source against range,
    # naming the same blocks whichever overlaps the one search meets
    mixed = mixed_graph()
    cases = [
        # a malformed block before an overlapping pair
        (E2, [Block(Path("v", ("a", "z")), (), Path("v", ("b",))),
              raw_block(E2, "b.a", [], "a.a"), raw_block(E2, "b.b", [], "a")],
         MalformedGraph, "path a.z is not composable at 'z'"),
        (E2, [raw_block(E2, "b.a", [], "a.a"), raw_block(E2, "b.b", [], "a"),
              raw_block(E2, "a", ["a", "c"], "b")],
         MalformedGraph, "puncture 'c' is not emitted by v"),
        (E2, [raw_block(E2, "b.a", [], "a.a"), raw_block(E2, "b.b", [], "a")],
         SourcesOverlap, "blocks [block b.b | - | a] and "
         "[block b.a | - | a.a] have overlapping sources"),
        (E2, [raw_block(E2, "a", [], "b.a"), raw_block(E2, "a.b", [], "b.b")],
         RangesOverlap, "blocks [block a | - | b.a] and "
         "[block a.b | - | b.b] have overlapping ranges"),
        # sources and ranges overlap at once
        (E2, [raw_block(E2, "a.a", [], "b.a"), raw_block(E2, "a", [], "b")],
         SourcesOverlap, "blocks [block a | - | b] and "
         "[block a.a | - | b.a] have overlapping sources"),
        # and a source meets a range as well
        (E2, [raw_block(E2, "a.a", [], "b"), raw_block(E2, "a", [], "b.b"),
              raw_block(E2, "b.a", [], "a.b")],
         SourcesOverlap, "blocks [block a.a | - | b] and "
         "[block a | - | b.b] have overlapping sources"),
        (E2, [raw_block(E2, "b.a", [], "a.a"), raw_block(E2, "a", [], "b.b")],
         OverlappingSourceRange, "source of block [block b.a | - | a.a] "
         "meets range of block [block a | - | b.b]"),
        # punctured pieces at the infinite emitter v
        (EINF, [Block(Path("v", ("L#3",)), ("L#1",), Path("v")),
                Block(Path("v", ("L#4",)), ("L#2",), Path("v"))],
         SourcesOverlap, "blocks [block L#3 | L#1 | @v] and "
         "[block L#4 | L#2 | @v] have overlapping sources"),
        (EINF, [Block(Path("v"), ("L#1", "L#2"), Path("v", ("L#3",))),
                Block(Path("v", ("L#4",)), (), Path("v", ("L#1", "L#5")))],
         RangesOverlap, "blocks [block @v | L#1,L#2 | L#3] and "
         "[block L#4 | - | L#1.L#5] have overlapping ranges"),
        (EINF, [Block(Path("v", ("L#2",)), ("L#1",), Path("v"))],
         OverlappingSourceRange, "source of block [block L#2 | L#1 | @v] "
         "meets range of block [block L#2 | L#1 | @v]"),
        # an empty source, a fully punctured regular cylinder, is a bad
        # puncture set: make_block refuses it before any search
        (mixed, [Block(Path("u"), ("e",), Path("u"))],
         MalformedGraph, "fully punctured regular cylinder is empty"),
        (mixed, [raw_block(mixed, "d1.k1", [], "c1"),
                 raw_block(mixed, "d1", ["m1", "m2", "m3", "m4", "k1", "k2",
                                         "k3"], "d2")],
         MalformedGraph, "fully punctured regular cylinder is empty"),
    ]
    for g, blocks, error, message in cases:
        with pytest.raises(error) as info:
            transposition(g, blocks)
        assert type(info.value) is error and str(info.value) == message
    # punctures that keep the pieces apart at the emitter are accepted
    t = transposition(EINF, [Block(Path("v", ("L#1",)), ("L#1",), Path("v"))])
    assert [str(b) for b in t.blocks] == ["block L#1 | L#1 | @v",
                                          "block @v | L#1 | L#1"]


def test_transposition_of_canonical_single_tails_builds_one_trie(monkeypatch):
    # the one overlap search builds the only path trie when every
    # reduced-exchange group of the table is one canonical tail
    ps = sys.modules["ggt.pathspace"]
    real = ps.path_trie
    built = [0]

    def counted(paths):
        built[0] += 1
        return real(paths)

    monkeypatch.setattr(ps, "path_trie", counted)
    inputs = [(E2, [raw_block(E2, "a.a", [], "b")]),
              (E2, [raw_block(E2, "a.a", [], "b.b"),
                    raw_block(E2, "a.b", [], "b.a")]),
              (EINF, [raw_block(EINF, "L#1", [], "L#2")]),
              (EINF, [Block(Path("v", ("L#2", "L#2")), ("L#1", "L#3"),
                            Path("v", ("L#1",)))])]
    rng = random.Random(2602)
    for g in (E2, EINF, emitter_two_loops(), mixed_graph()):
        for _ in range(10):
            # a one-block transposition's normal form is that block and
            # its inverse, each a canonical tail alone in its group
            t = random_transposition(g, rng)
            if len(t.blocks) == 2:
                inputs.append((g, [t.blocks[0]]))
    for g, blocks in inputs:
        built[0] = 0
        t = transposition(g, blocks)
        assert built[0] == 1
        assert len(t.blocks) == 2 * len(blocks)


def split_all(g, blocks):
    """The same table with every plain block at a regular range vertex
    split into one block per out-edge, a complete sibling family that
    the normal form merges back."""
    out = []
    for b in blocks:
        v = path_range(g, b.nu)
        if b.punctures or g.is_singular(v):
            out.append(b)
        else:
            out.extend(Block(b.mu.extend(e), (), b.nu.extend(e))
                       for e in g.out_concrete(v))
    return out


def test_normal_form_matches_the_reference(monkeypatch):
    # every normal form made while building seeded transpositions,
    # products and validated tables (refined, or split to be merged back)
    # equals the one of the walk of every group; among them are single
    # tails that are not canonical and groups of several blocks
    fg = sys.modules["ggt.fullgroup"]
    real_normalize = fg._normalize_table
    real_canonical, real_pieces = fg.piece_is_canonical, fg.canonical_pieces
    seen = set()

    def normalize(g, live):
        got = real_normalize(g, live)
        assert got == reference_normalize_table(g, live)
        return got

    def canonical(g, p):
        ok = real_canonical(g, p)
        seen.add("canonical tail" if ok else "tail walked")
        return ok

    def pieces(g, tails):
        if len(tails) > 1:
            seen.add("several")
        return real_pieces(g, tails)

    monkeypatch.setattr(fg, "_normalize_table", normalize)
    monkeypatch.setattr(fg, "piece_is_canonical", canonical)
    monkeypatch.setattr(fg, "canonical_pieces", pieces)
    rng = random.Random(2603)
    for g in (E2, EINF, cycle_graph(3), mixed_graph(), emitter_two_loops()):
        for _ in range(6):
            punctured_transposition(g, rng)
            e = random_element(g, rng, rng.randrange(1, 4))
            f = random_element(g, rng, rng.randrange(1, 4))
            for x, y in ((e, f), (f, e), (e, inverse(e))):
                assert compose(x, y) == normalize(
                    g, _check_table(g, _fold(g, [x, y])))
            validate_element(g, refine_blocks(g, e.blocks, rng))
            validate_element(g, split_all(g, e.blocks))
    assert seen == {"canonical tail", "tail walked", "several"}


def test_transposition_squares_random():
    rng = random.Random(19)
    for g in (E2, EINF):
        for _ in range(25):
            t = random_transposition(g, rng)
            assert compose(t, t).is_identity()


def test_image_of_matches_points():
    rng = random.Random(21)
    for g in (E2, EINF):
        pts = point_family(g, max_prefix=3)
        for _ in range(10):
            e = random_element(g, rng, 3)
            from helpers import random_clopen
            a = random_clopen(g, rng)
            img = image_of(e, a)
            for x in pts[:50]:
                assert img.contains(apply(e, x)) == a.contains(x)


def test_lemma_image_of_graded_parts():
    # the image of S(k) under the element is the (-k) part of the inverse
    rng = random.Random(25)
    for g in (E2, EINF):
        for _ in range(10):
            e = random_element(g, rng, 4)
            part = graded_partition(e)
            ipart = graded_partition(inverse(e))
            for k, c in part.levels:
                assert image_of(e, c).equal(ipart.part(-k))


def _element_inside_first_loop(g, rng, count):
    """Random element supported inside Z(L#1): all paths get that prefix."""
    factors = []
    for _ in range(count):
        t = random_transposition(g, rng, max_len=2)
        blocks = [Block(Path("v", ("L#1",) + b.mu.edges), b.punctures,
                        Path("v", ("L#1",) + b.nu.edges)) for b in t.blocks]
        factors.append(validate_element(g, blocks))
    return compose_all(factors)


def test_lemma_conjugation_by_graded_transposition():
    # tau from a constant-lag bisection with source = supp(alpha) and
    # range off the support: supp(tau alpha tau) = r(V) and the graded
    # parts transport by tau
    rng = random.Random(27)
    g = EINF
    for _ in range(8):
        alpha = _element_inside_first_loop(g, rng, 2)
        if alpha.is_identity():
            continue
        sup = support(alpha)
        used = [4]
        for p in sup.pieces:
            for e in p.mu.edges + p.punctures:
                if "#" in e:
                    used.append(int(e.split("#")[1]))
        base = max(used) + 1
        v_blocks = []
        for i, p in enumerate(sup.pieces):
            loop = f"L#{base + i}"
            v_blocks.append(Block(Path("v", ("L#2", loop) + p.mu.edges),
                                  p.punctures, p.mu))
        tau = transposition(g, v_blocks)
        assert all(b.lag() == 2 for b in v_blocks)
        beta = compose(tau, compose(alpha, tau))
        assert support(beta).equal(bisection_range(g, v_blocks))
        bpart = graded_partition(beta)
        apart = graded_partition(alpha)
        for k in apart.keys():
            if k == 0:
                continue
            assert bpart.part(k).equal(image_of(tau, apart.part(k)))


def test_lemma_equal_partitions_quotient_balanced():
    rng = random.Random(29)
    g = EINF
    for _ in range(8):
        alpha = random_element(g, rng, 3)
        h = random_element(g, rng, 2, balanced=True)
        beta = compose(h, alpha)
        pa, pb = graded_partition(alpha), graded_partition(beta)
        assert pa.keys() == pb.keys()
        for k in pa.keys():
            assert pa.part(k).equal(pb.part(k))
        quotient = compose(beta, inverse(alpha))
        assert all(b.lag() == 0 for b in quotient.blocks)


def test_doubling_examples():
    w1, w2 = doubling_bisections(E2, Clopen.full(E2))
    assert [str(b) for b in w1] == ["block a | - | @v"]
    assert [str(b) for b in w2] == ["block b | - | @v"]
    w1, w2 = doubling_bisections(EINF, parse_clopen(EINF, "Z(L#1)"))
    assert bisection_range(EINF, w1).equal(parse_clopen(EINF, "Z(L#1.L#1)"))
    assert bisection_range(EINF, w2).equal(parse_clopen(EINF, "Z(L#1.L#2)"))
    w1, w2 = doubling_bisections(E2, parse_clopen(E2, "Z(a)"))
    assert bisection_range(E2, w1).equal(parse_clopen(E2, "Z(a.a)"))
    assert bisection_range(E2, w2).equal(parse_clopen(E2, "Z(a.b)"))


def test_doubling_routes_into_component():
    g = mixed_graph()
    a = parse_clopen(g, "Z(@u)")
    w1, w2 = doubling_bisections(g, a)
    assert bisection_source(g, w1).equal(a)
    assert bisection_source(g, w2).equal(a)
    r1, r2 = bisection_range(g, w1), bisection_range(g, w2)
    assert r1.intersect(r2).is_empty()
    assert r1.union(r2).subtract(a).is_empty()


def test_shrink_support():
    swap = swap_e2()
    tau, rest = shrink_support(swap)
    assert acts_as([tau], swap) and rest.is_identity()
    a0 = alpha0()
    tau, rest = shrink_support(a0)
    assert compose(tau, tau).is_identity()
    assert acts_as([compose(tau, rest)], a0)
    assert not support(rest).equal(Clopen.full(E2))
    rng = random.Random(33)
    for g in (E2, EINF):
        for _ in range(10):
            e = random_element(g, rng, 3)
            if e.is_identity():
                continue
            tau, rest = shrink_support(e)
            assert compose(tau, tau).is_identity()
            assert acts_as([compose(tau, rest)], e)
            assert not support(rest).equal(Clopen.full(g))


def test_element_file_round_trip():
    rng = random.Random(35)
    for g in (E2, EINF):
        for _ in range(10):
            e = random_element(g, rng, 3)
            text = print_element("probe", e)
            name, back = parse_element_text(g, text)
            assert name == "probe" and back == e


def test_equality_fallback_agreement():
    # normal forms are unique on these graphs: equal action is table
    # equality, and a product with the inverse of an equal element is
    # the identity
    rng = random.Random(39)
    for g in (E2, EINF):
        for _ in range(10):
            e = random_element(g, rng, 3)
            f = random_element(g, rng, 3)
            for x, y in ((e, f), (e, e)):
                assert acts_as([x], y) == (x == y)
                if x == y:
                    assert compose(x, inverse(y)).is_identity()


def test_regular_puncture_normal_form():
    # one element of rose(2), once with a puncture at the regular vertex
    # and once with plain blocks, normalizes to one table
    e = elem(E2, ("b", ["a"], "a"), ("a", ["a"], "b"))
    f = elem(E2, ("b.b", [], "a.b"), ("a.b", [], "b.b"))
    assert e == f and acts_as([e], f)
    assert str(e) == "block b.b | - | a.b\nblock a.b | - | b.b"


def test_normal_form_unique_over_orders_and_refinements():
    # none of these graphs has a one-point piece, so equal action must
    # be table equality
    rng = random.Random(113)
    for g in (E2, EINF, emitter_two_loops(), mixed_graph()):
        for _ in range(5):
            a, b, c = (compose(random_element(g, rng, 1, max_len=2),
                               punctured_transposition(g, rng))
                       for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert left.blocks == right.blocks
            refined = [validate_element(g, refine_blocks(g, e.blocks, rng))
                       for e in (a, left)]
            assert refined == [a, left]
            pool = (a, b, left, right, refined[0], inverse(c))
            for x in pool:
                for y in pool:
                    assert acts_as([x], y) == (x == y)


def reference_pairs(g, outer, inner):
    """compose_bisections by pairing every block with every block."""
    out = []
    for bi in inner:
        for bo in outer:
            piece = intersect_pieces(g, bi.range_piece(), bo.source_piece())
            if piece is None:
                continue
            lam = piece.mu.edges[len(bi.mu):]
            rho = piece.mu.edges[len(bo.nu):]
            out.append(Block(Path(bo.mu.base, bo.mu.edges + rho),
                             piece.punctures,
                             Path(bi.nu.base, bi.nu.edges + lam)))
    return out


def reference_compose(*factors):
    """compose_all through the all-pairs reference, last factor first.

    Every table is made total with identity blocks over the carrier
    complement, computed as a subtraction from the whole space.
    """
    g = factors[0].graph

    def total(e):
        rest = Clopen.full(g).subtract(support(e))
        return list(e.blocks) + [Block(p.mu, p.punctures, p.mu)
                                 for p in rest.pieces]

    out = total(factors[-1])
    for f in reversed(factors[:-1]):
        out = reference_pairs(g, total(f), out)
    return _normalize_table(g, _check_table(g, out))


def reference_image_of(e, a):
    """image_of by restricting each block and subtracting its source."""
    g = e.graph
    pieces = []
    for p in a.pieces:
        remaining = [p]
        for b in e.blocks:
            hit = intersect_pieces(g, p, b.source_piece())
            if hit is None:
                continue
            lam = hit.mu.edges[len(b.nu):]
            pieces.append(Piece(Path(b.mu.base, b.mu.edges + lam), hit.punctures))
            remaining = [x for r in remaining
                         for x in subtract_piece(g, r, b.source_piece())]
        pieces.extend(remaining)  # identity region
    return Clopen(g, canonicalize(g, pieces))


def test_compose_bisections_matches_all_pairs_reference():
    # partial block lists: nothing makes either side total
    rng = random.Random(73)
    graphs = (E2, EINF, emitter_two_loops(), mixed_graph())
    for g in graphs:
        for _ in range(15):
            outer = list(random_transposition(g, rng).blocks)
            inner = list(random_transposition(g, rng).blocks)
            for o, i in ((outer, inner), (inner, outer), (outer, outer)):
                got = compose_bisections(g, o, i)
                assert (sorted(got, key=Block.key)
                        == sorted(reference_pairs(g, o, i), key=Block.key))
    # chained matchings a -> b -> c; mixed_graph has a source, so its
    # classes (and find_bisection) are undefined
    for g in graphs[:3]:
        done = 0
        while done < 8:
            a = random_clopen(g, rng, pieces=2, max_len=2)
            if a.is_empty():
                continue
            b = mutate_clopen(g, rng, a, moves=2)
            c = mutate_clopen(g, rng, b, moves=2)
            inner, outer = find_bisection(a, b), find_bisection(b, c)
            got = compose_bisections(g, outer, inner)
            assert (sorted(got, key=Block.key)
                    == sorted(reference_pairs(g, outer, inner), key=Block.key))
            assert bisection_source(g, got).equal(a)
            assert bisection_range(g, got).equal(c)
            done += 1


def test_image_of_matches_subtraction_reference():
    rng = random.Random(79)
    for g in (E2, EINF, emitter_two_loops(), mixed_graph()):
        for _ in range(12):
            e = random_element(g, rng, rng.randrange(0, 4))
            for a in (random_clopen(g, rng), support(e), Clopen.full(g)):
                assert image_of(e, a) == reference_image_of(e, a)


def test_compose_matches_all_pairs_reference():
    # the tables themselves must agree, not only the actions
    rng = random.Random(61)
    for g in (E2, EINF, emitter_two_loops(), mixed_graph()):
        for _ in range(12):
            f = random_element(g, rng, rng.randrange(1, 5))
            h = random_element(g, rng, rng.randrange(1, 5))
            for x, y in ((f, h), (h, f), (f, inverse(f)), (f, f)):
                assert compose(x, y).blocks == reference_compose(x, y).blocks


def test_one_point_piece_tables_match_the_subtraction_reference():
    # the uniqueness theorem of _normalize_table does not cover these
    # graphs, so the tables are pinned to the reference, whose identity
    # region is partitioned differently from the trie walk's
    rng = random.Random(67)
    products = 0
    for g in (TAIL, cycle_graph(3), HOOK):
        for _ in range(10):
            f = random_element(g, rng, rng.randrange(1, 4))
            h = random_element(g, rng, rng.randrange(1, 4))
            for x, y in ((f, h), (h, f), (f, inverse(f)), (f, f)):
                ref = reference_compose(x, y)
                assert compose(x, y).blocks == ref.blocks
                assert acts_as([x, y], ref)
                products += 1
            ref = reference_compose(f, h, f)
            assert compose_all([f, h, f]).blocks == ref.blocks
            assert acts_as([f, h, f], ref)
            for a in (random_clopen(g, rng), support(h), Clopen.full(g)):
                assert image_of(f, a) == reference_image_of(f, a)
    assert products == 120


def test_identity_region_is_one_disjoint_walk():
    # the raw sources, and a refinement of them, leave pairwise disjoint
    # pieces off the support, as deep as the element at most, which
    # canonicalize to the support's complement
    rng = random.Random(71)
    graphs = (E2, EINF, emitter_two_loops(), mixed_graph(), TAIL,
              cycle_graph(3))
    for g in graphs:
        for _ in range(15):
            e = random_element(g, rng, rng.randrange(0, 4))
            carrier = support(e)
            for blocks in (e.blocks, refine_blocks(g, e.blocks, rng)):
                rest = complement_pieces(g, [b.source_piece() for b in blocks])
                assert not any(intersect_pieces(g, p, q)
                               for i, p in enumerate(rest) for q in rest[:i])
                assert not any(intersect_pieces(g, p, q)
                               for p in rest for q in carrier.pieces)
                assert canonicalize(g, rest) == carrier.complement().pieces
                assert all(p.depth() <= e.max_depth() for p in rest)


def test_totalize_canonicalizes_nothing_and_runs_once_per_factor(monkeypatch):
    fg, ps = sys.modules["ggt.fullgroup"], sys.modules["ggt.pathspace"]
    walks = []
    for mod in (fg, ps):
        for name in ("canonicalize", "canonical_pieces"):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda g, pieces, real=real: (
                walks.append(1) or real(g, pieces)))
    rng = random.Random(83)
    for g in (E2, EINF, emitter_two_loops(), mixed_graph(), TAIL):
        for _ in range(5):
            e = random_element(g, rng, rng.randrange(1, 4))
            walks.clear()
            table = _totalize(e)
            assert walks == []
            assert bisection_source(g, table) == Clopen.full(g)
    # compose_all([t, e, t]) totalizes t once, last factor included;
    # so does the certification fold of acts_as
    real_totalize = fg._totalize
    seen = []
    monkeypatch.setattr(fg, "_totalize",
                        lambda x: seen.append(id(x)) or real_totalize(x))
    t = transposition(EINF, [blk(EINF, "L#1.L#1", [], "L#2")])
    e = elem(EINF, ("L#3", [], "L#4"), ("L#4", [], "L#3"))
    beta = compose_all([t, e, t])
    assert sorted(seen) == sorted([id(t), id(e)])
    seen.clear()
    assert acts_as([t, e, t], beta)
    assert len(seen) == 3 and seen.count(id(t)) == 1


def separated(a, b):
    """True when one piece's path extends the other's through one of the
    shorter piece's punctures, so the two pieces cannot meet."""
    for short, long_ in ((a, b), (b, a)):
        if (short.mu.is_prefix_of(long_.mu) and len(short.mu) < len(long_.mu)
                and long_.mu.edges[len(short.mu)] in short.punctures):
            return True
    return False


def test_pairing_skips_pieces_a_puncture_separates(monkeypatch):
    # total tables of random elements carry punctures on both sides; the
    # pairing must give the all-pairs list in the same order, and never
    # intersect two pieces that a puncture keeps apart
    fg = sys.modules["ggt.fullgroup"]
    real = fg.intersect_pieces
    paired = []
    monkeypatch.setattr(fg, "intersect_pieces",
                        lambda g, a, b: paired.append((a, b)) or real(g, a, b))
    rng = random.Random(97)
    skipped = 0
    for g in (EINF, emitter_two_loops(), mixed_graph()):
        tables = [_totalize(random_element(g, rng, rng.randrange(1, 4)))
                  for _ in range(10)]
        assert sum(bool(b.punctures) for t in tables for b in t) > 10
        for outer in tables[:5]:
            for inner in tables[5:]:
                for o, i in ((outer, inner), (inner, outer)):
                    paired.clear()
                    assert compose_bisections(g, o, i) == reference_pairs(g, o, i)
                    assert not any(separated(a, b) for a, b in paired)
                    skipped += sum(separated(bi.range_piece(), bo.source_piece())
                                   for bi in i for bo in o)
    assert skipped > 100


def test_compose_all_is_one_fold_of_compose():
    # normal forms are unique, so the n-fold product and the pairwise
    # left fold must give the same table
    rng = random.Random(101)
    for g in (E2, EINF, emitter_two_loops(), mixed_graph()):
        for _ in range(8):
            fs = [random_element(g, rng, rng.randrange(1, 3), max_len=2)
                  for _ in range(rng.randrange(1, 6))]
            acc = fs[0]
            for f in fs[1:]:
                acc = compose(acc, f)
            assert compose_all(fs).blocks == acc.blocks


def test_compose_all_depth_guard_is_the_summed_bound(monkeypatch):
    # three factors: sum(max_depth) + 2 edges pass, one more is refused
    fs = [transposition(EINF, [blk(EINF, mu, [], nu)])
          for mu, nu in (("L#2.L#1", "L#1"), ("L#3", "L#4"),
                         ("L#5.L#5.L#5", "L#6"))]
    bound = sum(f.max_depth() for f in fs) + 2
    assert bound == 2 + 1 + 3 + 2
    fg = sys.modules["ggt.fullgroup"]
    for length in (bound, bound + 1):
        deep = Path("v", ("L#1",) * length)
        monkeypatch.setattr(fg, "compose_bisections",
                            lambda g, outer, inner: [Block(deep, (), deep)])
        if length == bound:
            assert compose_all(fs).is_identity()
        else:
            with pytest.raises(VerificationFailed,
                               match=f"deeper than the bound {bound}$"):
                compose_all(fs)


def test_transposition_checks_its_carrier_without_canonicalizing(monkeypatch):
    # a transposition's table has source + range as both its source union
    # and its range union, so building one canonicalizes nothing
    fg = sys.modules["ggt.fullgroup"]
    ps = sys.modules["ggt.pathspace"]
    real_check, real_canon = fg._check_table, ps.canonicalize
    inside, calls = [], []

    def check(g, blocks):
        inside.append(1)
        try:
            return real_check(g, blocks)
        finally:
            inside.pop()

    def canon(g, pieces):
        calls.append(len(inside))
        return real_canon(g, pieces)

    monkeypatch.setattr(fg, "_check_table", check)
    for mod in (fg, ps):
        monkeypatch.setattr(mod, "canonicalize", canon)
    rng = random.Random(103)
    for g in (E2, EINF, emitter_two_loops(), mixed_graph()):
        for _ in range(5):
            t = random_transposition(g, rng)
            assert calls == []
            assert is_involution(t)
            calls.clear()
    # differing pieces still go through the canonical forms
    calls.clear()
    assert len(alpha0().blocks) == 3
    assert calls == [1, 1]
    with pytest.raises(CarrierMismatch, match=(
            r"^source union Z\(@v\) differs from range union "
            r"Z\(b\) \+ Z\(a\.a\)$")):
        elem(E2, ("a.a", [], "a"), ("b", [], "b"))


def three_cycle_with_lag():
    """Order-3 element of EINF: Z(L#3) -> Z(L#2.L#1) -> Z(L#1) -> Z(L#3)."""
    return elem(EINF, ("L#2.L#1", [], "L#3"), ("L#1", [], "L#2.L#1"),
                ("L#3", [], "L#1"))


def test_is_involution_structural_and_fallback(monkeypatch):
    fg = sys.modules["ggt.fullgroup"]
    calls = []
    real = fg.acts_as
    monkeypatch.setattr(fg, "acts_as",
                        lambda fs, h: calls.append(1) or real(fs, h))
    # transpositions equal their inverse tables: no fold
    t = transposition(EINF, [blk(EINF, "L#1.L#1", [], "L#2")])
    assert is_involution(t) and is_involution(swap_e2())
    assert is_involution(Element.identity(EINF))
    assert calls == []
    # a table that differs from its inverse is decided by the fold
    # acts_as([t, t], identity)
    c = three_cycle_with_lag()
    assert any(b.lag() == 1 for b in c.blocks)
    assert not is_involution(c)
    assert calls == [1]
    # an unsorted involution table also takes the fallback, and passes
    flipped = Element(E2, tuple(reversed(swap_e2().blocks)))
    assert is_involution(flipped)
    assert calls == [1, 1]


def test_acts_as_decides_fixed_singletons():
    # Z(f) is the single point f.x.x...: a lag-2 swap of it with a.f.x
    # equals the lag-1 swap with a.f, so the fold leaves the block
    # (a.f | - | a.f.x), whose one source point it fixes
    g = Graph("tail", ["u", "c"],
              [("a", "u", "u"), ("b", "u", "u"), ("f", "u", "c"),
               ("x", "c", "c")])
    t1 = transposition(g, [blk(g, "a.f", [], "f")])
    t2 = transposition(g, [blk(g, "a.f.x", [], "f")])
    assert t1.blocks != t2.blocks
    assert acts_as([t1], t2) and acts_as([t2], t1)
    assert acts_as([t1, t2], Element.identity(g))
    t3 = transposition(g, [blk(g, "b.f", [], "f")])
    assert not acts_as([t3], t1)


def test_acts_as_refuses_partial_tables(monkeypatch):
    # tables that do not cover the space must not pass as identities:
    # with the identity blocks off the carriers left out, the fold of
    # t12 . t34 against t12 ends empty, which is not total
    t12 = transposition(EINF, [blk(EINF, "L#1", [], "L#2")])
    t34 = transposition(EINF, [blk(EINF, "L#3", [], "L#4")])
    assert acts_as([t12], t12) and not acts_as([t12, t34], t12)
    monkeypatch.setattr(sys.modules["ggt.fullgroup"], "_totalize",
                        lambda e: list(e.blocks))
    assert not acts_as([t12, t34], t12)


def test_acts_as_refusals_and_answers_on_final_tables(monkeypatch):
    # the fold's last compose_bisections is replaced by a fixed final
    # table: the refusals come in the order sources, ranges, carrier, all
    # before totality is read, and a mu != nu block over a one-point
    # piece passes when the exchange fixes that point
    fg = sys.modules["ggt.fullgroup"]

    def total(g, blocks):
        return blocks + identity_blocks(complement_pieces(
            g, [b.source_piece() for b in blocks]))

    r = raw_block
    cases = [
        (E2, [r(E2, "a", [], "a"), r(E2, "a.a", [], "a.a"), r(E2, "b", [], "b")],
         SourcesOverlap, "blocks [block a | - | a] and "
         "[block a.a | - | a.a] have overlapping sources"),
        # not total either
        (E2, [r(E2, "a", [], "a"), r(E2, "a.a", [], "a.a")],
         SourcesOverlap, "blocks [block a | - | a] and "
         "[block a.a | - | a.a] have overlapping sources"),
        # the ranges overlap too, or the unions differ too
        (E2, [r(E2, "a.a", [], "a"), r(E2, "a", [], "a.a")],
         SourcesOverlap, "blocks [block a.a | - | a] and "
         "[block a | - | a.a] have overlapping sources"),
        (E2, [r(E2, "a", [], "a"), r(E2, "b.a", [], "a.a")],
         SourcesOverlap, "blocks [block a | - | a] and "
         "[block b.a | - | a.a] have overlapping sources"),
        (E2, [r(E2, "a", [], "b"), r(E2, "a.a", [], "a")],
         RangesOverlap, "blocks [block a | - | b] and "
         "[block a.a | - | a] have overlapping ranges"),
        (E2, [r(E2, "a.a", [], "b"), r(E2, "a.a.b", [], "a.a")],
         RangesOverlap, "blocks [block a.a | - | b] and "
         "[block a.a.b | - | a.a] have overlapping ranges"),
        (EINF, total(EINF, [r(EINF, "L#2", ["L#1"], "L#1"),
                            r(EINF, "L#1", [], "L#3")]),
         RangesOverlap, "blocks [block @v | L#1,L#3 | @v] and "
         "[block L#2 | L#1 | L#1] have overlapping ranges"),
        (E2, [r(E2, "a.a", [], "a"), r(E2, "b", [], "b")],
         CarrierMismatch, "source union Z(@v) differs from range union "
         "Z(b) + Z(a.a)"),
        (E2, [r(E2, "a.a", [], "a")],
         CarrierMismatch, "source union Z(a) differs from range union Z(a.a)"),
        (EINF, [r(EINF, "@v", ["L#1"], "@v"), r(EINF, "L#1.L#2", [], "L#1")],
         CarrierMismatch, "source union Z(@v) differs from range union "
         r"Z(@v \ L#1) + Z(L#1.L#2)"),
        # Z(a.f.x) is the one point a.f.x.x..., which (a.f | a.f.x) fixes
        # and (b.f.x | a.f) moves
        (HOOK, total(HOOK, [r(HOOK, "a.f", [], "a.f.x")]), None, True),
        (HOOK, total(HOOK, [r(HOOK, "b.f.x", [], "a.f"),
                            r(HOOK, "a.f", [], "b.f.x")]), None, False),
    ]
    for g, table, error, expected in cases:
        monkeypatch.setattr(fg, "compose_bisections",
                            lambda g, outer, inner, table=table: list(table))
        x = Element.identity(g)
        if error is None:
            assert acts_as([x], x) is expected
            continue
        with pytest.raises(error) as info:
            acts_as([x], x)
        assert type(info.value) is error and str(info.value) == expected


def test_acts_as_builds_one_trie_for_the_final_table(monkeypatch):
    # one path trie per distinct totalized factor (e^{-1} among them), one
    # per compose step, and one that serves the final table's overlap
    # search and complement walk
    fg = sys.modules["ggt.fullgroup"]
    ps = sys.modules["ggt.pathspace"]
    real_trie, real_acts = ps.path_trie, fg.acts_as
    built, counts = [0], []

    def counted(paths):
        built[0] += 1
        return real_trie(paths)

    def acts(factors, e):
        factors = list(factors)
        built[0] = 0
        out = real_acts(factors, e)
        distinct = len({id(f) for f in factors}) + 1
        counts.append((len(factors), built[0], distinct + len(factors) + 1))
        return out

    for mod in (fg, ps):
        monkeypatch.setattr(mod, "path_trie", counted)
    monkeypatch.setattr(sys.modules["ggt.factor"], "acts_as", acts)
    rng = random.Random(2704)
    for _ in range(12):
        af_factor(random_balanced_table(E2, rng, depth=rng.randrange(2, 5)))
    assert all(got == expected for _, got, expected in counts)
    assert {got for n, got, _ in counts if n == 2} == {6}


def test_is_involution_agrees_with_the_fold():
    # the table comparison, and the fold when it fails, decide exactly what
    # acts_as([t, t], identity) decides
    rng = random.Random(2705)
    tables = [three_cycle_with_lag(), swap_e2(), alpha0()]
    g = Graph("tail", ["u", "c"],
              [("a", "u", "u"), ("b", "u", "u"), ("f", "u", "c"),
               ("x", "c", "c")])
    t1, t2, t3 = (transposition(g, [blk(g, mu, [], "f")])
                  for mu in ("a.f", "a.f.x", "b.f"))
    tables += [t1, t2, t3, compose(t1, t2), compose(t3, t1),
               compose(t1, compose(t3, t1))]
    for h in (E2, EINF, emitter_two_loops(), mixed_graph()):
        for _ in range(6):
            a, b = random_transposition(h, rng), random_transposition(h, rng)
            tables += [a, compose(a, b), compose(a, compose(b, a))]
    for _ in range(6):
        fact = af_factor(random_balanced_table(E2, rng, depth=3))
        tables.extend(fact.transpositions)
    # hand-built tables in other than sorted order
    for t in list(tables):
        if len(t.blocks) > 1:
            blocks = list(t.blocks)
            rng.shuffle(blocks)
            tables.append(Element(t.graph, tuple(blocks)))
    outcomes = set()
    for t in tables:
        expected = acts_as([t, t], Element.identity(t.graph))
        assert is_involution(t) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def pairing_tables(g, rng):
    """Block lists of mixed depths with punctured blocks among them: an
    element's table, total tables, a split total table and the identity
    blocks of a clopen. Every piece is nonempty, as ``compose_bisections``
    requires of its inputs."""
    e = random_element(g, rng, rng.randrange(1, 4), max_len=rng.randrange(1, 5))
    t = punctured_transposition(g, rng, max_len=3)
    split = refine_blocks(g, _totalize(e), rng, splits=rng.randrange(1, 6))
    return [list(e.blocks), _totalize(e), _totalize(t), split,
            identity_blocks(random_clopen(g, rng, max_len=4).pieces)]


def test_trie_pairing_matches_the_dictionary_reference():
    # the same blocks in the same order as the prefix-dictionary pairing
    rng = random.Random(131)
    punctured = 0
    for g in (E2, EINF, emitter_two_loops()):
        for _ in range(10):
            tables = pairing_tables(g, rng)
            punctured += sum(bool(b.punctures) for t in tables for b in t)
            for outer in tables:
                for inner in tables:
                    assert (compose_bisections(g, outer, inner)
                            == dict_compose_bisections(g, outer, inner))
    assert punctured > 50


def free_out_edges(g, p):
    """Out-edges at the range of p off its punctures, with at least two
    members of each family."""
    v = path_range(g, p.mu)
    refs = list(g.out_concrete(v))
    refs += [family_member(f, k) for f in g.out_families(v)
             for k in range(1, len(p.punctures) + 3)]
    return [e for e in refs if e not in p.punctures]


def plant_overlap(g, rng, pieces):
    """Insert at a random place a piece meeting a listed piece p: below
    it, above it on one of its strict prefixes, or on its own path with
    other punctures. Returns the kind and whether the planted piece is
    the shorter one and comes later than p."""
    p = rng.choice(pieces)
    kind = rng.choice(("below", "above", "same") if p.mu.edges
                      else ("below", "same"))
    if kind == "below":
        q = Piece(p.mu.extend(rng.choice(free_out_edges(g, p))))
    elif kind == "above":
        cut = rng.randrange(len(p.mu.edges))
        mu = Path(p.mu.base, p.mu.edges[:cut])
        others = [e for e in free_out_edges(g, Piece(mu))
                  if e != p.mu.edges[cut]]
        punct = rng.sample(others, rng.randrange(0, min(2, len(others)) + 1))
        q = Piece(mu, tuple(sorted(set(punct), key=edge_key)))
    else:
        out = free_out_edges(g, Piece(p.mu))
        punct = rng.sample(out, rng.randrange(0, min(2, len(out)) + 1))
        q = Piece(p.mu, tuple(sorted(set(punct), key=edge_key)))
    at = rng.randrange(len(pieces) + 1)
    later = kind == "above" and at > pieces.index(p)
    pieces.insert(at, q)
    return kind, later


def test_trie_overlap_search_matches_the_dictionary_reference():
    # disjoint source lists give None; a planted overlap gives the pair
    # the prefix-dictionary search reports, also when the shorter piece
    # comes later in the list
    rng = random.Random(137)
    found = dict.fromkeys(("below", "above", "same", "later"), 0)
    for g in (E2, EINF, emitter_two_loops()):
        for _ in range(50):
            e = random_element(g, rng, rng.randrange(1, 4))
            table = rng.choice((list(e.blocks), _totalize(e)))
            pieces = [b.source_piece() for b in table]
            rng.shuffle(pieces)
            assert find_overlap(g, pieces) is None
            assert dict_find_overlap(g, pieces) is None
            if not pieces:
                continue
            for _ in range(rng.randrange(1, 3)):
                kind, later = plant_overlap(g, rng, pieces)
                got = find_overlap(g, pieces)
                assert got == dict_find_overlap(g, pieces)
                if got is not None:
                    found[kind] += 1
                    found["later"] += later
    assert min(found.values()) >= 10, found
