import random

import pytest

from ggt.errors import MalformedGraph, ParseError
from ggt.fixtures import (cycle_graph, emitter_two_loops, infinite_rose,
                          mixed_graph, rose)
from ggt.graphs import Graph, edge_key, family_member
from ggt.pathspace import (BoundaryPoint, Clopen, Path, Piece,
                           canonical_pieces, canonicalize, make_piece,
                           parse_clopen, parse_path, parse_piece, path_range,
                           prepend_prefix, singleton_point, strip_prefix)

from helpers import (member_set, pairwise_intersect, pairwise_subtract,
                     point_family, random_clopen, random_walk,
                     recursive_canonical_pieces, symmetric_difference_empty)

E2 = rose(2)
EINF = infinite_rose()
C2 = cycle_graph(2)
MIXED = mixed_graph()
# a loop vertex feeding a sink: pieces ending at s are single points
TAIL = Graph("tail", ["v", "s"], [("a", "v", "v"), ("b", "v", "s"),
                                  ("c", "v", "s")], [])


def clo(g, text):
    return parse_clopen(g, text)


def test_intersect_examples():
    assert clo(E2, "Z(a)").intersect(clo(E2, "Z(b)")).is_empty()
    assert clo(E2, r"Z(@v \ a)").intersect(clo(E2, "Z(a.b)")).is_empty()
    got = clo(E2, r"Z(@v \ a)").intersect(clo(E2, "Z(b.a)"))
    assert got.equal(clo(E2, "Z(b.a)"))


def test_subtract_examples():
    got = clo(EINF, "Z(@v)").subtract(clo(EINF, "Z(L#3)"))
    assert str(got) == r"Z(@v \ L#3)"
    assert clo(E2, "Z(@v)").subtract(clo(E2, "Z(a) + Z(b)")).is_empty()
    got = clo(E2, "Z(a)").subtract(clo(E2, "Z(a.a)"))
    assert str(got) == "Z(a.b)"


def test_empty_and_equal_examples():
    assert Clopen(E2, (Piece(Path("v"), ("a", "b")),)).is_empty()
    assert not clo(EINF, r"Z(@v \ L#1)").is_empty()
    assert clo(E2, "Z(@v)").equal(clo(E2, "Z(a) + Z(b)"))


def test_refine_examples():
    got = clo(E2, "Z(@v)").refine_to(2)
    assert str(got) == "Z(a.a) + Z(a.b) + Z(b.a) + Z(b.b)"
    got = clo(EINF, "Z(@v)").refine_to(1)
    assert str(got) == "Z(@v)"
    got = clo(C2, "Z(x1)").refine_to(2)
    assert str(got) == "Z(x1.x2)"


def test_member_examples():
    x = BoundaryPoint.periodic(E2, Path("v"), ("a",))
    assert clo(E2, "Z(a.a)").contains(x)
    y = BoundaryPoint.at_singular(EINF, Path("v", ("L#1",)))
    assert not clo(EINF, r"Z(@v \ L#1)").contains(y)
    z = BoundaryPoint.at_singular(EINF, Path("v"))
    assert clo(EINF, r"Z(@v \ L#1)").contains(z)


def test_piece_validation():
    with pytest.raises(MalformedGraph):
        make_piece(E2, Path("v"), ("a", "b"))
    with pytest.raises(MalformedGraph):
        make_piece(E2, Path("v", ("a",)), ("zzz",))
    with pytest.raises(ParseError):
        parse_piece(E2, "Z(a.zzz)")


def test_parser_round_trip():
    rng = random.Random(23)
    for g in (E2, EINF, MIXED):
        for _ in range(40):
            a = random_clopen(g, rng)
            assert parse_clopen(g, str(a)).equal(a)
            for p in a.pieces:
                assert parse_piece(g, str(p)) == p
                assert parse_path(g, str(p.mu)) == p.mu


def test_canonical_idempotent_and_equal_agreement():
    rng = random.Random(31)
    for g in (E2, EINF, MIXED):
        pts = point_family(g)
        for _ in range(60):
            a = random_clopen(g, rng)
            b = random_clopen(g, rng)
            assert a.canonical() == a.canonical().canonical()
            structural = a.equal(b)
            pointwise = symmetric_difference_empty(a, b)
            assert structural == pointwise
            if structural:
                assert member_set(a, pts) == member_set(b, pts)


def test_boolean_algebra_against_point_oracle():
    rng = random.Random(37)
    for g in (E2, EINF, C2, MIXED):
        pts = point_family(g)
        full = Clopen.full(g)
        for _ in range(60):
            a = random_clopen(g, rng)
            b = random_clopen(g, rng)
            c = random_clopen(g, rng)
            sa, sb, sc = (member_set(x, pts) for x in (a, b, c))
            assert member_set(a.intersect(b), pts) == sa & sb
            assert member_set(a.subtract(b), pts) == sa - sb
            # the complement walks land on the pairwise pieces
            assert a.intersect(b).pieces == pairwise_intersect(a, b).pieces
            assert a.subtract(b).pieces == pairwise_subtract(a, b).pieces
            assert member_set(a.union(b), pts) == sa | sb
            assert member_set(full.subtract(a), pts) == member_set(full, pts) - sa
            # distributivity and De Morgan inside the full space
            assert a.intersect(b.union(c)).equal(
                a.intersect(b).union(a.intersect(c)))
            assert full.subtract(a.union(b)).equal(
                full.subtract(a).intersect(full.subtract(b)))
            assert a.intersect(b).equal(b.intersect(a))
            assert a.union(b).equal(b.union(a))


def test_refine_preserves_sets():
    rng = random.Random(41)
    for g in (E2, EINF, MIXED):
        for _ in range(30):
            a = random_clopen(g, rng)
            for depth in (1, 2, 3):
                assert a.refine_to(depth).equal(a)


def test_singleton_points():
    assert singleton_point(C2, Piece(Path("u1"))) == \
        BoundaryPoint.periodic(C2, Path("u1"), ("x1", "x2"))
    assert singleton_point(E2, Piece(Path("v"))) is None
    assert singleton_point(EINF, Piece(Path("v"))) is None
    sink = parse_path(MIXED, "@c")
    # the emitter piece is infinite, a sink piece would be a point
    assert singleton_point(MIXED, Piece(sink)) is None


def test_strip_and_prepend():
    x = BoundaryPoint.periodic(E2, Path("v", ("a", "b")), ("a", "b"))
    w = strip_prefix(E2, x, Path("v", ("a",)))
    assert prepend_prefix(E2, Path("v", ("a",)), w) == x
    # stripping deeper than the prefix unrolls the cycle
    w2 = strip_prefix(E2, x, Path("v", ("a", "b", "a")))
    assert w2 == BoundaryPoint.periodic(E2, Path("v"), ("b", "a"))


def test_canonical_form_unique_under_resplitting():
    # re-expressing a set by splitting pieces and shuffling must land on
    # the identical canonical piece list
    rng = random.Random(53)
    for g in (E2, EINF, MIXED):
        for _ in range(30):
            a = random_clopen(g, rng).canonical()
            pieces = list(a.pieces)
            for _ in range(4):
                if not pieces:
                    break
                i = rng.randrange(len(pieces))
                p = pieces[i]
                v = path_range(g, p.mu)
                if g.is_regular(v):
                    outs = [e for e in g.out_concrete(v) if e not in p.punctures]
                    del pieces[i]
                    pieces.extend(Piece(p.mu.extend(e)) for e in outs)
                else:
                    fams = g.out_families(v)
                    if not fams:
                        continue
                    k = 1
                    while family_member(fams[0], k) in p.punctures:
                        k += 1
                    e = family_member(fams[0], k)
                    del pieces[i]
                    pieces.append(Piece(p.mu, tuple(sorted(p.punctures + (e,)))))
                    pieces.append(Piece(p.mu.extend(e)))
            rng.shuffle(pieces)
            assert Clopen.of(g, pieces) == a


def test_complement_matches_subtraction_and_points():
    # the trie walk must land on the piece list of the subtraction from
    # the whole space, also for non-canonical inputs: refined pieces,
    # duplicated pieces and overlapping unions
    rng = random.Random(59)
    for g in (E2, EINF, C2, MIXED, TAIL):
        pts = point_family(g, max_prefix=3)
        full = Clopen.full(g)
        everything = member_set(full, pts)
        for _ in range(25):
            a = random_clopen(g, rng)
            b = random_clopen(g, rng)
            for c in (a, a.refine_to(rng.randrange(1, 4)),
                      Clopen(g, a.pieces + a.pieces),
                      Clopen(g, a.pieces + b.pieces)):
                got = c.complement()
                assert got.pieces == pairwise_subtract(full, c).pieces
                assert member_set(got, pts) == everything - member_set(c, pts)
    assert Clopen.empty(EINF).complement() == Clopen.full(EINF)
    assert Clopen.full(MIXED).complement().is_empty()
    assert str(clo(EINF, r"Z(@v \ L#2) + Z(L#2.L#1)").complement()) == \
        r"Z(L#2 \ L#1)"
    assert str(clo(TAIL, "Z(a) + Z(b)").complement()) == "Z(@s) + Z(c)"


def raw_piece(g, rng):
    """A piece built without make_piece: any punctures at its range
    vertex, now and then every out-edge of a regular one (an empty piece)."""
    mu = random_walk(g, rng, rng.choice(sorted(g.vertices)), rng.randrange(0, 3))
    v = path_range(g, mu)
    out = list(g.out_concrete(v))
    out += [family_member(f, k) for f in g.out_families(v) for k in (1, 2, 3)]
    if g.is_regular(v) and rng.random() < 0.3:
        punct = out
    else:
        punct = rng.sample(out, rng.randrange(0, len(out) + 1))
    return Piece(mu, tuple(sorted(set(punct), key=edge_key)))


def test_is_empty_agrees_with_canonical_form():
    # non-canonical tuples: overlapping pieces, a piece with its own
    # extension, fully punctured regular pieces
    rng = random.Random(107)
    seen = set()
    for g in (E2, EINF, emitter_two_loops(), MIXED):
        for _ in range(80):
            pieces = [raw_piece(g, rng) for _ in range(rng.randrange(0, 4))]
            if pieces and rng.random() < 0.3:
                p = pieces[0]
                ext = random_walk(g, rng, path_range(g, p.mu), 1)
                pieces.append(Piece(p.mu.extend(*ext.edges)))
            c = Clopen(g, tuple(pieces))
            empty = not canonicalize(g, pieces)
            assert c.is_empty() == empty
            seen.add((empty, bool(pieces)))
        for _ in range(10):
            c = random_clopen(g, rng)
            assert c.is_empty() == (not canonicalize(g, c.pieces))
    # some nonempty tuples are empty sets, and both answers occur
    assert seen == {(True, False), (True, True), (False, True)}


def test_canonical_walk_matches_the_recursive_reference():
    # the explicit-stack walk emits the pieces of the recursive walk in
    # the same order: overlapping, nested, punctured and empty pieces
    rng = random.Random(113)
    for g in (E2, EINF, C2, MIXED, emitter_two_loops()):
        for _ in range(60):
            pieces = [raw_piece(g, rng) for _ in range(rng.randrange(1, 6))]
            for p in list(pieces):
                ext = random_walk(g, rng, path_range(g, p.mu), rng.randrange(1, 4))
                if ext is not None and rng.random() < 0.5:
                    pieces.append(Piece(p.mu.extend(*ext.edges)))
            pieces += random_clopen(g, rng).refine_to(rng.randrange(0, 4)).pieces
            rng.shuffle(pieces)
            assert canonical_pieces(g, pieces) == \
                recursive_canonical_pieces(g, pieces)
