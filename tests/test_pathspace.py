import random

import pytest

from ggt.errors import MalformedGraph, ParseError
from ggt.fixtures import (cycle_graph, emitter_two_loops, infinite_rose,
                          mixed_graph, rose)
from ggt.fullgroup import Block
from ggt.graphs import Graph, edge_key, family_member
from ggt.pathspace import (BoundaryPoint, Clopen, Path, Piece,
                           canonical_pieces, canonicalize, complement_pieces,
                           find_overlap, make_piece, overlap_or_complement,
                           overlap_or_union, parse_clopen, parse_path,
                           parse_piece, path_range, piece_is_canonical,
                           piece_is_empty, prepend_prefix, singleton_point,
                           strip_prefix)

from helpers import (member_set, pairwise_intersect, pairwise_subtract,
                     point_family, random_clopen, random_twin_graph,
                     random_walk, recursive_canonical_pieces,
                     reference_complement_pieces, symmetric_difference_empty)

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
    # pieces and punctures follow edge_key, which puts L#9 before L#10,
    # where the order of strings or of tuples of strings would not
    got = clo(EINF, "Z(@v)").subtract(clo(EINF, "Z(L#10) + Z(L#9)"))
    assert str(got) == r"Z(@v \ L#9,L#10)"
    got = clo(EINF, "Z(L#10.L#10) + Z(L#9.L#10) + Z(L#10.L#9)")
    assert str(got) == "Z(L#9.L#10) + Z(L#10.L#9) + Z(L#10.L#10)"
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


def test_value_types_are_immutable_tuples_of_their_fields():
    p = Path("v", ("a", "b"))
    piece = Piece(p, ("a",))
    block = Block(p, ("a",), Path("v", ("b", "a")))
    # len counts edges, so the empty path at a vertex is falsy
    assert len(p) == 2 and len(Path("v")) == 0 and not Path("v")
    for value, name in ((p, "edges"), (piece, "punctures"), (block, "nu")):
        with pytest.raises(AttributeError):
            setattr(value, name, ())
        # no per-object state: nothing can be cached on a value
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.memo = 1
    # equality and hashing go by the fields, and a value of one type
    # never equals a value of another
    assert p == Path("v", ("a", "b")) and hash(p) == hash(Path("v", ("a", "b")))
    assert piece == Piece(Path("v", ("a", "b")), ("a",))
    assert Path("v") != Piece(Path("v")) and Piece(Path("v")) != Path("v")
    assert p != Block(p, (), p) and Piece(p) != Block(p, (), p)
    assert len({p, piece, block, Piece(p), Path("v")}) == 5


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
    mu = None
    while mu is None:  # a walk into a sink stops there
        mu = random_walk(g, rng, rng.choice(sorted(g.vertices)),
                         rng.randrange(0, 3))
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


def test_piece_is_canonical_matches_the_walk():
    # one nonempty piece is its own canonical form exactly when the
    # predicate says so: plain tails ending on the only out-edge of a
    # regular vertex (mixed_graph's e, every edge of a cycle) rise to
    # their parent, punctured ones at regular vertices split, punctured
    # ones at singular vertices stay, unless their punctures are out of
    # edge_key order or repeated
    rng = random.Random(2601)
    c3 = cycle_graph(3)
    seen = set()
    for g in (E2, EINF, c3, MIXED, emitter_two_loops()):
        for _ in range(150):
            p = raw_piece(g, rng)
            if piece_is_empty(g, p):
                continue
            if len(p.punctures) > 1 and rng.random() < 0.3:
                punct = list(p.punctures) + [p.punctures[0]] * rng.randrange(2)
                rng.shuffle(punct)
                p = Piece(p.mu, tuple(punct))
            canonical = canonical_pieces(g, [p]) == [p]
            assert piece_is_canonical(g, p) == canonical
            seen.add(canonical)
            v = path_range(g, p.mu)
            if g is c3 and not canonical:
                seen.add("cycle")
            elif g is MIXED and p.mu.edges[-1:] == ("e",) and not p.punctures:
                seen.add("e")
            if p.punctures and (g is MIXED or g is EINF):
                seen.add(f"punctured at {v}")
                if p.punctures != tuple(sorted(set(p.punctures), key=edge_key)):
                    seen.add("out of order")
    assert seen == {True, False, "cycle", "e", "punctured at b",
                    "punctured at c", "punctured at d", "punctured at v",
                    "out of order"}


def test_one_trie_search_and_walk_match_the_two_calls():
    # overlap_or_union builds one trie for the overlap search and the
    # canonical walk: its hit is find_overlap's pair, and with no hit its
    # pieces are canonical_pieces'; overlap_or_complement likewise gives
    # the pair or complement_pieces'. Lists of nonempty pieces: overlapping
    # extensions, punctured pieces at singular vertices, and disjoint
    # lists (refinements of a clopen, shuffled), some of them not in
    # canonical form
    rng = random.Random(2501)
    seen = set()
    for g in (E2, EINF, C2, MIXED, emitter_two_loops()):
        for trial in range(80):
            if trial % 2:
                depth = rng.randrange(0, 4)
                pieces = list(random_clopen(g, rng).refine_to(depth).pieces)
            else:
                pieces = [p for p in (raw_piece(g, rng)
                                      for _ in range(rng.randrange(1, 5)))
                          if not piece_is_empty(g, p)]
                for p in list(pieces):
                    ext = random_walk(g, rng, path_range(g, p.mu),
                                      rng.randrange(1, 3))
                    if ext is not None and rng.random() < 0.4:
                        pieces.append(Piece(p.mu.extend(*ext.edges)))
            rng.shuffle(pieces)
            hit, union = overlap_or_union(g, pieces)
            assert hit == find_overlap(g, pieces)
            rest = complement_pieces(g, pieces) if hit is None else None
            assert overlap_or_complement(g, pieces) == (hit, rest)
            if hit is None:
                assert union == canonical_pieces(g, pieces)
                seen.add("apart")
                if tuple(sorted(union, key=Piece.key)) != tuple(
                        sorted(pieces, key=Piece.key)):
                    seen.add("merged")
            else:
                assert union is None
                seen.add("hit")
            if any(p.punctures and g.is_singular(path_range(g, p.mu))
                   for p in pieces):
                seen.add("hit, punctured" if hit else "apart, punctured")
    assert seen == {"apart", "merged", "hit", "apart, punctured",
                    "hit, punctured"}


def test_complement_walk_emits_canonical_pieces():
    # Clopen.complement, intersect and subtract and graded_partition's
    # S(0) only sort complement_pieces, so its output must be canonical:
    # raw inputs with overlapping, nested, punctured and fully punctured
    # pieces, also over a sink and over random twin graphs
    rng = random.Random(137)
    graphs = [E2, EINF, emitter_two_loops(), MIXED, TAIL]
    graphs += [random_twin_graph(rng) for _ in range(6)]
    punctured = 0
    for g in graphs:
        full = Clopen.full(g)
        for _ in range(80):
            pieces = [raw_piece(g, rng) for _ in range(rng.randrange(0, 5))]
            for p in list(pieces):
                ext = random_walk(g, rng, path_range(g, p.mu), rng.randrange(1, 4))
                if ext is not None and rng.random() < 0.5:
                    pieces.append(Piece(p.mu.extend(*ext.edges)))
            rng.shuffle(pieces)
            got = complement_pieces(g, pieces)
            assert tuple(sorted(got, key=Piece.key)) == canonicalize(g, got)
            rest = pairwise_subtract(full, Clopen(g, tuple(pieces)))
            assert Clopen.complement_of(g, pieces) == rest
            punctured += any(q.punctures for q in got)
    assert punctured > 0


def test_complement_walk_matches_the_reference():
    # the walk that skips child nodes covered by a plain piece emits the
    # list of the walk that visits them, order included: raw lists with
    # plain pieces above other pieces, pieces sharing a path and punctured
    # pieces at infinite emitters
    rng = random.Random(2703)
    p = Piece
    cases = [
        (E2, [p(parse_path(E2, "a")), p(parse_path(E2, "a.b")),
              p(parse_path(E2, "b.a.a"))]),
        (E2, [p(Path("v"), ("a",)), p(parse_path(E2, "a.b")),
              p(parse_path(E2, "a.b")), p(parse_path(E2, "a.b.a"))]),
        (EINF, [p(Path("v"), ("L#1", "L#2")), p(Path("v"), ("L#2",)),
                p(parse_path(EINF, "L#2")), p(parse_path(EINF, "L#2.L#1"))]),
        (EINF, [p(parse_path(EINF, "L#3"), ("L#1",)),
                p(parse_path(EINF, "L#3")), p(parse_path(EINF, "L#3.L#1"))]),
    ]
    for g in (E2, EINF, C2, MIXED, emitter_two_loops()):
        for _ in range(120):
            pieces = [raw_piece(g, rng) for _ in range(rng.randrange(0, 5))]
            for q in list(pieces):
                ext = random_walk(g, rng, path_range(g, q.mu),
                                  rng.randrange(1, 3))
                if ext is not None and rng.random() < 0.6:
                    pieces.append(Piece(q.mu.extend(*ext.edges)))
                if rng.random() < 0.2:
                    pieces.append(Piece(q.mu))
            rng.shuffle(pieces)
            cases.append((g, pieces))
    seen = set()
    for g, pieces in cases:
        assert complement_pieces(g, pieces) == \
            reference_complement_pieces(g, pieces)
        live = [q for q in pieces if not piece_is_empty(g, q)]
        paths = [q.mu for q in live]
        if any(not q.punctures and q.mu.edges
               and any(q.mu.is_prefix_of(m) and m != q.mu for m in paths)
               for q in live):
            seen.add("plain above")
        if len(set(paths)) < len(paths):
            seen.add("shared path")
        if any(q.punctures and g.is_singular(path_range(g, q.mu))
               for q in live):
            seen.add("punctured at emitter")
    assert seen == {"plain above", "shared path", "punctured at emitter"}
