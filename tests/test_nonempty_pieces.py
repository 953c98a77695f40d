"""The table invariant: every piece that reaches ``compose_bisections`` is
nonempty.

``compose_bisections`` tests only the same-path piece, where two puncture
sets meet, for emptiness. So every caller must hand it nonempty pieces:
tables already hold only those, and the two public entries that take a
caller's raw ``Clopen``, ``image_of`` and ``graded_cancellation``, keep
its empty pieces out of the pairing. An empty piece is a regular vertex's
cylinder with every out-edge punctured.
"""

import random
import sys

from ggt.factor import _least_path_into, af_factor, factor, graded_cancellation
from ggt.fixtures import (cycle_graph, emitter_two_loops, infinite_rose,
                          mixed_graph, rose)
from ggt.fullgroup import (acts_as, compose_all, image_of, make_block,
                           support, validate_element)
from ggt.pathspace import (Clopen, Path, Piece, parse_clopen, parse_path,
                           path_range, piece_is_empty)

from helpers import random_balanced_table, random_clopen, random_element

E2 = rose(2)
EINF = infinite_rose()
PET = emitter_two_loops()
C3 = cycle_graph(3)
MIX = mixed_graph()


def raw_piece(g, text):
    """The piece 'mu' or 'mu \\ e1,e2', unchecked, so it may be empty."""
    mu, _, punct = text.partition("\\")
    return Piece(parse_path(g, mu.strip()),
                 tuple(e.strip() for e in punct.split(",") if e.strip()))


def raw_clopen(g, *texts):
    """The pieces as given, neither checked nor canonicalized."""
    return Clopen(g, tuple(raw_piece(g, t) for t in texts))


def element(g, *specs):
    return validate_element(g, [make_block(g, parse_path(g, mu), punct,
                                           parse_path(g, nu))
                                for mu, punct, nu in specs])


# values printed by the code before compose_bisections narrowed its
# contract, when it still tested every inner and outer piece itself
IMAGES = [
    (E2, [("b", (), "a"), ("a", (), "b")], [
        (("a.a \\ a,b",), "0"),
        (("a.a \\ a,b", "b.a"), "Z(a.a)"),
        (("a", "a.b \\ a,b"), "Z(b)"),
        (("b", "b.b.a \\ a,b", "a.a"), "Z(a) + Z(b.a)")]),
    (PET, [("a.p.q", (), "b.t"), ("b.t", (), "a.p.q")], [
        (("a \\ p,q",), "0"),
        (("a.q", "a \\ p,q"), "Z(a.q)"),
        (("a", "a.p \\ p,q"), "Z(a.q) + Z(b.t) + Z(a.p.p)"),
        (("a.p.p \\ p,q", "b"), "Z(b.r) + Z(a.p.q)")]),
    (C3, [], [
        (("@u1 \\ x1",), "0"),
        (("@u2", "x1 \\ x2"), "Z(@u2)"),
        (("x1", "x1.x2 \\ x3"), "Z(@u1)")]),
    (MIX, [("d1.m1", (), "d1.m2"), ("d1.m2", (), "d1.m1")], [
        (("@u \\ e",), "0"),
        (("e.d1 \\ k1,k2,k3,m1,m2,m3,m4", "e.l"), "Z(e.l)"),
        (("e", "e.l \\ c1,c2,c3,d1,d2,d3,l"), "Z(@u)")]),
]

CANCELLATIONS = [
    (E2, ("a.a \\ a,b",), "0", 1, []),
    (E2, ("a.b \\ a,b", "a"), "Z(a.a)", 1,
     ["block a.a.a.a | - | a.a.a", "block a.a.a.b | - | a.a.b",
      "block a.a.b.a | - | a.b.a", "block a.a.b.b | - | a.b.b"]),
    (E2, ("a", "a.b \\ a,b"), "Z(a.a)", 1,
     ["block a.a.a.a | - | a.a.a", "block a.a.a.b | - | a.a.b",
      "block a.a.b.a | - | a.b.a", "block a.a.b.b | - | a.b.b"]),
    (PET, ("a \\ p,q",), "0", 1, []),
    (PET, ("a", "a.p \\ p,q"), "Z(q.a)", 1,
     ["block q.a.q | - | a.q", "block q.a.p.p | - | a.p.p",
      "block q.a.p.q | - | a.p.q"]),
    (C3, ("@u1 \\ x1",), "0", 1, []),
    (C3, ("@u2", "x1 \\ x2"), "Z(@u1)", 1, ["block x1.x2.x3 | - | x2.x3"]),
    (C3, ("x1", "x1.x2 \\ x3"), "Z(x3.x1)", 1,
     ["block x3.x1.x2.x3 | - | x1.x2.x3"]),
]


def test_raw_clopens_with_empty_pieces_keep_their_answers():
    # an empty piece alone, beside a nonempty piece and under one
    for g, table, cases in IMAGES:
        e = element(g, *table)
        for texts, image in cases:
            a = raw_clopen(g, *texts)
            assert any(piece_is_empty(g, p) for p in a.pieces)
            assert str(image_of(e, a)) == image
    for g, texts, b, n, blocks in CANCELLATIONS:
        a = raw_clopen(g, *texts)
        assert any(piece_is_empty(g, p) for p in a.pieces)
        got = graded_cancellation(a, parse_clopen(g, b), n)
        assert [str(x) for x in got] == blocks


def lifted_copy(g, a, n):
    """A clopen whose class is phi^n of a's: a's nonempty pieces with the
    matcher's own length-n paths prepended."""
    pieces = []
    for p in a.pieces:
        if not piece_is_empty(g, p):
            gamma = _least_path_into(g, p.mu.base, n)
            pieces.append(Piece(Path(g.source(gamma[0]), gamma + p.mu.edges),
                                p.punctures))
    return Clopen.of(g, pieces)


def with_empty_piece(g, rng, a):
    """a's pieces plus one empty piece, at a random place among them."""
    regular = [p for p in list(a.pieces) + [Piece(Path(v)) for v in g.vertices]
               if g.is_regular(path_range(g, p.mu))]
    if not regular:
        return a
    p = rng.choice(regular)
    empty = Piece(p.mu, g.out_concrete(path_range(g, p.mu)))
    pieces = list(a.pieces)
    pieces.insert(rng.randrange(len(pieces) + 1), empty)
    return Clopen(g, tuple(pieces))


def test_compose_bisections_is_never_handed_an_empty_piece(monkeypatch):
    fg = sys.modules["ggt.fullgroup"]
    fa = sys.modules["ggt.factor"]
    real = fg.compose_bisections
    seen = {"calls": 0, "pieces": 0}

    def checked(g, outer, inner):
        seen["calls"] += 1
        for bo in outer:
            seen["pieces"] += 1
            assert not piece_is_empty(g, bo.source_piece()), bo
        for bi in inner:
            seen["pieces"] += 1
            assert not piece_is_empty(g, bi.range_piece()), bi
        return real(g, outer, inner)

    monkeypatch.setattr(fg, "compose_bisections", checked)
    monkeypatch.setattr(fa, "compose_bisections", checked)
    rng = random.Random(2801)
    raw_images = raw_lifts = 0
    for g in (E2, EINF, PET, C3, MIX):
        for _ in range(6):
            e = random_element(g, rng, rng.randrange(1, 4), max_len=2)
            f = random_element(g, rng, rng.randrange(1, 3), max_len=2)
            product = compose_all([e, f, e])
            assert acts_as([e, f, e], product)
            for a in (random_clopen(g, rng), support(e)):
                raw = with_empty_piece(g, rng, a)
                raw_images += raw is not a
                assert image_of(product, raw) == image_of(product, a)
            if g in (EINF, PET):
                factor(e)
        if g is not MIX:   # a source leaves the classes undefined
            for _ in range(4):
                a = random_clopen(g, rng, pieces=2, max_len=2)
                n = rng.randrange(1, 3)
                raw = with_empty_piece(g, rng, a)
                raw_lifts += raw is not a
                graded_cancellation(raw, lifted_copy(g, raw, n), n)
    for g in (E2, C3):
        for _ in range(3):
            af_factor(random_balanced_table(g, rng))
    af_factor(element(EINF, ("L#1.L#2", (), "L#2.L#1"),
                      ("L#2.L#1", (), "L#1.L#2")))
    assert raw_images > 30 and raw_lifts > 10
    assert seen["calls"] > 400 and seen["pieces"] > 8000
