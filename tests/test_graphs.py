import random
import re
import sys
import time
import tracemalloc

import pytest

from ggt.errors import (MalformedGraph, NoDisjointCycles, NotARegularSource,
                        NotInfiniteEmitter, NotStronglyConnected)
from ggt.fixtures import (cycle_graph, emitter_two_loops, infinite_rose,
                          mixed_graph, rose)
from ggt.graphs import (Graph, edge_key, family_member, find_path, move_s,
                        move_t, parse_graph, print_graph, split_member,
                        two_disjoint_cycles, validate)

from helpers import (brute_force_sccs, random_twin_graph, reference_emitter,
                     reference_validate)


def refusal(fn, *args):
    """The class and message of the error fn raises."""
    with pytest.raises(Exception) as exc:
        fn(*args)
    return type(exc.value).__name__, str(exc.value)


def test_malformed_graphs():
    # every refusal of Graph.__init__, by class and message
    bad = MalformedGraph.__name__
    cases = [
        ((["v", "v-"],), "bad vertex name 'v-'"),
        ((["v", "v"],), "duplicate name 'v'"),
        ((["v"], [("e!", "v", "v")]), "bad edge name 'e!'"),
        ((["v"], [("v", "v", "v")]), "duplicate name 'v'"),
        ((["v"], [("e", "v", "v"), ("e", "v", "v")]), "duplicate name 'e'"),
        ((["v"], [("e", "w", "v")]), "edge 'e' has dangling endpoint"),
        ((["v"], [("e", "v", "w")]), "edge 'e' has dangling endpoint"),
        ((["v"], [], [("L#1", "v", "v")]), "bad family name 'L#1'"),
        ((["v"], [("e", "v", "v")], [("e", "v", "v")]), "duplicate name 'e'"),
        ((["v"], [], [("L", "v", "v"), ("L", "v", "v")]), "duplicate name 'L'"),
        ((["v"], [], [("L", "w", "v")]), "family 'L' has dangling endpoint"),
        ((["v"], [], [("L", "v", "w")]), "family 'L' has dangling endpoint"),
        # edges are checked before families, each check in turn
        ((["v"], [("e", "v", "w")], [("L!", "v", "v")]),
         "edge 'e' has dangling endpoint"),
        ((["v"], [("e!", "v", "w")]), "bad edge name 'e!'"),
        ((["v"], [("v", "v", "w")]), "duplicate name 'v'"),
    ]
    for args, message in cases:
        assert refusal(Graph, "g", *args) == (bad, message)


_MEMBER = re.compile(r"^([A-Za-z0-9_]+)#([1-9][0-9]*)$")


def reference_split_member(edge):
    """(family, index) by the member regex that ``split_member`` matched
    itself before it read ``edge_key``."""
    m = _MEMBER.match(edge)
    return (m.group(1), int(m.group(2))) if m else None


def test_edge_references_resolve_by_the_member_syntax():
    g = Graph("g", ["v", "w"], [("e", "v", "w")], [("L", "w", "v")])
    declared = {"e": ("v", "w"), "L#1": ("w", "v"), "L#12": ("w", "v")}
    for ref in ("L#0", "L#01", "L#", "#1", "L#1#2", "M#1", "L", "e#1",
                *declared):
        assert split_member(ref) == reference_split_member(ref)
        assert g.is_edge(ref) == (ref in declared)
        if ref in declared:
            assert (g.source(ref), g.range(ref)) == declared[ref]
        else:
            for query in (g.source, g.range):
                assert refusal(query, ref) == (MalformedGraph.__name__,
                                               f"unknown edge {ref!r}")


def reference_successors(g, v):
    """The ranges of v's edges and families, sorted, each once."""
    return tuple(sorted({r for _, s, r in g.edges + g.families if s == v}))


def test_successors_are_the_sorted_ranges_of_edges_and_families():
    rng = random.Random(2041)
    graphs = [infinite_rose(), rose(2), cycle_graph(3), mixed_graph(),
              emitter_two_loops()]
    graphs += [random_twin_graph(rng) for _ in range(20)]
    graphs += [random_graph(rng, rng.randrange(1, 9)) for _ in range(200)]
    for g in graphs:
        for v in g.vertices:
            assert g.successors(v) == reference_successors(g, v)
            assert g.is_sink(v) == (not reference_successors(g, v))


def test_validate_fixtures():
    r = validate(infinite_rose())
    assert r.ah_criteria and r.factor_hypotheses and r.strongly_connected

    r = validate(cycle_graph(2))
    assert not r.condition_L
    assert not r.ah_criteria
    assert r.cofinal and r.strongly_connected

    r = validate(mixed_graph())
    assert r.ah_criteria
    assert not r.strongly_connected
    assert not r.no_sources
    assert r.witness("no_sources") == "source u"

    r = validate(rose(2))
    assert r.ah_criteria and not r.factor_hypotheses

    r = validate(emitter_two_loops())
    assert r.ah_criteria and r.factor_hypotheses


def test_validate_sink_and_cofinality():
    g = Graph("g", ["a", "b"], [("e", "a", "b")])
    r = validate(g)
    assert not r.no_sinks and r.witness("no_sinks") == "sink b"
    # two disjoint cycles that cannot see each other: not cofinal
    g2 = Graph("g2", ["a", "b"], [("p", "a", "a"), ("q", "b", "b")])
    assert not validate(g2).cofinal


def test_validate_rename_stability():
    g = mixed_graph()
    renamed = Graph("other",
                    [v + "9" for v in g.vertices],
                    [(e + "9", s + "9", r + "9") for (e, s, r) in g.edges],
                    [(f + "9", s + "9", r + "9") for (f, s, r) in g.families])
    a, b = validate(g), validate(renamed)
    for flag in ("no_sinks", "no_sources", "condition_L", "cofinal",
                 "reaches_all_infinite_emitters", "strongly_connected",
                 "ah_criteria", "factor_hypotheses"):
        assert getattr(a, flag) == getattr(b, flag)


def test_move_t():
    g = move_t(infinite_rose(), "v")
    assert len(g.families) == 2
    assert all(s == "v" and r == "v" for (_, s, r) in g.families)
    rep = validate(g)
    assert rep.strongly_connected and rep.factor_hypotheses

    pet = emitter_two_loops()
    g2 = move_t(pet, "w")
    assert len(g2.families) == 1 + len(pet.vertices)
    rep2 = validate(g2)
    assert rep2.strongly_connected and rep2.factor_hypotheses

    two = Graph("two", ["w", "u"], [("back", "u", "w")], [("F", "w", "u")])
    g3 = move_t(two, "w")
    assert len(g3.families) == 3
    assert {(s, r) for (_, s, r) in g3.families} == {("w", "u"), ("w", "w")}

    with pytest.raises(NotInfiniteEmitter):
        move_t(pet, "x")


def test_move_s():
    g2 = move_s(mixed_graph(), "u")
    assert sorted(g2.vertices) == ["b", "c", "d"]
    assert validate(g2).strongly_connected
    # isolated source-sink pair: removing the source leaves the sink
    g = Graph("g", ["s", "t"], [("e", "s", "t")])
    g3 = move_s(g, "s")
    assert g3.vertices == ("t",) and not g3.edges
    with pytest.raises(NotARegularSource):
        move_s(mixed_graph(), "b")
    with pytest.raises(NotARegularSource):
        move_s(g, "t")


def test_move_s_preserves_scc_structure():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(2, 6)
        verts = [f"v{i}" for i in range(n)]
        edges = []
        k = 0
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.35:
                    edges.append((f"e{k}", verts[i], verts[j]))
                    k += 1
        g = Graph("g", verts, edges)
        assert set(g.strongly_connected_components()) == brute_force_sccs(g)
        sources = [v for v in verts
                   if g._incoming[v] == 0 and not g.is_singular(v)]
        if not sources:
            continue
        v = sources[0]
        g2 = move_s(g, v)
        old = {c for c in brute_force_sccs(g) if v not in c}
        assert set(g2.strongly_connected_components()) == old
        assert brute_force_sccs(g2) == old


def test_find_path():
    einf = infinite_rose()
    assert find_path(einf, "v", "v", length=3) == ("L#1", "L#1", "L#1")
    c2 = cycle_graph(2)
    assert find_path(c2, "u1", "u1", length=2) == ("x1", "x2")
    assert find_path(c2, "u1", "u1", length=3) is None
    assert find_path(c2, "u1", "u1", length=-1) is None
    assert find_path(c2, "u1", "u2") == ("x1",)
    assert find_path(c2, "u1", "u1") == ()
    m = mixed_graph()
    assert find_path(m, "u", "d") == ("e", "d1")


def test_two_disjoint_cycles():
    assert two_disjoint_cycles(rose(2), "v") == (("a",), ("b",))
    assert two_disjoint_cycles(infinite_rose(), "v") == (("L#1",), ("L#2",))
    with pytest.raises(NoDisjointCycles):
        two_disjoint_cycles(cycle_graph(2), "u1")
    g = mixed_graph()
    c1, c2 = two_disjoint_cycles(g, "d")
    for c in (c1, c2):
        assert g.source(c[0]) == "d" and g.range(c[-1]) == "d"
    assert c1 != c2
    assert not (list(c1) == list(c2)[:len(c1)] or list(c2) == list(c1)[:len(c2)])
    # avoid_first is honored
    c1, c2 = two_disjoint_cycles(infinite_rose(), "v",
                                 avoid_first=("L#1", "L#2"))
    assert c1[0] not in ("L#1", "L#2") and c2[0] not in ("L#1", "L#2")


def test_graph_round_trip():
    for g in (infinite_rose(), rose(3), cycle_graph(4), mixed_graph(),
              emitter_two_loops()):
        assert parse_graph(print_graph(g), g.name) == g


def test_validate_records_the_distinguished_emitter():
    pet = emitter_two_loops()
    core = move_s(mixed_graph(), "u")
    # two loop families at one emitter; a lesser emitter that misses a vertex
    twin = Graph("twin", ["a", "b", "w"],
                 [("x", "a", "w"), ("y", "b", "a"), ("z", "w", "b")],
                 [("M", "w", "w"), ("K", "w", "w"), ("J", "w", "a"),
                  ("P", "a", "a")])
    graphs = [infinite_rose(), pet, move_t(infinite_rose(), "v"),
              move_t(pet, "w"), core, move_t(core, "c"), twin,
              rose(2), cycle_graph(3), mixed_graph()]
    satisfied = 0
    for g in graphs:
        rep = validate(g)
        assert rep.factor_hypotheses == (rep.emitter is not None)
        if rep.factor_hypotheses:
            satisfied += 1
            assert rep.emitter == reference_emitter(g)
        else:
            assert rep.emitter is None
    assert satisfied == 6
    assert validate(pet).emitter == ("w", "W")
    assert validate(twin).emitter == ("w", "K")


def random_graph(rng, n):
    """Concrete edges, self-loops, edge families (loop families too) and
    sinks, often in several components."""
    verts = [f"v{i}" for i in range(n)]
    edges = [(f"e{k}", rng.choice(verts), rng.choice(verts))
             for k in range(rng.randrange(0, 2 * n + 1))]
    edges += [(f"s{k}", v, v) for k, v in enumerate(verts) if rng.random() < 0.15]
    families = [(f"F{k}", rng.choice(verts), rng.choice(verts))
                for k in range(rng.randrange(0, 3))]
    return Graph("r", verts, edges, families)


def strongly_connected_graph(rng, n):
    """A Hamiltonian cycle plus random chords and families."""
    verts = [f"v{i}" for i in range(n)]
    edges = [(f"c{i}", verts[i], verts[(i + 1) % n]) for i in range(n)]
    edges += [(f"e{k}", rng.choice(verts), rng.choice(verts))
              for k in range(rng.randrange(0, n))]
    families = [(f"F{k}", rng.choice(verts), rng.choice(verts))
                for k in range(rng.randrange(0, 3))]
    return Graph("sc", rng.sample(verts, n), edges, families)


def component_graph(rng, n):
    """n vertices cut into 1-8 blocks, joined in a chain or at random
    from earlier blocks to later ones only, so the blocks' components
    form a DAG. A block is cyclic (a ring with chords, or a looped
    vertex) or a path of single-vertex components; in some graphs only
    the last block is cyclic, and a path may leave from its last vertex,
    so that every vertex can reach the one cycle. Paths give sinks and,
    with the random joins, sources; families, some of them loops, give
    emitters."""
    verts = [f"v{i}" for i in range(n)]
    rng.shuffle(verts)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(0, 8)))
    blocks = [verts[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    p_cyclic = rng.choice((0.0, 0.7))
    arcs, ends = [], []
    for k, block in enumerate(blocks, start=1):
        if k == len(blocks) or rng.random() < p_cyclic:
            arcs += zip(block, block[1:] + block[:1])
            arcs += [(rng.choice(block), rng.choice(block))
                     for _ in range(rng.randrange(0, len(block) // 4 + 1))]
            ends.append(rng.choice(block))
        else:
            arcs += zip(block, block[1:])
            ends.append(rng.choice((block[-1], rng.choice(block))))
    chain = rng.random() < 0.5
    for i, block in enumerate(blocks[:-1]):
        later = blocks[i + 1:]
        for target in later[:1] if chain else rng.sample(
                later, rng.randrange(0, len(later) + 1)):
            arcs.append((ends[i], rng.choice(target)))
    families = []
    for _ in range(rng.randrange(0, 5)):
        i = rng.randrange(len(blocks))
        v = rng.choice(blocks[i])
        w = v if rng.random() < 0.3 else rng.choice(rng.choice(blocks[i:]))
        families.append((f"F{len(families)}", v, w))
    edges = [(f"e{k}", s, r) for k, (s, r) in enumerate(arcs)]
    return Graph("dag", rng.sample(verts, n), edges, families)


def test_validate_matches_the_per_vertex_reference():
    rng = random.Random(2031)
    graphs = [random_graph(rng, rng.randrange(1, 9)) for _ in range(3000)]
    graphs += [strongly_connected_graph(rng, rng.randrange(10, 61))
               for _ in range(50)]
    # 100-400 vertices whose cyclic components lie in a chain or a DAG:
    # each component's reach set and the order the components are
    # tested in decide the witnesses here
    rng = random.Random(3203)
    large = [component_graph(rng, rng.randrange(100, 401)) for _ in range(40)]
    failing = set()
    held = {}  # criterion -> the outcomes seen on the large graphs
    for i, g in enumerate(graphs + large):
        got = validate.__wrapped__(g)
        assert got == reference_validate(g), print_graph(g)
        failing.update(name for name, _ in got.witnesses)
        if i >= len(graphs):
            for name in ("no_sinks", "no_sources", "condition_L", "cofinal",
                         "reaches_all_infinite_emitters", "strongly_connected"):
                held.setdefault(name, set()).add(got.witness(name) is None)
    # every criterion fails somewhere, so every witness is compared
    assert failing == {"no_sinks", "no_sources", "condition_L", "cofinal",
                       "reaches_all_infinite_emitters", "strongly_connected",
                       "factor_hypotheses"}
    assert all(outcomes == {True, False} for outcomes in held.values())
    assert max(sum(map(g.is_cyclic, g.strongly_connected_components()))
               for g in large) >= 4


def test_validate_memory_on_long_paths():
    # a reach set keeps only the vertices on cycles and the emitters, and
    # a component that adds none shares the one reach set below it: on a
    # 4000-vertex chain ending in a loop, and on a 2000-vertex path into
    # a 2000-vertex cycle, not every vertex below each vertex (n(n + 1)/2
    # and n·m entries, 331 and 248 MiB)
    path = [f"v{i}" for i in range(4000)]
    ring = [f"c{i}" for i in range(2000)]
    chain = Graph("chain", path, [(f"e{i}", v, path[min(i + 1, 3999)])
                                  for i, v in enumerate(path)])
    into = Graph("into", path[:2000] + ring,
                 [(f"e{i}", v, path[i + 1]) for i, v in enumerate(path[:1999])]
                 + [("e", path[1999], ring[0])]
                 + [(f"f{i}", v, ring[i - 1]) for i, v in enumerate(ring)])
    for g in (chain, into):
        tracemalloc.start()
        try:
            report = validate.__wrapped__(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.cofinal and report.witness("no_sources") == "source v0"
        assert peak < 16 * 2**20, f"{g.name}: peak {peak / 2**20:.1f} MiB"


def test_validate_time_on_one_large_component():
    # the vertices of a component share its reach set, so it is tested
    # once, not once per vertex
    g = strongly_connected_graph(random.Random(16000), 16000)
    start = time.process_time()
    report = validate.__wrapped__(g)
    took = time.process_time() - start
    assert report.strongly_connected and report.cofinal
    assert took < 1.0, f"took {took:.2f} s"


def test_validate_walks_the_components_once(monkeypatch):
    counts = {"strongly_connected_components": 0}
    for name in counts:
        real = getattr(Graph, name)

        def counted(self, *args, name=name, real=real):
            counts[name] += 1
            return real(self, *args)

        monkeypatch.setattr(Graph, name, counted)
    validate.__wrapped__(mixed_graph())
    assert counts == {"strongly_connected_components": 1}


def test_validate_cache_is_bounded():
    # 200 distinct graphs leave at most 128 reports alive; a graph
    # validated lately is still a hit and gets the same report back
    validate.cache_clear()
    graphs = [cycle_graph(n) for n in range(1, 201)]
    reports = [validate(g) for g in graphs]
    info = validate.cache_info()
    assert info.misses == 200 and info.currsize <= 128
    assert validate(graphs[-1]) is reports[-1]
    assert validate.cache_info().hits == info.hits + 1
    validate(graphs[0])
    assert validate.cache_info().misses == 201


def test_move_t_reads_the_validated_components(monkeypatch):
    pet = emitter_two_loops()
    validate(pet)
    calls = []
    real = Graph.strongly_connected_components
    monkeypatch.setattr(Graph, "strongly_connected_components",
                        lambda self: calls.append(self) or real(self))
    assert len(move_t(pet, "w").families) == 1 + len(pet.vertices)
    assert calls == []
    # the refusals keep their order: unknown vertex, no emitter, components
    split = Graph("split", ["w", "u"], [("e", "u", "u")], [("F", "w", "u")])
    assert refusal(move_t, split, "z") == (MalformedGraph.__name__,
                                           "unknown vertex 'z'")
    assert refusal(move_t, split, "u") == (NotInfiniteEmitter.__name__,
                                           "u is not an infinite emitter")
    assert refusal(move_t, split, "w") == (
        NotStronglyConnected.__name__,
        "move (T) requires a strongly connected graph")


def reference_candidate_edges(g, v, extra_members=1):
    """Out-edge references at v: concrete edges plus the first
    ``extra_members`` members of each family, the enumeration that
    ``graphs.free_edges`` replaced."""
    refs = list(g.out_concrete(v))
    for f in g.out_families(v):
        refs.extend(family_member(f, k) for k in range(1, extra_members + 1))
    return sorted(refs, key=edge_key)


def reference_find_path(g, src, dst, length=None):
    """The memoized recursion that ``find_path``'s layer table replaced."""
    if length is not None:
        memo = {}

        def best(u, l):
            if l == 0:
                return () if u == dst else None
            if (u, l) not in memo:
                memo[(u, l)] = None
                for e in reference_candidate_edges(g, u):
                    tail = best(g.range(e), l - 1)
                    if tail is not None:
                        memo[(u, l)] = (e,) + tail
                        break
            return memo[(u, l)]

        return best(src, length)
    for l in range(0, 2 * len(g.vertices) + 1):
        p = reference_find_path(g, src, dst, length=l)
        if p is not None:
            return p
    return None


def test_find_path_matches_the_recursion():
    rng = random.Random(77)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 7))
        for src in g.vertices:
            for dst in g.vertices:
                assert find_path(g, src, dst) == reference_find_path(g, src, dst)
                for length in range(7):
                    assert (find_path(g, src, dst, length=length)
                            == reference_find_path(g, src, dst, length=length))


def reference_two_disjoint_cycles(g, v, avoid_first=()):
    """``two_disjoint_cycles`` over the candidate-edge enumeration, with
    ``len(avoid) + 2`` members per family and the banned edges skipped
    one by one."""
    avoid = frozenset(avoid_first)
    first = None
    for l in range(1, 2 * len(g.vertices) + 2):
        for e in reference_candidate_edges(g, v, extra_members=len(avoid) + 2):
            if e in avoid:
                continue
            tail = reference_find_path(g, g.range(e), v, length=l - 1)
            if tail is not None:
                first = (e,) + tail
                break
        if first is not None:
            break
    if first is None:
        raise NoDisjointCycles(f"no cycle based at {v}")
    for i, ci in enumerate(first):
        u = g.source(ci)
        for d in reference_candidate_edges(g, u, extra_members=len(avoid) + 2):
            if d == ci:
                continue
            if i == 0 and d in avoid:
                continue
            back = reference_find_path(g, g.range(d), v)
            if back is None:
                continue
            return first, first[:i] + (d,) + back
    raise NoDisjointCycles(f"only one cycle class based at {v}")


def outcome(fn, *args):
    try:
        return fn(*args)
    except NoDisjointCycles as exc:
        return ("NoDisjointCycles", str(exc))


def test_two_disjoint_cycles_matches_the_candidate_enumeration():
    rng = random.Random(78)
    refused = {True: 0, False: 0}
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 7))
        for v in g.vertices:
            outs = list(g.out_concrete(v)) + [
                family_member(f, k) for f in g.out_families(v) for k in (1, 2, 3)]
            for _ in range(3):
                avoid = rng.sample(outs, rng.randrange(0, len(outs) + 1))
                got = outcome(two_disjoint_cycles, g, v, avoid)
                assert got == outcome(reference_two_disjoint_cycles, g, v, avoid)
                refused[got[0] == "NoDisjointCycles"] += 1
    # both outcomes occur, so cycles and refusals are both compared
    assert min(refused.values()) > 0


def test_find_path_takes_no_stack_frame_per_edge():
    assert sys.getrecursionlimit() < 5000
    p = find_path(rose(2), "v", "v", length=5000)
    assert p == ("a",) * 5000
    assert find_path(cycle_graph(3), "u1", "u2", length=5000) is None
    assert find_path(cycle_graph(3), "u1", "u2", length=5002) == (
        ("x1", "x2", "x3") * 1667 + ("x1",))
