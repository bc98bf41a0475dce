import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from copclean.errors import (BadParamError, CopcleanError, Graph6Error, UnsupportedSizeError,
                             VertexRangeError)
from copclean import graphs
from copclean.construction import ConstructionSpec, build_construction
from copclean.families import complete, cycle, spider
from copclean.graphs import (
    MAX_EDGES,
    MAX_VERTICES,
    Graph,
    _all_graph_keys,
    _connected_graph6,
    _key_rows,
    _walk_automorphisms,
    canonical_key,
    closed_l_neighborhood,
    count_connected_classes,
    count_graph_classes,
    emit_graph6,
    enumerate_connected,
    girth,
    metrics,
    parse_edge_list,
    parse_graph6,
)
from conftest import random_connected


def test_graph_basics():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g.n == 5
    assert g.edge_count() == 5
    assert g.degree(0) == 2
    assert sorted(g.neighbors(0)) == [1, 4]
    assert g.adjacent(0, 1) and not g.adjacent(0, 2)
    assert g.is_connected()
    assert g.bfs_dist(0) == [0, 1, 2, 2, 1]


def test_graph_rejects_bad_edges():
    with pytest.raises(VertexRangeError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(BadParamError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(BadParamError):
        Graph.from_edges(0, [])
    # at most MAX_VERTICES vertices
    assert Graph.from_edges(MAX_VERTICES, [(0, MAX_VERTICES - 1)]).degree(0) == 1
    with pytest.raises(UnsupportedSizeError, match=f"above the cap of {MAX_VERTICES}$"):
        Graph.from_edges(MAX_VERTICES + 1, [])
    # at most MAX_EDGES endpoint pairs, counted before anything is built
    # (broadcast views: no storage behind the oversized arrays)
    us, vs = np.broadcast_to(np.arange(2), (MAX_EDGES + 1, 2)).T
    with pytest.raises(UnsupportedSizeError, match=f"above the cap of {MAX_EDGES}$"):
        Graph.from_edge_arrays(2, us, vs)
    # the same checks and messages above the 64-vertex bit-row limit
    for build in (Graph.from_edges,
                  lambda n, e: Graph.from_edge_arrays(n, *np.array(e, dtype=np.int64).T)):
        with pytest.raises(BadParamError, match=r"^self-loop at 0$"):
            build(70, [(1, 2), (0, 0)])
        with pytest.raises(VertexRangeError, match=r"^edge \(-1,5\) out of range for n=70$"):
            build(70, [(-1, 5)])
        with pytest.raises(VertexRangeError, match=r"^edge \(0,100\) out of range for n=70$"):
            build(70, [(0, 100), (3, 3)])


def test_narrow_endpoint_dtypes_at_the_vertex_cap():
    # at n = MAX_VERTICES the key u*n + v of most of these arcs passes 2^31,
    # so it must be taken in int64 whatever the endpoint dtype
    n = MAX_VERTICES
    edges = [(n - 1, n - 2), (0, n - 1), (1, 0), (n - 2, 5), (0, n - 1)]
    ref = Graph.from_edge_arrays(n, *np.array(edges, dtype=np.int64).T)
    assert ref.neighbors(0) == [1, n - 1]
    assert ref.neighbors(n - 1) == [0, n - 2]
    assert ref.neighbors(n - 2) == [5, n - 1]
    assert ref.edge_count() == 4
    for dtype in (np.int32, np.uint32):
        us, vs = np.array(edges, dtype=dtype).T
        assert Graph.from_edge_arrays(n, us, vs) == ref, dtype


def test_no_edges():
    for dtype in (np.int32, np.int64):
        none = np.array([], dtype=dtype)
        g = Graph.from_edge_arrays(3, none, none)
        assert g.edge_count() == 0 and not g.is_connected()
        assert g._indptr.tolist() == [0, 0, 0, 0] and g._nbrs.dtype == np.int32
    g = Graph.from_edges(1, [])
    assert (g.n, g.edge_count(), g._indptr.tolist()) == (1, 0, [0, 0])
    assert g.is_connected()


def test_repeated_edges_collapse():
    g = Graph.from_edges(4, [(0, 1), (1, 0), (2, 3), (0, 1), (3, 2), (1, 2), (2, 1)])
    assert g._indptr.tolist() == [0, 1, 3, 5, 6]
    assert g._nbrs.tolist() == [1, 0, 2, 1, 3, 2]
    assert g == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


def test_closed_neighborhood():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    assert closed_l_neighborhood(g, 2, 0) == {2}
    assert closed_l_neighborhood(g, 2, 1) == {1, 2, 3}
    assert closed_l_neighborhood(g, 0, 3) == {0, 1, 2, 3}
    assert closed_l_neighborhood(g, 0, 99) == set(range(6))
    with pytest.raises(BadParamError):
        closed_l_neighborhood(g, 0, -1)
    with pytest.raises(VertexRangeError):
        closed_l_neighborhood(g, 6, 1)


def test_mask_kernel():
    # vertex 5 is isolated: its empty row adds nothing and nothing reaches it
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 4)])
    rng = np.random.default_rng(3)
    for _ in range(20):
        mask = rng.random(g.n) < 0.4
        want = {w for v in np.flatnonzero(mask).tolist() for w in g.neighbors(v)}
        assert set(np.flatnonzero(g.adjacent_to(mask)).tolist()) == want
    assert g.closed_ball((5,), 3).tolist() == [False] * 5 + [True]
    assert np.flatnonzero(g.closed_ball((3, 4), 1)).tolist() == [0, 2, 3, 4]
    assert np.flatnonzero(g.closed_ball((), 2)).tolist() == []
    assert g.row(0).tolist() == g.neighbors(0) == [1, 4] and not g.row(0).flags.writeable
    one = Graph.from_edges(1, [])
    assert one.adjacent_to(np.ones(1, dtype=bool)).tolist() == [False]


def test_bit_row_ball_matches_bfs():
    # the bit-row ball against breadth-first distances at the sizes only
    # pursuit and the random chain take, 27 to 64 vertices, around one to
    # three centres; a radius past the diameter gives the whole graph
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(27, 64)
        edges = {(rng.randrange(v), v) for v in range(1, n)}   # a random tree
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n // 4)}
        g = Graph.from_edges(n, edges)
        dist = [g.bfs_dist(v) for v in range(n)]
        for _ in range(5):
            centres = rng.sample(range(n), rng.randint(1, 3))
            mask = sum(1 << v for v in centres)
            for l in (0, 1, 2, 3, 10**9):
                want = sum(1 << u for u in range(n) if min(dist[v][u] for v in centres) <= l)
                assert graphs._ball(g.bit_rows, mask, l) == want, (sorted(edges), centres, l)


def test_metrics_sentinels():
    tri = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    m = metrics(tri)
    assert (m.n, m.m, m.girth, m.diameter) == (3, 3, 3, 1)
    tree = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert metrics(tree).to_dict()["girth"] == "ACYCLIC"
    split = Graph.from_edges(4, [(0, 1), (2, 3)])
    d = metrics(split).to_dict()
    assert d["connected"] is False
    assert d["diameter"] == "DISCONNECTED"


def test_graph6_known_codes():
    # classic reference encodings: C~ is K4, Cr is the 4-cycle
    k4 = parse_graph6("C~")
    assert k4.edge_count() == 6 and k4.n == 4
    c4 = parse_graph6("Cr")
    assert c4.n == 4 and c4.edge_count() == 4
    assert all(c4.degree(v) == 2 for v in range(4))
    assert parse_graph6(">>graph6<<C~").edge_count() == 6


def test_graph6_round_trip_enumerated(small_connected):
    for g in small_connected:
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_round_trip_sizes():
    rng = random.Random(5)
    for n in (1, 2, 62, 63, 64, 100):
        g = random_connected(n, rng)
        assert parse_graph6(emit_graph6(g)) == g


def _graph6_edges_by_loop(record: str):
    # the character-by-character decode the numpy one replaced: n < 63 only
    n = ord(record[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in record[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return sorted(p for p, b in zip(pairs, bits) if b == "1")


def _graph6_body_by_loop(g: Graph):
    # the pair-by-pair encode of the body: one character per six pairs
    n = g.n
    edges = set(g.edges())
    bits = "".join("1" if (i, j) in edges else "0" for j in range(1, n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return "".join(chr(63 + int(bits[p:p + 6], 2)) for p in range(0, len(bits), 6))


def test_graph6_round_trip_random():
    # n crosses the 62/63 size-prefix boundary; padding bits are ignored;
    # the emitted body matches a pair-by-pair encode at 0 to 2,200 edges
    rng = random.Random(13)
    for n in range(1, 71):
        for density in (0.1, 0.5, 0.9):
            edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
            g = Graph.from_edges(n, edges)
            record = emit_graph6(g)
            assert record[1 if n < 63 else 4:] == _graph6_body_by_loop(g), (n, density)
            assert parse_graph6(record) == g, (n, density)
            assert parse_graph6(record.encode()) == g
            pad = -(n * (n - 1) // 2) % 6
            if pad:
                padded = record[:-1] + chr(ord(record[-1]) | (1 << pad) - 1)
                assert parse_graph6(padded) == g, (n, density)
            if n < 63:
                assert sorted(g.edges()) == _graph6_edges_by_loop(record)


def test_graph6_complete_2000():
    # every bit set, the two padding bits too: the record is K2000; emitted,
    # the padding bits are clear, so the last character is 0b111100 + 63
    n = 2000
    record = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0)) + "~" * 333_167
    assert parse_graph6(record) == complete(n)
    emitted = emit_graph6(complete(n))
    assert emitted == record[:-1] + chr(63 + 60)
    assert parse_graph6(emitted) == complete(n)


def test_dense_builds_memory_bounded():
    # the complete graph, built directly and read from graph6: int32
    # endpoints, one int64 key per arc and the CSR arrays come to about 4
    # times the CSR bytes
    n = 1024
    record = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0)) + "~" * (n * (n - 1) // 12)
    for build in (lambda: complete(n), lambda: parse_graph6(record)):
        tracemalloc.start()
        try:
            g = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count() == n * (n - 1) // 2
        csr = g._indptr.nbytes + g._nbrs.nbytes
        assert peak <= 4.5 * csr, peak / csr


def test_graph6_errors():
    with pytest.raises(Graph6Error) as e:
        parse_graph6("C~\x1f")
    assert e.value.code == "INVALID_CHAR"
    with pytest.raises(Graph6Error) as e:
        parse_graph6("D")
    assert e.value.code == "TRUNCATED"
    # a character outside ASCII is refused, not read as some graph6 byte
    for record in ("Cé", "C~\u2028", "\u00c3~"):
        with pytest.raises(Graph6Error) as e:
            parse_graph6(record)
        assert e.value.code == "INVALID_CHAR", record
    with pytest.raises(Graph6Error):
        parse_graph6("C~~~~")   # too long for n=4


def test_graph6_long_size_prefix():
    # "~" then 3 size digits, or "~~" then 6, may carry any n: C5 three ways
    c5 = parse_graph6("Dhc")
    assert sorted(c5.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert parse_graph6("~~?????Dhc") == parse_graph6("~??Dhc") == c5
    for record, code, msg in (("~~???", "TRUNCATED", "size prefix cut short"),
                              ("~??", "TRUNCATED", "size prefix cut short"),
                              ("~~~~~~~~", "UNSUPPORTED_SIZE", "n=68719476735 unsupported")):
        with pytest.raises(CopcleanError) as e:
            parse_graph6(record)
        assert e.value.code == code and msg in str(e.value), record


def test_graph6_emit_size_cap():
    n = (1 << 18) + 1
    us = np.arange(n - 1, dtype=np.int64)
    g = Graph.from_edge_arrays(n, us, us + 1)
    with pytest.raises(UnsupportedSizeError):
        emit_graph6(g)


def test_edge_list_round_trip(small_connected):
    # n is recovered from the highest endpoint, so only edge-covered graphs
    for g in small_connected:
        if g.n >= 2:
            text = f"# n={g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
            assert parse_edge_list(text) == g


def test_edge_list_errors():
    with pytest.raises(BadParamError):
        parse_edge_list("")
    with pytest.raises(BadParamError):
        parse_edge_list("n=3\n0 1 2\n")


def test_canonical_matches_brute_force():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            assert canonical_key(g.bit_rows, g.n) == oracles.brute_canonical(g)
    # labelled graphs, connected or not, where the candidate groups and twins
    # of the branch and bound are larger
    rng = random.Random(16)
    for n, count in ((6, 30), (7, 8)):
        for _ in range(count):
            p = rng.random()
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < p])
            assert canonical_key(g.bit_rows, n) == oracles.brute_canonical(g), g.edges()


def test_canonical_relabel_invariant():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(2, 8)
        g = random_connected(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_key(g.bit_rows, n) == canonical_key(relabeled.bit_rows, n)



def test_enumeration_counts_three_routes():
    for n in range(1, 6):
        brute = oracles.brute_count_connected(n)
        assert sum(1 for _ in enumerate_connected(n)) == brute
        assert count_connected_classes(n) == brute


def test_enumeration_counts_reference():
    # connected graph classes: 1, 1, 2, 6, 21, 112, 853
    assert [count_connected_classes(n) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]
    # all graph classes: 1, 2, 4, 11, 34, 156, 1044
    assert [count_graph_classes(n) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]


def test_enumeration_matches_burnside_n6_n7():
    for n in (6, 7):
        assert sum(1 for _ in enumerate_connected(n)) == count_connected_classes(n)


def test_enumeration_is_canonical_and_connected():
    seen = set()
    for g in enumerate_connected(5):
        assert g.is_connected()
        key = canonical_key(g.bit_rows, g.n)
        assert key not in seen
        seen.add(key)


LEVEL_SHA256 = {
    5: "0590bd47e8dd07dcaf48fca66c863cb1cb934329d93ef0563b96122174383eec",
    6: "2d01f5d8a4feb13139b83e7c225a2c04568935848b620cae2d28194fa2b246e8",
    7: "409cc39ac8b2a97b4cb375d79e3658bf2f447a0ea1f3fd5bc580ddb505f502ac",
    8: "c343647ca62cc9e3626209fdb8a4eb5789ec794f31882e64e77498ea4bbb5dca",
}


def test_level_keys_pinned():
    # Every class's certificate, in order: representatives, enumeration
    # order and every sweep's bytes rest on these levels.
    for t, digest in LEVEL_SHA256.items():
        keys = _all_graph_keys(t)
        assert hashlib.sha256(",".join(map(str, keys)).encode()).hexdigest() == digest
    for t in range(1, 9):
        assert len(_all_graph_keys(t)) == count_graph_classes(t)


def test_automorphisms_match_brute_force():
    # every class of the small levels, connected or not, and three
    # vertex-transitive graphs on 8 vertices with 16, 48 and 1,152
    # automorphisms
    cube = Graph.from_edges(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3)
                                if u < u ^ 1 << b])
    k44 = Graph.from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)])
    cases = [oracles.graph_from_key(key, t) for t in range(1, 7) for key in _all_graph_keys(t)]
    cases += [cycle(8), cube, k44]
    for g in cases:
        auts = sorted(_walk_automorphisms(g.bit_rows, g.n))
        assert auts == oracles.brute_automorphisms(g), g.edges()
    assert [len(list(_walk_automorphisms(g.bit_rows, 8))) for g in cases[-3:]] == [16, 48, 1152]


def test_key_codec_matches_referee():
    # every class on t <= 7 vertices, connected or not: a key's bit rows,
    # its graph6 record, and the connectivity filter against the referee's
    # Graph built pair by pair
    for t in range(1, 8):
        refs = [oracles.graph_from_key(key, t) for key in _all_graph_keys(t)]
        assert [_key_rows(key, t) for key in _all_graph_keys(t)] == [g.bit_rows for g in refs]
        assert list(_connected_graph6(t)) == [emit_graph6(g) for g in refs if g.is_connected()]
    assert len(refs) == 1044 and sum(g.is_connected() for g in refs) == 853


def test_orbit_pruning_pinned(monkeypatch):
    # one canonical_key call per Aut(parent) orbit of children that pass
    # the invariant tests, counted over a cold build of the levels t <= 7
    # (calls per level without the orbits: 2, 5, 16, 64, 296, 2,119)
    real = graphs.canonical_key
    calls = []
    monkeypatch.setattr(graphs, "canonical_key", lambda rows, n: calls.append(n) or real(rows, n))
    saved = dict(graphs._levels_cache)
    graphs._levels_cache.clear()
    try:
        levels = {t: _all_graph_keys(t) for t in range(1, 8)}
    finally:
        graphs._levels_cache.clear()
        graphs._levels_cache.update(saved)
    assert [calls.count(t) for t in range(2, 8)] == [2, 4, 11, 34, 159, 1108]
    assert [len(levels[t]) for t in range(1, 8)] == [count_graph_classes(t) for t in range(1, 8)]
    assert all(saved[t] == keys for t, keys in levels.items() if t in saved)


def test_level_keys_match_every_labelled_graph():
    for t in range(1, 6):
        pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
        labelled = set()
        for edges in range(1 << len(pairs)):
            rows = [0] * t
            for b, (i, j) in enumerate(pairs):
                if edges >> b & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            labelled.add(canonical_key(tuple(rows), t))
        assert _all_graph_keys(t) == tuple(sorted(labelled))


def test_enumeration_bounds():
    with pytest.raises(UnsupportedSizeError):
        list(enumerate_connected(0))
    with pytest.raises(UnsupportedSizeError):
        list(enumerate_connected(10))


def test_girth_matches_oracle():
    for n in range(3, 7):
        for g in enumerate_connected(n):
            assert girth(g) == oracles.brute_girth(g)


def test_big_graph_uses_sparse_rows():
    rng = random.Random(3)
    g = random_connected(80, rng)
    assert g.n == 80
    d = g.bfs_dist(0)
    assert all(x >= 0 for x in d)
    assert parse_graph6(emit_graph6(g)) == g
    with pytest.raises(UnsupportedSizeError):
        g.bit_rows


def test_adjacent_to_and_closed_ball_match_plain_sets():
    rng = random.Random(5)
    # either side of the 64-vertex limit of bit_rows
    cases = [random_connected(12, rng), random_connected(80, rng)]
    # rows of degree 3, 2 and 1 over four ranges of _ROW_CHUNK rows
    cases.append(spider(3, graphs._ROW_CHUNK))
    # the construction: hubs of degree 2^m + 3 after rows of degree 13
    cases.append(build_construction(ConstructionSpec(k=2, m=8)).graph)
    edge = graphs._ROW_CHUNK
    for g in cases:
        ones = [[v] for v in sorted({0, edge - 1, edge, g.n - 1}) if v < g.n]
        for vertices in [[], *ones, rng.sample(range(g.n), g.n // 3), list(range(g.n))]:
            mask = np.zeros(g.n, dtype=bool)
            mask[vertices] = True
            want = {w for v in vertices for w in g.neighbors(v)}
            assert set(np.flatnonzero(g.adjacent_to(mask)).tolist()) == want, (g, vertices)
            for l in (1, 2):
                ball = g.closed_ball(vertices, l)
                assert set(np.flatnonzero(ball).tolist()) == oracles.seen_by(g, vertices, l)


@st.composite
def graphs_strategy(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    return Graph.from_edges(n, edges)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graphs_strategy())
def test_graph6_round_trip_property(g):
    assert parse_graph6(emit_graph6(g)) == g
    rows = g.bit_rows
    assert all(rows[v] == sum(1 << w for w in g.neighbors(v)) for v in range(g.n))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graphs_strategy(), st.randoms(use_true_random=False))
def test_canonical_relabel_property(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_key(g.bit_rows, g.n) == canonical_key(h.bit_rows, h.n)
