import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from copclean.errors import BadParamError, Graph6Error, UnsupportedSizeError, VertexRangeError
from copclean.graphs import (
    Graph,
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


def test_closed_neighborhood():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    assert closed_l_neighborhood(g, 2, 0) == {2}
    assert closed_l_neighborhood(g, 2, 1) == {1, 2, 3}
    assert closed_l_neighborhood(g, 0, 3) == {0, 1, 2, 3}
    assert closed_l_neighborhood(g, 0, 99) == set(range(6))


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


def test_graph6_errors():
    with pytest.raises(Graph6Error) as e:
        parse_graph6("C~\x1f")
    assert e.value.code == "INVALID_CHAR"
    with pytest.raises(Graph6Error) as e:
        parse_graph6("D")
    assert e.value.code == "TRUNCATED"
    with pytest.raises(Graph6Error):
        parse_graph6("C~~~~")   # too long for n=4


def test_graph6_emit_size_cap():
    import numpy as np

    n = (1 << 18) + 1
    us = np.arange(n - 1, dtype=np.int64)
    g = Graph.from_edge_arrays(n, us, us + 1)
    with pytest.raises(UnsupportedSizeError):
        emit_graph6(g)


def test_edge_list_round_trip(small_connected):
    from copclean.graphs import emit_edge_list

    # n is recovered from the highest endpoint, so only edge-covered graphs
    for g in small_connected:
        if g.n >= 2:
            assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_errors():
    with pytest.raises(BadParamError):
        parse_edge_list("")
    with pytest.raises(BadParamError):
        parse_edge_list("n=3\n0 1 2\n")


def test_canonical_matches_brute_force():
    for n in range(1, 6):
        for g in enumerate_connected(n):
            assert canonical_key(g.bit_rows, g.n) == oracles.brute_canonical(g)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(graphs_strategy(), st.randoms(use_true_random=False))
def test_canonical_relabel_property(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_key(g.bit_rows, g.n) == canonical_key(h.bit_rows, h.n)
