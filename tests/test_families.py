import pytest

from copclean.errors import BadParamError, UnsupportedSizeError
from copclean.families import (complete, cycle, from_spec, grid, heawood, path, petersen,
                               random_tree, spider, star)
from copclean.graphs import MAX_VERTICES, girth, metrics


def test_cycle():
    g = cycle(6)
    assert g.n == 6 and g.edge_count() == 6
    assert all(g.degree(v) == 2 for v in range(6))
    assert girth(g) == 6
    with pytest.raises(BadParamError):
        cycle(2)


def test_path():
    g = path(5)
    assert g.n == 5 and g.edge_count() == 4
    assert sorted(g.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]
    assert path(1).edge_count() == 0


def test_complete():
    g = complete(5)
    assert g.edge_count() == 10
    assert all(g.degree(v) == 4 for v in range(5))


def test_star():
    g = star(6)
    assert g.n == 7 and g.edge_count() == 6
    assert g.degree(0) == 6
    assert all(g.degree(v) == 1 for v in range(1, 7))


def test_spider():
    g = spider(3, 2)
    assert g.n == 7 and g.edge_count() == 6
    assert g.degree(0) == 3
    assert sorted(g.degree(v) for v in range(1, 7)) == [1, 1, 1, 2, 2, 2]


def test_heawood():
    g = heawood()
    m = metrics(g)
    assert m.n == 14 and m.m == 21
    assert m.min_degree == m.max_degree == 3
    assert m.girth == 6
    assert m.diameter == 3
    assert m.connected


def test_grid():
    for rows, cols in ((1, 1), (1, 5), (4, 1), (3, 4), (5, 5)):
        g = grid(rows, cols)
        assert g.n == rows * cols
        assert g.edge_count() == 2 * rows * cols - rows - cols
        assert g.is_connected()
    # row-major: vertex i * cols + j is row i, column j
    g = grid(3, 4)
    assert g.neighbors(0) == [1, 4] and g.neighbors(5) == [1, 4, 6, 9]
    assert g.neighbors(11) == [7, 10]
    with pytest.raises(BadParamError, match="grid needs rows >= 1 and cols >= 1"):
        grid(0, 3)


def test_petersen():
    g = petersen()
    m = metrics(g)
    assert m.n == 10 and m.m == 15
    assert m.min_degree == m.max_degree == 3
    assert m.girth == 5
    assert m.diameter == 2


def test_random_tree_shape():
    for seed in range(10):
        g = random_tree(9, seed)
        assert g.n == 9
        assert g.edge_count() == 8
        assert g.is_connected()


def test_random_tree_deterministic():
    a = random_tree(12, 7)
    b = random_tree(12, 7)
    assert a == b
    assert sorted(a.edges()) == sorted(b.edges())
    # different seeds give different trees somewhere in a small window
    assert any(random_tree(12, s) != a for s in range(1, 6))


def test_from_spec():
    assert from_spec("cycle:5").n == 5
    assert from_spec("path:8").n == 8
    assert from_spec("complete:4").edge_count() == 6
    assert from_spec("star:5").n == 6
    assert from_spec("spider:4:3").n == 13
    assert from_spec("heawood").n == 14
    assert from_spec("petersen") == petersen()
    assert from_spec("grid:4:5") == grid(4, 5)
    assert from_spec("tree:10:3") == random_tree(10, 3)


def test_from_spec_errors():
    for bad in ("ring:5", "cycle", "cycle:x", "spider:3", "heawood:1", "petersen:10",
                "grid:4", "grid:4:5:6", ""):
        with pytest.raises(BadParamError):
            from_spec(bad)


def test_from_spec_passes_builder_errors():
    # an integer the builder rejects keeps the builder's message
    for spec, msg in (("cycle:2", "cycle needs n >= 3"), ("cycle:0", "cycle needs n >= 3"),
                      ("tree:0:1", "tree needs n >= 1"),
                      ("spider:0:0", "spider needs legs >= 1 and leg_len >= 1")):
        with pytest.raises(BadParamError, match=msg):
            from_spec(spec)


def test_builders_refuse_before_allocating():
    # one vertex over the cap: each builder refuses before its edge list
    # exists (complete:N alone would need N^2/2 pairs)
    over = MAX_VERTICES + 1
    for build in (lambda: cycle(over), lambda: path(over), lambda: complete(over),
                  lambda: star(over - 1), lambda: spider(1, over - 1),
                  lambda: random_tree(over, 0), lambda: grid(over, 1),
                  lambda: grid(1 << 10, (1 << 10) + 1), lambda: from_spec(f"cycle:{over}")):
        with pytest.raises(UnsupportedSizeError, match=f"above the cap of {MAX_VERTICES}$"):
            build()
