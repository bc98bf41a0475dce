"""Parameterized graph families used by the harness and the test suites."""

from __future__ import annotations

import heapq
import random

import numpy as np

from .errors import BadParamError
from .graphs import Graph, check_edge_cap, check_vertex_cap


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParamError("cycle needs n >= 3")
    check_vertex_cap(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle:{n}")


def path(n: int) -> Graph:
    if n < 1:
        raise BadParamError("path needs n >= 1")
    check_vertex_cap(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], name=f"path:{n}")


def complete(n: int) -> Graph:
    if n < 1:
        raise BadParamError("complete graph needs n >= 1")
    check_vertex_cap(n)
    check_edge_cap(n * (n - 1) // 2)
    # the pairs i < j row by row, in int32: row i holds j = i+1 .. n-1 from
    # index start[i] on, so index e of row i holds j = e - (start[i] - i - 1)
    row = np.arange(n - 1, dtype=np.int32)
    count = n - 1 - row
    shift = np.cumsum(count, dtype=np.int32) - count - row - 1
    us = np.repeat(row, count)
    vs = np.arange(len(us), dtype=np.int32) - np.repeat(shift, count)
    return Graph.from_edge_arrays(n, us, vs, name=f"complete:{n}")


def star(leaves: int) -> Graph:
    if leaves < 1:
        raise BadParamError("star needs at least one leaf")
    check_vertex_cap(leaves + 1)
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)], name=f"star:{leaves}")


def spider(legs: int, leg_len: int) -> Graph:
    """Central vertex 0 with ``legs`` disjoint paths of ``leg_len`` edges."""
    if legs < 1 or leg_len < 1:
        raise BadParamError("spider needs legs >= 1 and leg_len >= 1")
    check_vertex_cap(legs * leg_len + 1)
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_len):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges, name=f"spider:{legs}:{leg_len}")


def heawood() -> Graph:
    # 14-cycle plus chords i -> i+5 from even i (LCF notation [5,-5]^7)
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Graph.from_edges(14, edges, name="heawood")


def petersen() -> Graph:
    # outer 5-cycle 0..4, spokes i -> i+5, inner pentagram 5+i -> 5+(i+2)%5
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges, name="petersen")


def grid(rows: int, cols: int) -> Graph:
    """The rows x cols grid, row-major: vertex ``i * cols + j`` sits in row
    i, column j."""
    if rows < 1 or cols < 1:
        raise BadParamError("grid needs rows >= 1 and cols >= 1")
    check_vertex_cap(rows * cols)
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    us = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    vs = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return Graph.from_edge_arrays(rows * cols, us, vs, name=f"grid:{rows}:{cols}")


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n vertices from a Prufer sequence."""
    if n < 1:
        raise BadParamError("tree needs n >= 1")
    check_vertex_cap(n)
    if n == 1:
        return Graph.from_edges(1, [], name=f"tree:{n}:{seed}")
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges, name=f"tree:{n}:{seed}")


_SPECS = {"cycle": (cycle, 1), "path": (path, 1), "complete": (complete, 1), "star": (star, 1),
          "spider": (spider, 2), "heawood": (heawood, 0), "petersen": (petersen, 0),
          "grid": (grid, 2), "tree": (random_tree, 2)}


def from_spec(spec: str) -> Graph:
    """Build a family member from a colon-separated spec string.

    Accepted forms: ``cycle:N``, ``path:N``, ``complete:N``, ``star:LEAVES``,
    ``spider:LEGS:LEGLEN``, ``heawood``, ``petersen``, ``grid:ROWS:COLS``,
    ``tree:N:SEED``.  Integers the builder rejects raise its own
    ``BadParamError``.
    """
    kind, *params = spec.split(":")
    build, arity = _SPECS.get(kind, (None, -1))
    if len(params) != arity:
        raise BadParamError(f"unknown family spec {spec!r}")
    try:
        args = [int(p) for p in params]
    except ValueError:
        raise BadParamError(f"non-integer parameter in family spec {spec!r}") from None
    return build(*args)
