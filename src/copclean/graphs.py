"""Immutable undirected graphs with a compact bit-row core.

Vertices are dense integers 0..n-1.  Graphs on at most 64 vertices keep one
adjacency bitmask per vertex (the hot path for the game solvers); larger
graphs fall back to CSR-style sorted neighbour arrays.  Both forms sit
behind the same interface and callers never see the boundary.

Also here: the graph6 codec, structural metrics (degrees, girth, diameter,
distance-l degrees), canonical forms, and an exhaustive enumerator of
connected graphs by isomorphism class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import (
    BadParamError,
    Graph6Error,
    UnsupportedSizeError,
    VertexRangeError,
)

_BIG_N = 64           # bit-row representation up to here, CSR beyond
_GRAPH6_MAX_N = 1 << 18

ACYCLIC = None        # girth sentinel
DISCONNECTED = None   # diameter sentinel


class Graph:
    """Immutable simple undirected graph."""

    __slots__ = ("n", "name", "_rows", "_indptr", "_nbrs")

    def __init__(self, n, rows=None, indptr=None, nbrs=None, name=None):
        if n < 1:
            raise BadParamError("graph needs at least one vertex")
        self.n = n
        self.name = name
        self._rows = rows
        self._indptr = indptr
        self._nbrs = nbrs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], name: str | None = None) -> "Graph":
        if n < 1:
            raise BadParamError("graph needs at least one vertex")
        if n <= _BIG_N:
            rows = [0] * n
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise VertexRangeError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise BadParamError(f"self-loop at {u}")
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            return Graph(n, rows=tuple(rows), name=name)
        us, vs = [], []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise BadParamError(f"self-loop at {u}")
            us.append(u)
            vs.append(v)
        return Graph.from_edge_arrays(n, np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64), name=name)

    @staticmethod
    def from_edge_arrays(n: int, us: np.ndarray, vs: np.ndarray, name: str | None = None) -> "Graph":
        """Build from parallel endpoint arrays (large-graph path)."""
        if n <= _BIG_N:
            return Graph.from_edges(n, zip(us.tolist(), vs.tolist()), name=name)
        src = np.concatenate([us, vs])
        dst = np.concatenate([vs, us])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        if len(src):
            keep = np.ones(len(src), dtype=bool)
            keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst = src[keep], dst[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        nbrs = dst.astype(np.int32)
        nbrs.setflags(write=False)
        indptr.setflags(write=False)
        return Graph(n, indptr=indptr, nbrs=nbrs, name=name)

    # -- basic queries -----------------------------------------------------

    def neighbors(self, v: int):
        """Open neighbourhood of v, sorted ascending."""
        if not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v} out of range")
        if self._rows is not None:
            return _mask_bits(self._rows[v])
        return self._nbrs[self._indptr[v]:self._indptr[v + 1]].tolist()

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v} out of range")
        if self._rows is not None:
            return self._rows[v].bit_count()
        return int(self._indptr[v + 1] - self._indptr[v])

    def adjacent(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise VertexRangeError(f"pair ({u},{v}) out of range")
        if self._rows is not None:
            return bool(self._rows[u] >> v & 1)
        row = self._nbrs[self._indptr[u]:self._indptr[u + 1]]
        i = np.searchsorted(row, v)
        return i < len(row) and row[i] == v

    @property
    def bit_rows(self) -> tuple[int, ...]:
        if self._rows is None:
            raise UnsupportedSizeError(f"bit rows unavailable for n={self.n} > {_BIG_N}")
        return self._rows

    def edge_count(self) -> int:
        if self._rows is not None:
            return sum(r.bit_count() for r in self._rows) // 2
        return len(self._nbrs) // 2

    def closed_rows(self, count: int) -> np.ndarray:
        """Row v (v < count) holds v and then its neighbours ascending, as
        an int32 matrix padded with -1 to the widest row."""
        if self._rows is not None:
            lists = [self.neighbors(v) for v in range(count)]
            indptr = np.cumsum([0] + [len(x) for x in lists])
            nbrs = np.array([w for x in lists for w in x], dtype=np.int32)
        else:
            indptr, nbrs = self._indptr, self._nbrs
        lo = indptr[:count]
        deg = indptr[1:count + 1] - lo
        width = int(deg.max())
        out = np.full((count, 1 + width), -1, dtype=np.int32)
        out[:, 0] = np.arange(count, dtype=np.int32)
        for col in range(width):
            has = np.flatnonzero(deg > col)
            out[has, 1 + col] = nbrs[lo[has] + col]
        return out

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and list(self.edges()) == list(other.edges())

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} n={self.n} m={self.edge_count()}>"

    # -- traversal ---------------------------------------------------------

    def bfs_dist(self, src: int) -> list[int]:
        """Distances from src; -1 marks unreachable vertices."""
        if self._rows is not None:
            rows = self._rows
            dist = [-1] * self.n
            seen = 1 << src
            frontier = seen
            d = 0
            while frontier:
                for v in _mask_bits(frontier):
                    dist[v] = d
                nxt = 0
                for v in _mask_bits(frontier):
                    nxt |= rows[v]
                frontier = nxt & ~seen
                seen |= frontier
                d += 1
            return dist
        dist = [-1] * self.n
        dist[src] = 0
        queue = [src]
        indptr, nbrs = self._indptr, self._nbrs
        while queue:
            nxt = []
            for u in queue:
                du = dist[u] + 1
                for w in nbrs[indptr[u]:indptr[u + 1]].tolist():
                    if dist[w] < 0:
                        dist[w] = du
                        nxt.append(w)
            queue = nxt
        return dist

    def is_connected(self) -> bool:
        return all(d >= 0 for d in self.bfs_dist(0))

    def closed_l_mask(self, v: int, l: int) -> int:
        """Bitmask of the closed distance-l ball around v (n <= 64 only)."""
        rows = self.bit_rows
        reach = 1 << v
        frontier = reach
        for _ in range(l):
            nxt = 0
            for u in _mask_bits(frontier):
                nxt |= rows[u]
            frontier = nxt & ~reach
            if not frontier:
                break
            reach |= frontier
        return reach


def _mask_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def closed_l_neighborhood(g: Graph, v: int, l: int) -> frozenset[int]:
    """Closed ball of radius l around v, by breadth-first layering."""
    if l < 0:
        raise BadParamError("radius must be >= 0")
    if not 0 <= v < g.n:
        raise VertexRangeError(f"vertex {v} out of range")
    if g._rows is not None:
        return frozenset(_mask_bits(g.closed_l_mask(v, l)))
    reach = {v}
    frontier = [v]
    for _ in range(l):
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in reach:
                    reach.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return frozenset(reach)


# -- metrics ---------------------------------------------------------------


@dataclass(frozen=True)
class GraphMetrics:
    n: int
    m: int
    l: int
    min_degree: int
    max_degree: int
    max_l_degree: int
    girth: Optional[int]      # None means acyclic
    diameter: Optional[int]   # None means disconnected
    connected: bool

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "m": self.m,
            "l": self.l,
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "max_l_degree": self.max_l_degree,
            "girth": "ACYCLIC" if self.girth is None else self.girth,
            "diameter": "DISCONNECTED" if self.diameter is None else self.diameter,
            "connected": self.connected,
        }
        return d


def girth(g: Graph) -> Optional[int]:
    """Exact girth via shortest-cycle-through-each-edge; None if acyclic."""
    best = None
    if g._rows is not None:
        rows = list(g._rows)
        for u, v in g.edges():
            r2 = rows.copy()
            r2[u] &= ~(1 << v)
            r2[v] &= ~(1 << u)
            d = _mask_bfs_target(r2, u, v, best)
            if d is not None:
                cyc = d + 1
                if best is None or cyc < best:
                    best = cyc
                    if best == 3:
                        return 3
        return best
    for u, v in g.edges():
        d = _bfs_target_skip_edge(g, u, v, best)
        if d is not None:
            cyc = d + 1
            if best is None or cyc < best:
                best = cyc
                if best == 3:
                    return 3
    return best


def _mask_bfs_target(rows, src, dst, cap):
    seen = 1 << src
    frontier = seen
    d = 0
    target = 1 << dst
    while frontier:
        if frontier & target:
            return d
        d += 1
        if cap is not None and d + 1 >= cap:
            return None
        nxt = 0
        for v in _mask_bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= frontier
    return None


def _bfs_target_skip_edge(g, src, dst, cap):
    dist = {src: 0}
    queue = [src]
    while queue:
        nxt = []
        for x in queue:
            dx = dist[x] + 1
            if cap is not None and dx + 1 >= cap:
                continue
            for y in g.neighbors(x):
                if (x == src and y == dst) or (x == dst and y == src):
                    continue
                if y == dst:
                    return dx
                if y not in dist:
                    dist[y] = dx
                    nxt.append(y)
        queue = nxt
    return None


def metrics(g: Graph, l: int = 1) -> GraphMetrics:
    if l < 0:
        raise BadParamError("sight radius must be >= 0")
    degs = [g.degree(v) for v in range(g.n)]
    max_l_deg = 0
    diam = 0
    connected = True
    for v in range(g.n):
        dist = g.bfs_dist(v)
        ball = sum(1 for d in dist if 0 < d <= l)
        max_l_deg = max(max_l_deg, ball)
        far = max(dist)
        if any(d < 0 for d in dist):
            connected = False
        diam = max(diam, far)
    return GraphMetrics(
        n=g.n,
        m=g.edge_count(),
        l=l,
        min_degree=min(degs),
        max_degree=max(degs),
        max_l_degree=max_l_deg,
        girth=girth(g),
        diameter=None if not connected else diam,
        connected=connected,
    )


# -- graph6 codec ----------------------------------------------------------


def emit_graph6(g: Graph) -> str:
    n = g.n
    if n > _GRAPH6_MAX_N:
        raise UnsupportedSizeError(f"graph6 emit capped at n={_GRAPH6_MAX_N}, got {n}")
    out = bytearray()
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.append(126)
        out.extend(63 + (n >> s & 63) for s in (12, 6, 0))
    else:
        out.extend((126, 126))
        out.extend(63 + (n >> s & 63) for s in (30, 24, 18, 12, 6, 0))
    acc = 0
    nbits = 0
    if g._rows is not None:
        rows = g._rows
        for j in range(1, n):
            rj = rows[j]
            for i in range(j):
                acc = acc << 1 | (rj >> i & 1)
                nbits += 1
                if nbits == 6:
                    out.append(acc + 63)
                    acc = 0
                    nbits = 0
    else:
        adj = [set(g.neighbors(j)) for j in range(n)]
        for j in range(1, n):
            aj = adj[j]
            for i in range(j):
                acc = acc << 1 | (i in aj)
                nbits += 1
                if nbits == 6:
                    out.append(acc + 63)
                    acc = 0
                    nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def parse_graph6(s: str | bytes, name: str | None = None) -> Graph:
    if isinstance(s, str):
        data = s.encode("ascii", errors="replace")
    else:
        data = bytes(s)
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if not data:
        raise Graph6Error("TRUNCATED", "empty graph6 record")
    for b in data:
        if not 63 <= b <= 126:
            raise Graph6Error("INVALID_CHAR", f"byte {b} outside graph6 range 63..126")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise Graph6Error("TRUNCATED", "size prefix cut short")
            n = 0
            for b in data[2:8]:
                n = n << 6 | (b - 63)
            body = data[8:]
        else:
            if len(data) < 4:
                raise Graph6Error("TRUNCATED", "size prefix cut short")
            n = 0
            for b in data[1:4]:
                n = n << 6 | (b - 63)
            body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 1 or n > _GRAPH6_MAX_N:
        raise UnsupportedSizeError(f"graph6 size n={n} unsupported (1..{_GRAPH6_MAX_N})")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(body) != need:
        raise Graph6Error("TRUNCATED", f"expected {need} edge bytes for n={n}, got {len(body)}")
    if n <= _BIG_N:
        rows = [0] * n
        idx = 0
        for b in body:
            val = b - 63
            for shift in (5, 4, 3, 2, 1, 0):
                if idx >= npairs:
                    break
                if val >> shift & 1:
                    i, j = _pair_of_index(idx)
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                idx += 1
        return Graph(n, rows=tuple(rows), name=name)
    us, vs = [], []
    idx = 0
    for b in body:
        val = b - 63
        for shift in (5, 4, 3, 2, 1, 0):
            if idx >= npairs:
                break
            if val >> shift & 1:
                i, j = _pair_of_index(idx)
                us.append(i)
                vs.append(j)
            idx += 1
    return Graph.from_edge_arrays(n, np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64), name=name)


def _pair_of_index(idx: int) -> tuple[int, int]:
    # column-major upper triangle: x01, x02, x12, x03, x13, x23, ...
    j = int((1 + math.isqrt(1 + 8 * idx)) // 2)
    while j * (j - 1) // 2 > idx:
        j -= 1
    while (j + 1) * j // 2 <= idx:
        j += 1
    i = idx - j * (j - 1) // 2
    return i, j


# -- edge-list text format ---------------------------------------------------


def parse_edge_list(text: str, name: str | None = None) -> Graph:
    """Parse 'u v' lines; '#' starts a comment, blank lines are skipped."""
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BadParamError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise BadParamError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise VertexRangeError(f"line {lineno}: negative vertex id")
        top = max(top, u, v)
        edges.append((u, v))
    if top < 0:
        raise BadParamError("edge list is empty")
    return Graph.from_edges(top + 1, edges, name=name)


def emit_edge_list(g: Graph) -> str:
    lines = [f"# n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- canonical forms and enumeration ----------------------------------------


def canonical_key(rows: tuple[int, ...], n: int) -> int:
    """Canonical certificate: the minimum upper-triangle bit-string over all
    vertex orders, as an int.  Two graphs on n vertices are isomorphic iff
    their certificates are equal.

    Branch-and-bound over partial orders with prefix pruning; equal
    candidates related by a swap automorphism are explored once.
    """
    if n == 1:
        return 0
    total_bits = n * (n - 1) // 2
    best = (1 << total_bits) - 1  # all-ones is the lexicographic maximum
    full = (1 << n) - 1

    def dfs(placed, placed_mask, partial, bits_used):
        nonlocal best
        j = len(placed)
        if j == n:
            if partial < best:
                best = partial
            return
        rem = full & ~placed_mask
        scored = []
        for w in _mask_bits(rem):
            rw = rows[w]
            bits = 0
            for p in placed:
                bits = bits << 1 | (rw >> p & 1)
            scored.append((bits, w))
        scored.sort()
        taken = []
        for bits, w in scored:
            skip = False
            rw = rows[w]
            for bu, u in taken:
                if bu != bits:
                    continue
                if (rows[u] ^ rw) & ~(1 << u) & ~(1 << w) == 0:
                    skip = True
                    break
            if skip:
                continue
            taken.append((bits, w))
            partial2 = (partial << j) | bits
            used2 = bits_used + j
            prefix = best >> (total_bits - used2)
            if partial2 > prefix:
                continue
            dfs(placed + [w], placed_mask | (1 << w), partial2, used2)

    dfs([], 0, 0, 0)
    return best


def rows_from_key(key: int, n: int) -> tuple[int, ...]:
    """Rebuild bit rows from a canonical upper-triangle certificate."""
    total_bits = n * (n - 1) // 2
    rows = [0] * n
    for idx in range(total_bits):
        if key >> (total_bits - 1 - idx) & 1:
            i, j = _pair_of_index(idx)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


ENUM_MAX_N = 9
_levels_cache: dict[int, tuple[int, ...]] = {}


def _all_graph_keys(t: int) -> tuple[int, ...]:
    """Canonical keys of every unlabeled graph on t vertices, sorted.

    Each class on t-1 vertices is extended by a new vertex joined to every
    neighbourhood ``mask``; only a child whose new vertex has the largest
    invariant ``(degree, sorted neighbour degrees)`` is certified by
    ``canonical_key`` (the invariant test of McKay's canonical construction
    path).  The degree test is cheap: old vertex i has degree
    ``deg_P(i) + (mask >> i & 1)``, so the new vertex is of maximum degree
    iff ``popcount(mask)`` is at least every parent degree and ``mask``
    avoids the parent vertices of degree exactly ``popcount(mask)``.

    No class is lost: take a graph G and a vertex u of G with the largest
    invariant.  The class of G-u is in level t-1; extending its
    representative by the image of N(u) gives a child isomorphic to G whose
    new vertex carries u's invariant, so that child passes both tests.
    Surviving isomorphic children still meet in ``seen``.
    """
    if t in _levels_cache:
        return _levels_cache[t]
    if t == 1:
        _levels_cache[1] = (0,)
        return _levels_cache[1]
    parents = _all_graph_keys(t - 1)
    new = t - 1
    seen = set()
    for pkey in parents:
        prows = rows_from_key(pkey, new)
        pdeg = [r.bit_count() for r in prows]
        at_deg = [0] * t  # at_deg[d]: parent vertices of degree d
        for i, d in enumerate(pdeg):
            at_deg[d] |= 1 << i
        top = max(pdeg)
        for mask in range(1 << new):
            d = mask.bit_count()
            if d < top or mask & at_deg[d]:
                continue
            rows = tuple(r | ((mask >> i & 1) << new) for i, r in enumerate(prows)) + (mask,)
            tied = mask & at_deg[d - 1]
            if tied:
                deg = [r.bit_count() for r in rows]
                mine = sorted(deg[w] for w in _mask_bits(mask))
                if any(sorted(deg[w] for w in _mask_bits(rows[i])) > mine
                       for i in _mask_bits(tied)):
                    continue
            seen.add(canonical_key(rows, t))
    out = tuple(sorted(seen))
    _levels_cache[t] = out
    return out


def _rows_connected(rows: tuple[int, ...], n: int) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in _mask_bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def enumerate_connected(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on n
    vertices, in canonical-certificate order (deterministic across runs)."""
    if not 1 <= n <= ENUM_MAX_N:
        raise UnsupportedSizeError(f"enumeration supported for 1 <= n <= {ENUM_MAX_N}")
    out = []
    for key in _all_graph_keys(n):
        rows = rows_from_key(key, n)
        if _rows_connected(rows, n):
            out.append(Graph(n, rows=rows))
    return out


def count_graph_classes(n: int) -> int:
    """Unlabeled simple graphs on n vertices, by cycle-index counting.

    Independent of the enumerator: sums 2**(pair orbits) over cycle types
    of the symmetric group.
    """
    total = 0  # accumulates n! * count
    for part in _partitions(n):
        # permutations with this cycle type
        denom = 1
        counts: dict[int, int] = {}
        for c in part:
            counts[c] = counts.get(c, 0) + 1
        for length, cnt in counts.items():
            denom *= length ** cnt * math.factorial(cnt)
        perms = math.factorial(n) // denom
        orbits = sum(c // 2 for c in part)
        for a in range(len(part)):
            for b in range(a + 1, len(part)):
                orbits += math.gcd(part[a], part[b])
        total += perms * (1 << orbits)
    return total // math.factorial(n)


def count_connected_classes(n: int) -> int:
    """Connected unlabeled graphs on n vertices via the inverse Euler
    transform of the all-graphs sequence."""
    g = [0] + [count_graph_classes(i) for i in range(1, n + 1)]
    d = [0] * (n + 1)
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        d[m] = m * g[m] - sum(d[k] * g[m - k] for k in range(1, m))
        s = sum(div * c[div] for div in range(1, m) if m % div == 0)
        c[m] = (d[m] - s) // m
    return c[n]


def _partitions(n: int, cap: int | None = None):
    if n == 0:
        yield ()
        return
    cap = n if cap is None else cap
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest
