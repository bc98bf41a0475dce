"""Immutable undirected graphs stored as CSR neighbour arrays.

Vertices are dense integers 0..n-1.  Every graph keeps one storage: the CSR
pair ``(indptr, nbrs)``, with each vertex's neighbours sorted ascending.
Graphs on at most 64 vertices also expose ``bit_rows``, one adjacency
bitmask per vertex, built from the CSR pair on first read; the game solvers
work on those, and ``_ball`` is their one closed radius-l ball of a vertex
mask.

Graphs of every size share one CSR kernel over boolean vertex masks:
``Graph.adjacent_to`` flags the neighbours of a mask with one numpy scatter
per range of rows the mask touches, and ``Graph.closed_ball`` layers it
into the closed radius-l ball of a vertex set.  The cleaning engine steps
on these masks, and ``closed_l_neighborhood`` is the same ball as a
frozenset.

Also here: the graph6 codec, structural metrics (degrees, girth, diameter,
distance-l degrees), canonical forms, and an exhaustive enumerator of
connected graphs by isomorphism class.

A class's canonical key is its upper triangle in graph6 bit order, the
first pair highest, so the key padded to whole characters is the body of
the class's graph6 record.  The enumerator streams those records, and
``parse_graph6`` is the one decoder from graph6 to a ``Graph``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import (
    BadParamError,
    Graph6Error,
    UnsupportedSizeError,
    VertexRangeError,
)

_BIT_ROWS_MAX_N = 64
_ROW_CHUNK = 1 << 12   # rows per scatter in adjacent_to
_GRAPH6_MAX_N = 1 << 18
# byte translations: a graph6 character to its six bits and back, six bits
# to their count
_GRAPH6_CHARS = bytes(range(63, 127))
_SIX_BITS = bytes.maketrans(_GRAPH6_CHARS, bytes(range(64)))
_SIX_CHARS = bytes.maketrans(bytes(range(64)), _GRAPH6_CHARS)
_SET_BITS = bytes.maketrans(bytes(range(64)), bytes(b.bit_count() for b in range(64)))
MAX_VERTICES = 1 << 20   # every graph; the paper's k=2, m=16 block graph has 262,148
MAX_EDGES = 1 << 22      # every graph; that block graph has 3,407,878


def check_vertex_cap(n: int) -> None:
    """Refuse a graph of more than ``MAX_VERTICES`` vertices with
    ``UnsupportedSizeError``; builders call it before they allocate."""
    if n > MAX_VERTICES:
        raise UnsupportedSizeError(f"graph of {n} vertices is above the cap of {MAX_VERTICES}")


def check_edge_cap(m: int) -> None:
    """Refuse more than ``MAX_EDGES`` edges, as ``check_vertex_cap`` does
    vertices; builders call it before they allocate."""
    if m > MAX_EDGES:
        raise UnsupportedSizeError(f"graph of {m} edges is above the cap of {MAX_EDGES}")


class Graph:
    """Immutable simple undirected graph.

    Vertex v's neighbours are ``nbrs[indptr[v]:indptr[v + 1]]``, so two
    graphs are equal iff their CSR pairs are.  ``from_edges`` and
    ``from_edge_arrays`` build one from an edge list.  A caller that writes
    the pair itself must meet the same contract: every row sorted, free of
    repeats and of v itself, and u in row v iff v in row u; ``indptr`` int64
    and ``nbrs`` int32, both read-only.
    """

    __slots__ = ("n", "name", "_indptr", "_nbrs", "_bit_rows")

    def __init__(self, n, indptr, nbrs, name=None):
        self.n = n
        self.name = name
        self._indptr = indptr
        self._nbrs = nbrs
        self._bit_rows = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], name: str | None = None) -> "Graph":
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        return Graph.from_edge_arrays(n, pairs[:, 0], pairs[:, 1], name=name)

    @staticmethod
    def from_edge_arrays(n: int, us: np.ndarray, vs: np.ndarray, name: str | None = None) -> "Graph":
        """Build from parallel endpoint arrays; repeated edges collapse.
        More than ``MAX_VERTICES`` vertices or ``MAX_EDGES`` endpoint pairs
        raise ``UnsupportedSizeError`` before anything is allocated.

        Integer endpoints of any dtype are read as they are, not copied.
        Besides them and the CSR result, the build holds one int64 key per
        arc (16 bytes per edge), sorted and turned into neighbours in place;
        only repeated edges add a compacted copy of the keys."""
        if n < 1:
            raise BadParamError("graph needs at least one vertex")
        check_vertex_cap(n)
        check_edge_cap(len(us))
        us, vs = (a if a.dtype.kind in "iu" else a.astype(np.int64)
                  for a in (np.asarray(us), np.asarray(vs)))
        m = len(us)
        if m and (min(int(us.min()), int(vs.min())) < 0
                  or max(int(us.max()), int(vs.max())) >= n or (us == vs).any()):
            out = (us < 0) | (us >= n) | (vs < 0) | (vs >= n)
            i = int((out | (us == vs)).argmax())
            u, v = int(us[i]), int(vs[i])
            if out[i]:
                raise VertexRangeError(f"edge ({u},{v}) out of range for n={n}")
            raise BadParamError(f"self-loop at {u}")
        # arc u -> v is key u*n + v; sorted unique keys list each vertex's
        # neighbours in order, vertex after vertex.  The products are taken
        # in int64 whatever the endpoint dtype.
        keys = np.empty(2 * m, dtype=np.int64)
        for half, a, b in ((keys[:m], us, vs), (keys[m:], vs, us)):
            np.multiply(a, n, out=half, dtype=np.int64)
            np.add(half, b, out=half, dtype=np.int64)
        # a view left bound would keep the uncompacted keys alive below
        del half, a, b, us, vs
        keys.sort()
        repeat = keys[1:] == keys[:-1]
        if repeat.any():
            keys = keys[np.concatenate(([True], ~repeat))]
        del repeat
        indptr = np.searchsorted(keys, np.arange(0, n * n + 1, n)).astype(np.int64, copy=False)
        nbrs = np.remainder(keys, n, out=keys).astype(np.int32)
        nbrs.setflags(write=False)
        indptr.setflags(write=False)
        return Graph(n, indptr, nbrs, name=name)

    # -- basic queries -----------------------------------------------------

    def neighbors(self, v: int):
        """Open neighbourhood of v, sorted ascending."""
        return self.row(v).tolist()

    def row(self, v: int) -> np.ndarray:
        """Open neighbourhood of v as a read-only int32 view of ``nbrs``."""
        if not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v} out of range")
        return self._nbrs[self._indptr[v]:self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v} out of range")
        return int(self._indptr[v + 1] - self._indptr[v])

    def adjacent(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise VertexRangeError(f"pair ({u},{v}) out of range")
        row = self._nbrs[self._indptr[u]:self._indptr[u + 1]]
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    @property
    def bit_rows(self) -> tuple[int, ...]:
        """Adjacency bitmask per vertex (n <= 64 only), built once."""
        if self._bit_rows is None:
            if self.n > _BIT_ROWS_MAX_N:
                raise UnsupportedSizeError(f"bit rows unavailable for n={self.n} > {_BIT_ROWS_MAX_N}")
            rows = [0] * self.n
            for v, nbrs in enumerate(self._adjacency()):
                for w in nbrs:
                    rows[v] |= 1 << w
            self._bit_rows = tuple(rows)
        return self._bit_rows

    def edge_count(self) -> int:
        return len(self._nbrs) // 2

    def _adjacency(self) -> list[list[int]]:
        """Every vertex's neighbour list, as plain Python lists."""
        ptr, nbrs = self._indptr.tolist(), self._nbrs.tolist()
        return [nbrs[ptr[v]:ptr[v + 1]] for v in range(self.n)]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self._adjacency()):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._nbrs, other._nbrs))

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} n={self.n} m={self.edge_count()}>"

    # -- traversal ---------------------------------------------------------

    def bfs_dist(self, src: int) -> list[int]:
        """Distances from src; -1 marks unreachable vertices."""
        dist = [-1] * self.n
        dist[src] = 0
        queue = [src]
        ptr, nbrs = self._indptr.tolist(), self._nbrs.tolist()
        while queue:
            nxt = []
            for u in queue:
                du = dist[u] + 1
                for w in nbrs[ptr[u]:ptr[u + 1]]:
                    if dist[w] < 0:
                        dist[w] = du
                        nxt.append(w)
            queue = nxt
        return dist

    def is_connected(self) -> bool:
        return -1 not in self.bfs_dist(0)

    def adjacent_to(self, mask: np.ndarray) -> np.ndarray:
        """Boolean vertex mask of every neighbour of a vertex in ``mask``.

        Over each range of ``_ROW_CHUNK`` rows, ``np.repeat(part, deg)``
        flags the arcs leaving the range's vertices of ``mask``, in CSR
        order, so their heads are the flagged entries of that range's
        ``nbrs``; an empty row repeats nothing.  A range where the mask is
        empty is skipped, so a sparse mask costs its own rows, and a dense
        one holds one range's arcs at a time."""
        out = np.zeros(self.n, dtype=bool)
        indptr, nbrs = self._indptr, self._nbrs
        for a in range(0, self.n, _ROW_CHUNK):
            part = mask[a:a + _ROW_CHUNK]
            if not part.any():
                continue
            ptr = indptr[a:a + _ROW_CHUNK + 1]
            out[nbrs[ptr[0]:ptr[-1]][np.repeat(part, np.diff(ptr))]] = True
        return out

    def closed_ball(self, vertices: Iterable[int], l: int) -> np.ndarray:
        """Boolean vertex mask of the closed radius-l ball around a vertex
        set: ``adjacent_to`` layered l times from the vertices themselves,
        each layer keeping only what the ball does not hold yet."""
        if l < 0:
            raise BadParamError("radius must be >= 0")
        reach = np.zeros(self.n, dtype=bool)
        for v in vertices:
            if not 0 <= v < self.n:
                raise VertexRangeError(f"vertex {v} out of range")
            reach[v] = True
        frontier = reach
        for _ in range(l):
            frontier = self.adjacent_to(frontier) & ~reach
            if not frontier.any():
                break
            reach |= frontier
        return reach


def _mask_bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending.  They come off the top, so each
    step's operands shrink, where taking the low bit copies the whole mask
    twice: that matters for the cleaning search's wide config-rank masks."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top
    out.reverse()
    return out


def _ball(rows: tuple[int, ...], mask: int, l: int) -> int:
    """The closed radius-l ball around the vertices of ``mask`` in a graph
    given by its ``bit_rows``, as a mask.  Each of at most l rounds adds the
    neighbours of the vertices the last round added, and it stops once a
    round adds none, so a radius past the diameter costs nothing more."""
    reach = new = mask
    for _ in range(l):
        grown = 0
        while new:
            low = new & -new
            grown |= rows[low.bit_length() - 1]
            new ^= low
        new = grown & ~reach
        if not new:
            break
        reach |= new
    return reach


def closed_l_neighborhood(g: Graph, v: int, l: int) -> frozenset[int]:
    """Closed ball of radius l around v: ``Graph.closed_ball`` as a set."""
    return frozenset(np.flatnonzero(g.closed_ball((v,), l)).tolist())


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
        d = asdict(self)
        if self.girth is None:
            d["girth"] = "ACYCLIC"
        if self.diameter is None:
            d["diameter"] = "DISCONNECTED"
        return d


def girth(g: Graph) -> Optional[int]:
    """Exact girth via shortest-cycle-through-each-edge; None if acyclic."""
    best = None
    adj = g._adjacency()
    for u, v in g.edges():
        d = _bfs_target_skip_edge(adj, u, v, best)
        if d is not None:
            cyc = d + 1
            if best is None or cyc < best:
                best = cyc
                if best == 3:
                    return 3
    return best


def _bfs_target_skip_edge(adj, src, dst, cap):
    dist = {src: 0}
    queue = [src]
    while queue:
        nxt = []
        for x in queue:
            dx = dist[x] + 1
            if cap is not None and dx + 1 >= cap:
                continue
            for y in adj[x]:
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
    # pair (i, j), i < j, is bit j(j-1)/2 + i of the column-major upper
    # triangle, six bits per byte, high bit first
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges():
        idx = j * (j - 1) // 2 + i
        body[idx // 6] |= 32 >> idx % 6
    out += body.translate(_SIX_CHARS)
    return out.decode("ascii")


def parse_graph6(s: str | bytes, name: str | None = None) -> Graph:
    if isinstance(s, str):
        try:
            data = s.encode("ascii")
        except UnicodeEncodeError as e:
            raise Graph6Error("INVALID_CHAR", f"character {s[e.start]!r} outside graph6 "
                                              "range 63..126") from None
    else:
        data = bytes(s)
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if not data:
        raise Graph6Error("TRUNCATED", "empty graph6 record")
    bad = data.translate(None, _GRAPH6_CHARS)   # the bytes outside the range, in order
    if bad:
        raise Graph6Error("INVALID_CHAR", f"byte {bad[0]} outside graph6 range 63..126")
    if data[0] == 126:
        # "~" then 3 size digits, or "~~" then 6
        start, end = (2, 8) if data[1:2] == b"~" else (1, 4)
        if len(data) < end:
            raise Graph6Error("TRUNCATED", "size prefix cut short")
        n = 0
        for b in data[start:end]:
            n = n << 6 | (b - 63)
        body = data[end:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n < 1 or n > _GRAPH6_MAX_N:
        raise UnsupportedSizeError(f"graph6 size n={n} unsupported (1..{_GRAPH6_MAX_N})")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(body) != need:
        raise Graph6Error("TRUNCATED", f"expected {need} edge bytes for n={n}, got {len(body)}")
    # six bits per byte, high bit first; pair (i, j), i < j, is bit
    # j(j-1)/2 + i of the column-major upper triangle, and the bits past
    # the last pair are padding, cleared here
    six = bytearray(body.translate(_SIX_BITS))
    pad = 6 * need - npairs
    if pad:
        six[-1] &= 64 - (1 << pad)
    check_edge_cap(sum(six.translate(_SET_BITS)))
    six = np.frombuffer(six, dtype=np.uint8)
    rows = np.flatnonzero(six)
    hit, col = np.nonzero(np.unpackbits(six[rows, None], axis=1)[:, 2:])
    # the set bits' positions, in place, each temporary dropped once read:
    # the endpoints reach the builder as int32 (n is at most 2^20) and
    # nothing else per edge stays alive through the build
    idx = rows[hit]
    del rows, hit
    idx *= 6
    idx += col
    del col
    # column j holds the bits from ends[j - 1] = j(j-1)/2 up to ends[j], so
    # j counts the ends at or below idx
    ends = np.cumsum(np.arange(n, dtype=np.int64))
    j = np.searchsorted(ends, idx, side="right")
    vs = j.astype(np.int32)
    j -= 1
    idx -= ends[j]
    del j
    us = idx.astype(np.int32)
    del idx
    return Graph.from_edge_arrays(n, us, vs, name=name)


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


# -- canonical forms and enumeration ----------------------------------------


def canonical_key(rows: tuple[int, ...], n: int) -> int:
    """Canonical certificate: the minimum upper-triangle bit-string over all
    vertex orders, as an int.  Two graphs on n vertices are isomorphic iff
    their certificates are equal.

    Branch-and-bound over partial orders with prefix pruning; equal
    candidates related by a swap automorphism are explored once.  Each
    level hands its child the unplaced vertices w sorted by their bits
    (w's adjacency to the placed vertices, the first placed highest),
    packed as ``bits << s | w``; the child extends each by one bit for the
    vertex just placed.  Candidates ascend and the bound only falls, so the
    first one past the bound ends the level.
    """
    if n == 1:
        return 0
    total_bits = n * (n - 1) // 2
    best = (1 << total_bits) - 1  # all-ones is the lexicographic maximum
    s = max(1, (n - 1).bit_length())
    low = (1 << s) - 1

    def dfs(cands, partial, j):
        nonlocal best
        shift = total_bits - j * (j + 1) // 2   # bits left after this level's
        group = -1
        taken = []   # the vertices tried with this group's bits
        for p in cands:
            bits = p >> s
            w = p & low
            rw = rows[w]
            if bits != group:
                group, taken = bits, []
            else:
                # a twin of a vertex tried (swapping them fixes the placed
                # vertices) leads to the same certificates
                twin = False
                for u in taken:
                    if (rows[u] ^ rw) & ~(1 << u | 1 << w) == 0:
                        twin = True
                        break
                if twin:
                    continue
            taken.append(w)
            partial2 = partial << j | bits
            if partial2 > best >> shift:
                break
            rest = [(q >> s << 1 | rows[q & low] >> w & 1) << s | q & low
                    for q in cands if q != p]
            if len(rest) == 1:   # the last vertex: score it in place
                last = partial2 << j + 1 | rest[0] >> s
                if last < best:
                    best = last
            else:
                rest.sort()
                dfs(rest, partial2, j + 1)

    dfs(list(range(n)), 0, 0)
    return best


def _key_rows(key: int, n: int) -> tuple[int, ...]:
    """The bit rows of the graph whose upper-triangle certificate is
    ``key``: pair (i, j), i < j, in graph6 bit order, the first pair
    highest."""
    rows = [0] * n
    bit = n * (n - 1) // 2
    for j in range(1, n):
        for i in range(j):
            bit -= 1
            if key >> bit & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def _walk_automorphisms(rows: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """Yield the automorphisms of the graph with bit rows ``rows``, each a
    tuple ``p`` with ``p[i]`` the image of vertex i, one at a time.

    Backtracking assigns images to the vertices in breadth-first order,
    each component from its least vertex.  A vertex may go to an unused w
    of its degree whose adjacency to the images already placed is exactly
    the image of its adjacency to the vertices placed before it, so every
    full assignment preserves adjacency and every automorphism is reached.
    In breadth-first order each vertex but a component's first has a
    placed neighbour, so its image is one of few: the walk meets few dead
    ends even on graphs whose labels are shuffled."""
    deg = [r.bit_count() for r in rows]
    same = [[w for w in range(n) if deg[w] == deg[v]] for v in range(n)]
    order = []
    placed = 0
    for root in range(n):
        if not placed >> root & 1:
            placed |= 1 << root
            i = len(order)
            order.append(root)
            while i < len(order):
                fresh = rows[order[i]] & ~placed
                placed |= fresh
                order += _mask_bits(fresh)
                i += 1
    image = [0] * n   # image[v]: the bit of vertex v's image
    before = 0
    back = []   # back[i]: the neighbours of order[i] placed before it
    for v in order:
        back.append(_mask_bits(rows[v] & before))
        before |= 1 << v

    def extend(i, used):
        if i == n:
            yield tuple(b.bit_length() - 1 for b in image)
            return
        v = order[i]
        want = sum([image[j] for j in back[i]])
        for w in same[v]:
            if not used >> w & 1 and rows[w] & used == want:
                image[v] = 1 << w
                yield from extend(i + 1, used | 1 << w)

    return extend(0, 0)


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

    Only one child per orbit of the parent's automorphism group on masks
    is certified, the one of least mask (B. D. McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998).  Any pi in Aut(P)
    extends to an isomorphism from child(mask) to child(pi(mask)) that
    fixes the new vertex.  Both tests are invariant under such a map: the
    degree test reads the new vertex's degree against every degree, the
    tied test its invariant against those of the vertices of its degree.
    So an orbit passes or fails as one unit, its children share one key,
    and certifying its least mask adds that key to ``seen`` as certifying
    every member would.  Masks are met in ascending order, and the first
    member of an orbit to pass the degree test marks every image, so the
    others are skipped.  Surviving isomorphic children of distinct orbits
    or parents still meet in ``seen``.
    """
    if t in _levels_cache:
        return _levels_cache[t]
    if t == 1:
        _levels_cache[1] = (0,)
        return _levels_cache[1]
    parents = _all_graph_keys(t - 1)
    new = t - 1
    ident = tuple(range(new))
    seen = set()
    for pkey in parents:
        prows = _key_rows(pkey, new)
        pdeg = [r.bit_count() for r in prows]
        at_deg = [0] * t  # at_deg[d]: parent vertices of degree d
        for i, d in enumerate(pdeg):
            at_deg[d] |= 1 << i
        top = max(pdeg)
        # each non-identity automorphism as one image bit per vertex
        images = [[1 << w for w in p] for p in _walk_automorphisms(prows, new) if p != ident]
        marked = set()   # masks in the orbit of a mask already met
        for mask in range(1 << new):
            d = mask.bit_count()
            if d < top or mask & at_deg[d] or mask in marked:
                continue
            if images:
                bits = _mask_bits(mask)
                marked.update(sum([im[i] for i in bits]) for im in images)
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


def _connected_graph6(n: int) -> Iterator[str]:
    """The graph6 record of every connected class on n <= ``ENUM_MAX_N``
    vertices, in canonical-certificate order, built from the keys alone.

    A key read from its top bit is the graph6 body: padded on the right to
    a multiple of six bits, it is written six bits to a character after the
    one size character.  A class is kept iff the ball around vertex 0 of
    radius n holds every vertex."""
    full = (1 << n) - 1
    npairs = n * (n - 1) // 2
    pad = -npairs % 6
    shifts = range(npairs + pad - 6, -1, -6)
    head = chr(63 + n)
    for key in _all_graph_keys(n):
        if _ball(_key_rows(key, n), 1, n) == full:
            body = key << pad
            yield head + "".join([chr(63 + (body >> s & 63)) for s in shifts])


def enumerate_connected(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on n
    vertices, in canonical-certificate order (deterministic across runs):
    ``parse_graph6`` over the records of ``_connected_graph6``.  The CLI's
    sweeps and ``gen`` stream those records and build no list."""
    if not 1 <= n <= ENUM_MAX_N:
        raise UnsupportedSizeError(f"enumeration supported for 1 <= n <= {ENUM_MAX_N}")
    return [parse_graph6(g6) for g6 in _connected_graph6(n)]


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
