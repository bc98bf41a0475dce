"""A family of graphs where few searchers can see everything quickly but
many are needed to actually capture.

Layout: 2k outside blocks, each a copy of Z_{2^m}, plus 2k hub vertices.
Residue a in block i is vertex ``i*2^m + a``; hub i is ``2k*2^m + i``.  The
m bit positions are split into 2k disjoint classes, one per block.  Edges:

* a_i ~ (a + 2^q mod 2^m)_j for every q in class(i) and every block j != i
  (movement between blocks by the source block's step sizes),
* hub i ~ every vertex of block i, and the hubs form a clique.

``build_construction`` writes the CSR rows straight, with no edge list and
no sort.  The row of (i, a) lists, per other block j in order, the sorted
residues (a + 2^q) mod 2^m for q in class(i) and (a - 2^q) mod 2^m for q in
class(j), then hub i; no residue repeats, so every row of block i has the
same width.  Hub i's row is block i, then the other hubs.

Hubs dominate everything, so k searchers sitting on half the hubs and then
hopping to the other half wipe the whole graph in one move.  Evasion rests
on a per-pair property: a searcher standing at offset delta from an evader
can interfere with at most one of the evader's forward step types.  That
holds when the class partition is "spaced" (no class contains q and q+1,
nor q and q+2); ``check_blocking`` verifies it against the built graph's
actual adjacency, exhaustively via translation classes or by sampling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator, Optional

import numpy as np

from .cleaning import StrategyScript
from .errors import BadParamError, UnsupportedSizeError
from .graphs import MAX_EDGES, MAX_VERTICES, Graph
from .stochastic import _seeded_rng


@dataclass(frozen=True)
class ConstructionSpec:
    k: int
    m: Optional[int] = None          # default 4*k*k
    partition: Optional[tuple[tuple[int, ...], ...]] = None  # default round-robin

    def resolved(self) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
        if self.k < 1:
            raise BadParamError("construction needs k >= 1")
        m = 4 * self.k * self.k if self.m is None else self.m
        parts = 2 * self.k
        if m < parts or m % parts != 0:
            raise BadParamError(f"step count m={m} must be a positive multiple of {parts}")
        # m > 20 is over the cap for every k; testing it first keeps an
        # absurd m from building 1 << m
        if m > 20 or parts * ((1 << m) + 1) > MAX_VERTICES:
            raise UnsupportedSizeError(
                f"k={self.k}, m={m} gives {parts} * (2^{m} + 1) vertices, "
                f"above the cap of {MAX_VERTICES}"
            )
        # the built graph's edges: 2^m per (block, step, other block) and
        # per hub's spokes, then the clique; no two of them coincide
        edges = ((m * (parts - 1) + parts) << m) + parts * (parts - 1) // 2
        if edges > MAX_EDGES:
            raise UnsupportedSizeError(
                f"k={self.k}, m={m} gives {edges} edges, above the cap of {MAX_EDGES}"
            )
        part = self.partition if self.partition is not None else default_partition(self.k, m)
        _validate_partition(part, m, parts)
        return m, parts, tuple(tuple(sorted(c)) for c in part)


def default_partition(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Round-robin: bit position q goes to class q mod 2k."""
    parts = 2 * k
    return tuple(tuple(range(c, m, parts)) for c in range(parts))


def _validate_partition(part, m, nparts):
    if len(part) != nparts:
        raise BadParamError(f"partition needs exactly {nparts} classes, got {len(part)}")
    seen = set()
    for cls in part:
        if not cls:
            raise BadParamError("partition classes must be nonempty")
        for q in cls:
            if not 0 <= q < m:
                raise BadParamError(f"bit position {q} outside 0..{m - 1}")
            if q in seen:
                raise BadParamError(f"bit position {q} assigned twice")
            seen.add(q)
    if len(seen) != m:
        raise BadParamError("partition must cover every bit position")


def spacing_ok(partition) -> bool:
    """No class may hold both q and q+1, nor both q and q+2."""
    cls_of = {}
    for ci, cls in enumerate(partition):
        for q in cls:
            cls_of[q] = ci
    m = len(cls_of)
    for q in range(m - 1):
        if cls_of[q] == cls_of[q + 1]:
            return False
    for q in range(m - 2):
        if cls_of[q] == cls_of[q + 2]:
            return False
    return True


@dataclass
class ConstructionGraph:
    graph: Graph
    k: int
    m: int
    partition: tuple[tuple[int, ...], ...]

    @property
    def blocks(self) -> int:
        return 2 * self.k

    @property
    def block_size(self) -> int:
        return 1 << self.m

    def vertex_id(self, block: int, residue: int) -> int:
        return (block << self.m) | residue

    def hub_id(self, block: int) -> int:
        return (self.blocks << self.m) + block

    def block_of(self, v: int) -> Optional[int]:
        if v >= self.blocks << self.m:
            return None  # hub
        return v >> self.m

    def residue_of(self, v: int) -> int:
        return v & ((1 << self.m) - 1)


def build_construction(spec: ConstructionSpec, allow_bad_spacing: bool = False) -> ConstructionGraph:
    m, nblocks, partition = spec.resolved()
    if not allow_bad_spacing and not spacing_ok(partition):
        raise BadParamError(
            "partition violates the spacing rule (a class holds q with q+1 or q+2); "
            "pass allow_bad_spacing=True (at the CLI, --allow-bad-spacing) to build it anyway"
        )
    size = 1 << m
    hub0 = nblocks * size
    n = hub0 + nblocks
    # every row of block i has the same width: per other block j, the
    # |class(i)| forward landings and |class(j)| backward ones, then hub i;
    # a hub's row is its block and the other hubs
    widths = [1 + sum(len(partition[i]) + len(partition[j]) for j in range(nblocks) if j != i)
              for i in range(nblocks)]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:hub0 + 1].reshape(nblocks, size)[:] = np.array(widths)[:, None]
    indptr[hub0 + 1:] = size + nblocks - 1
    np.cumsum(indptr, out=indptr)
    nbrs = np.empty(int(indptr[-1]), dtype=np.int32)

    a = np.arange(size, dtype=np.int32)
    for i in range(nblocks):
        lo = int(indptr[i << m])
        slab = nbrs[lo:lo + widths[i] * size].reshape(size, widths[i])
        col = 0
        for j in range(nblocks):
            if j == i:
                continue
            # (i, a) ~ (j, a + d mod 2^m) for d = 2^q, q in class(i), and
            # d = -2^q, q in class(j).  No d repeats: the classes are
            # disjoint, and 2^q + 2^q' = 0 mod 2^m only for q = q' = m - 1
            deltas = sorted([1 << q for q in partition[i]] + [size - (1 << q) for q in partition[j]])
            group = slab[:, col:col + len(deltas)]
            col += len(deltas)
            # the rows a in [2^m - d_s, 2^m - d_{s-1}) keep a + d_0..d_{s-1}
            # below 2^m, so each such row, sorted, is a + d_s..d_{t-1} - 2^m
            # and then a + d_0..d_{s-1}: a rotation, needing no sort
            cuts = [size] + [size - d for d in deltas] + [0]
            for s in range(len(deltas) + 1):
                offs = [d - size for d in deltas[s:]] + deltas[:s]
                rows = slice(cuts[s + 1], cuts[s])
                np.add(a[rows, None], np.array(offs, dtype=np.int32) + (j << m), out=group[rows])
        slab[:, col] = hub0 + i
    hubs = nbrs[int(indptr[hub0]):].reshape(nblocks, size + nblocks - 1)
    for i in range(nblocks):
        np.add(a, i << m, out=hubs[i, :size])
        hubs[i, size:] = [hub0 + j for j in range(nblocks) if j != i]
    indptr.setflags(write=False)
    nbrs.setflags(write=False)
    g = Graph(n, indptr, nbrs, name=f"construction:k={spec.k}:m={m}")
    return ConstructionGraph(graph=g, k=spec.k, m=m, partition=partition)


# -- checks -------------------------------------------------------------------


@dataclass
class BlockingReport:
    mode: str
    checked_pairs: int
    max_blocked: int
    passed: bool                      # every pair interferes with <= 1 type
    violations: list
    samples: Optional[int] = None
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        return asdict(self)


def _blocked_types(cg: ConstructionGraph, evader: int, searcher: int, searcher_adj) -> list[int]:
    """Forward step types of the evader that the searcher interferes with,
    judged purely by the built graph: a type q counts as blocked when the
    searcher occupies or is adjacent to one of its landing vertices."""
    g = cg.graph
    i = cg.block_of(evader)
    a = cg.residue_of(evader)
    mask = (1 << cg.m) - 1
    out = []
    for q in cg.partition[i]:
        c = (a + (1 << q)) & mask
        hit = False
        for j in range(cg.blocks):
            if j == i:
                continue
            w = cg.vertex_id(j, c)
            if w == searcher or w in searcher_adj:
                hit = True
                break
        if hit:
            out.append(q)
    return out


_CHUNK = 1 << 12   # pairs per kernel step; keeps the temporaries in cache


def _blocked_counts(cg: ConstructionGraph, evaders: np.ndarray, searchers: np.ndarray) -> np.ndarray:
    """len(_blocked_types(cg, ev, se, ...)) for every pair at once, in one
    pass over each searcher's closed row.

    A type q of an evader (i, a) is blocked when the searcher's closed row
    holds a landing vertex (j, (a + 2^q) mod 2^m) with j != i, which is
    exactly "the searcher occupies or is adjacent to a landing vertex".  So
    an outside entry (j, r) of the row lands type q iff both hold:

    * j != i;
    * d = (r - a) mod 2^m equals 2^q, with q in class(i).

    Each entry therefore names at most one type, the bit d, and only when d
    is a power of two.  The kernel keeps d where the entry's block is not i
    and d is a power of two, ANDs it with the class mask of block i (the OR
    of 2^q over class(i)), ORs each row's bits together and counts them.
    The power-of-two test must come before the AND: d = 2^q + 2^r with r
    outside the class would otherwise pass as 2^q.

    The rows are read where ``build_construction`` wrote them.  Every row
    of block j has one width, so block j's rows are a (2^m x width) view of
    ``nbrs``; its last column, hub j, is not an outside vertex and is left
    out.  The pairs are taken by searcher block, ``_CHUNK`` at a time, and
    the searcher's own vertex, in block j, is judged as one more entry.
    Each count goes back to its pair's index, so nothing the size of the
    graph is copied.  The bits are counted by one gather into ``ones``,
    the popcount of every m-bit value."""
    m, mask = cg.m, (1 << cg.m) - 1
    indptr, nbrs = cg.graph._indptr, cg.graph._nbrs
    class_bits = np.array([sum(1 << q for q in cls) for cls in cg.partition], dtype=np.int32)
    ones = np.zeros(1 << m, dtype=np.uint8)
    for q in range(m):
        ones[1 << q:2 << q] = ones[:1 << q] + 1
    counts = np.empty(len(evaders), dtype=np.int32)
    for j in range(cg.blocks):
        lo = int(indptr[j << m])
        width = int(indptr[(j << m) + 1]) - lo
        slab = nbrs[lo:lo + (width << m)].reshape(1 << m, width)[:, :-1]
        pairs = np.flatnonzero(searchers >> m == j)
        for c in range(0, len(pairs), _CHUNK):
            p = pairs[c:c + _CHUNK]
            ev, se = evaders[p], searchers[p]
            i = ev >> m
            ev &= mask
            se &= mask
            bits = class_bits[i]
            row = slab[se]
            d = row - ev[:, None]
            d &= mask
            lands = (d & (d - 1)) == 0
            lands &= (row >> m) != i[:, None]
            d &= bits[:, None]
            d *= lands
            # the searcher's own vertex (j, se): d = se - a, landing iff j != i
            se -= ev
            se &= mask
            own = (se & (se - 1)) == 0
            own &= i != j
            se &= bits
            se *= own
            np.bitwise_or.reduce(d, axis=1, out=bits)
            bits |= se
            counts[p] = ones[bits]
    return counts


MAX_SAMPLES = 1 << 24

# pairs per chunk a check lists and hands to ``_blocked_counts``
_PAIRS = 1 << 16


def _check_samples(samples: int) -> None:
    """Refuse a sampled check's pair count before anything is drawn: below
    one there is nothing to check, and ``MAX_SAMPLES`` bounds its run time.
    The pairs stream through in chunks, so memory does not grow with the
    count, but each 10^6 pairs take about 0.2 s (some 3 s at the cap, and
    minutes at 10^9)."""
    if samples < 1:
        raise BadParamError("sampled blocking check needs samples >= 1")
    if samples > MAX_SAMPLES:
        raise UnsupportedSizeError(
            f"sampled blocking check of {samples} pairs is above the cap of {MAX_SAMPLES}"
        )


def _sample_pairs(outside: int, samples: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``samples`` ordered pairs of distinct vertices below ``outside``,
    each uniform over all such pairs, as (evaders, searchers) int32 arrays
    of at most ``_PAIRS`` pairs each.

    The stream is that of one generator, ``_seeded_rng(seed)``, making two
    draws: every evader, then every offset ``off`` below ``outside - 1``.
    The searcher is ``(ev + 1 + off) % outside``, uniform over the vertices
    other than the evader, so no draw is rejected.  Chunked ``integers``
    draws join up to the one-shot draw, so one generator draws the evaders
    chunk by chunk, and a second with the same seed first draws and drops
    every evader, then draws the offsets chunk by chunk.  A negative seed
    raises ``BadParamError`` at the first chunk."""
    sizes = [min(_PAIRS, samples - lo) for lo in range(0, samples, _PAIRS)]
    draws, offsets = _seeded_rng(seed), _seeded_rng(seed)
    for size in sizes:
        offsets.integers(outside, size=size, dtype=np.int32)
    for size in sizes:
        evaders = draws.integers(outside, size=size, dtype=np.int32)
        searchers = offsets.integers(outside - 1, size=size, dtype=np.int32)
        searchers += 1
        searchers += evaders
        searchers %= outside
        yield evaders, searchers


def _walk_pairs(blocks: int, m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The exhaustive walk's pairs, as (evaders, searchers) int32 arrays of
    at most ``_PAIRS`` pairs each: every outside searcher in order and, for
    each, the residue-0 vertex of every block in order as the evader, save
    the searcher itself."""
    step = _PAIRS // blocks
    tiled = np.tile(np.arange(blocks, dtype=np.int32) << m, step)
    for lo in range(0, blocks << m, step):
        searchers = np.repeat(np.arange(lo, min(lo + step, blocks << m), dtype=np.int32), blocks)
        evaders = tiled[:len(searchers)]
        keep = searchers != evaders
        yield evaders[keep], searchers[keep]


# violating pairs a check re-judges and reports
_MAX_VIOLATIONS = 5


def check_blocking(
    cg: ConstructionGraph,
    mode: str = "exhaustive",
    samples: int = 1_000_000,
    seed: int = 0,
) -> BlockingReport:
    """Verify the one-type-per-searcher interference property over ordered
    pairs of distinct outside vertices.

    Both modes list (evader, searcher) pairs in chunks of at most
    ``_PAIRS`` and hand each chunk to one numpy kernel, ``_blocked_counts``,
    which reads each searcher's closed row of the built graph once per pair
    and turns every entry into at most one blocked type bit.  Each chunk's
    counts fold into the running maximum, and the first ``_MAX_VIOLATIONS``
    pairs that block more than one type are re-judged by ``_blocked_types``,
    the per-pair reference, in the order the pairs were listed.  No array
    of the pair count is built, so memory does not grow with it.

    Exhaustive mode walks translation classes (``_walk_pairs``): shifting
    every residue by a constant is an automorphism (all edges depend on
    residue differences only), so pinning the evader's residue at 0 covers
    every pair; the reported pair count is the full ordered total.  Sampled
    mode checks ``samples`` random pairs from ``_sample_pairs``, refused by
    ``_check_samples`` unless 1 <= samples <= ``MAX_SAMPLES``: the stream of
    one PCG64 generator seeded with ``seed`` draws every evader, then every
    offset to its searcher, which makes each pair uniform over the ordered
    pairs of distinct outside vertices.
    """
    outside = cg.blocks << cg.m
    if mode == "exhaustive":
        pairs = _walk_pairs(cg.blocks, cg.m)
        checked, extra = outside * (outside - 1), {}
    elif mode == "sampled":
        _check_samples(samples)
        pairs = _sample_pairs(outside, samples, seed)
        checked, extra = samples, {"samples": samples, "seed": seed}
    else:
        raise BadParamError("mode must be 'exhaustive' or 'sampled'")

    max_blocked, violations = 0, []
    mask = (1 << cg.m) - 1
    for evaders, searchers in pairs:
        counts = _blocked_counts(cg, evaders, searchers)
        max_blocked = max(max_blocked, int(counts.max()))
        for p in np.flatnonzero(counts > 1)[:_MAX_VIOLATIONS - len(violations)].tolist():
            ev, se = int(evaders[p]), int(searchers[p])
            violations.append({
                "evader": [cg.block_of(ev), cg.residue_of(ev)],
                "searcher": [cg.block_of(se), cg.residue_of(se)],
                "delta": (cg.residue_of(se) - cg.residue_of(ev)) & mask,
                "types": _blocked_types(cg, ev, se, set(cg.graph.neighbors(se))),
            })
    return BlockingReport(
        mode=mode, checked_pairs=checked, max_blocked=max_blocked,
        passed=max_blocked <= 1, violations=violations, **extra,
    )


def check_middle_dominating(cg: ConstructionGraph) -> bool:
    """Every vertex must be a hub or adjacent to its block's hub, and the
    hubs must form a clique, checked against the built adjacency."""
    g = cg.graph
    for i in range(cg.blocks):
        h = cg.hub_id(i)
        for j in range(i + 1, cg.blocks):
            if not g.adjacent(h, cg.hub_id(j)):
                return False
        if g.degree(h) != cg.block_size + cg.blocks - 1:
            return False
        # the clique tests so far put all 2k - 1 other hubs in h's row, so
        # the degree leaves exactly 2^m other entries; every hub id is above
        # every outside id and the row is sorted, so those entries come
        # first, and block i is covered iff they are its 2^m vertices
        base = i << cg.m
        if not np.array_equal(g.row(h)[:cg.block_size], np.arange(base, base + cg.block_size)):
            return False
    return True


def scripted_seeing_strategy(cg: ConstructionGraph, cops: Optional[int] = None) -> StrategyScript:
    """Place searchers on the first half of the hubs, then hop each to the
    matching hub in the second half.  With cops=k this cleans everything on
    the first move (hubs cover their blocks at sight 1 and form a clique);
    fewer searchers leave uncovered blocks and the script fails, which the
    tests use as the contrast case."""
    c = cg.k if cops is None else cops
    if not 1 <= c <= cg.k:
        raise BadParamError(f"scripted strategy supports 1..{cg.k} searchers")
    place = tuple(cg.hub_id(i) for i in range(c))
    hop = tuple(cg.hub_id(cg.k + i) for i in range(c))
    return StrategyScript(l=1, place=place, turns=(hop,))
