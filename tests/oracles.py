"""Slow reference implementations used to pin expected values.

Everything here favors obviousness over speed: plain sets and tuples, no bit
packing, no pruning, no shared code with the package beyond the Graph
container.  Keep it that way; the value of these oracles is that they fail
differently than the fast solvers do.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from copclean.graphs import Graph


# -- canonical forms and counting ------------------------------------------------


def upper_triangle_code(adj: set, n: int, perm) -> int:
    """Adjacency upper triangle of the relabeled graph as one integer,
    column-major to mirror the fast implementation's bit order."""
    code = 0
    bit = 0
    for w in range(1, n):
        for u in range(w):
            code <<= 1
            if (perm[u], perm[w]) in adj or (perm[w], perm[u]) in adj:
                code |= 1
            bit += 1
    return code


def brute_canonical(g: Graph) -> int:
    adj = set(g.edges())
    best = None
    for perm in itertools.permutations(range(g.n)):
        inv = [0] * g.n
        for i, p in enumerate(perm):
            inv[p] = i
        code = upper_triangle_code(adj, g.n, perm)
        if best is None or code < best:
            best = code
    return best


def graph_from_key(key: int, n: int) -> Graph:
    """The graph of an upper-triangle certificate: its bits, read from the
    top, are the pairs i < j in graph6 order x01, x02, x12, x03, x13, ..."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    bits = format(key, f"0{len(pairs)}b")
    return Graph.from_edges(n, [p for p, b in zip(pairs, bits) if b == "1"])


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation p (vertex i to p[i]) that maps the edge set
    onto itself, in ``itertools.permutations`` order."""
    edges = {frozenset(e) for e in g.edges()}
    return [p for p in itertools.permutations(range(g.n))
            if {frozenset((p[u], p[v])) for u, v in edges} == edges]


def all_connected_masks(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph.from_edges(n, edges)
        if _connected(g):
            yield g


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    seen = {0}
    q = deque([0])
    while q:
        v = q.popleft()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                q.append(w)
    return len(seen) == g.n


def brute_count_connected(n: int) -> int:
    return len({brute_canonical(g) for g in all_connected_masks(n)})


def brute_girth(g: Graph):
    """Shortest cycle length by DFS over all simple paths; None if acyclic."""
    best = None
    n = g.n

    def walk(start, v, visited, depth):
        nonlocal best
        for w in g.neighbors(v):
            if w == start and depth >= 3:
                if best is None or depth < best:
                    best = depth
            elif w > start and w not in visited and (best is None or depth + 1 < best):
                visited.add(w)
                walk(start, w, visited, depth + 1)
                visited.discard(w)

    for s in range(n):
        walk(s, s, {s}, 1)
    return best


# -- the block construction -----------------------------------------------------


def construction_from_edges(spec) -> Graph:
    """The block graph of a ``ConstructionSpec``, listed edge by edge and
    handed to ``Graph.from_edge_arrays``, which sorts and deduplicates: one
    row of 2^m edges per (block i, step q in class(i), block j != i) and
    per hub's spokes, then the hub clique.  No spacing rule is applied."""
    k = spec.k
    m = 4 * k * k if spec.m is None else spec.m
    nblocks = 2 * k
    partition = spec.partition or tuple(tuple(range(c, m, nblocks)) for c in range(nblocks))
    size = 1 << m
    hub0 = nblocks * size
    a = np.arange(size, dtype=np.int64)
    us, vs = [], []
    for i in range(nblocks):
        for q in partition[i]:
            for j in range(nblocks):
                if j != i:
                    us.append(i * size + a)
                    vs.append(j * size + ((a + (1 << q)) & (size - 1)))
        us.append(np.full(size, hub0 + i))
        vs.append(i * size + a)
        for j in range(i + 1, nblocks):
            us.append(np.array([hub0 + i]))
            vs.append(np.array([hub0 + j]))
    return Graph.from_edge_arrays(hub0 + nblocks, np.concatenate(us), np.concatenate(vs),
                                  name=f"construction:k={k}:m={m}")


# -- cleaning dynamics -----------------------------------------------------------


def ball(g: Graph, v: int, l: int) -> frozenset:
    dist = {v: 0}
    q = deque([v])
    while q:
        u = q.popleft()
        if dist[u] == l:
            continue
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return frozenset(dist)


def seen_by(g: Graph, cops, l: int) -> frozenset:
    out = frozenset()
    for c in cops:
        out |= ball(g, c, l)
    return out


def spread(g: Graph, gas: frozenset, sight: frozenset) -> frozenset:
    grown = set(gas)
    for v in gas:
        for w in g.neighbors(v):
            if w not in sight:
                grown.add(w)
    return frozenset(grown)


def plain_run_script(g: Graph, l: int, place, turns) -> list[dict]:
    """Every snapshot of a scripted play on plain sets, shaped as the
    engine's ``CleaningState.to_dict``: placement, then after-clean and
    after-spread per turn.  Each step is the per-vertex set loop: the sight
    is a union of breadth-first balls, and every gas vertex left after
    cleaning adds its unseen neighbours."""
    cops = tuple(sorted(place))
    gas = frozenset(range(g.n)) - seen_by(g, cops, l)
    out = [{"t": 0, "phase": "AFTER_CLEAN", "cops": list(cops), "gas": sorted(gas)}]
    for t, targets in enumerate(turns, 1):
        cops = tuple(sorted(targets))
        sight = seen_by(g, cops, l)
        cleaned = gas - sight
        gas = spread(g, cleaned, sight)
        out.append({"t": t, "phase": "AFTER_CLEAN", "cops": list(cops), "gas": sorted(cleaned)})
        out.append({"t": t, "phase": "AFTER_SPREAD", "cops": list(cops), "gas": sorted(gas)})
    return out


def clean_reachable_states(g: Graph, k: int, l: int):
    """Every (cops, gas) snapshot after a clean, by plain breadth first
    search over the full game tree."""
    verts = frozenset(range(g.n))
    start = []
    for cops in itertools.combinations_with_replacement(range(g.n), k):
        gas = verts - seen_by(g, cops, l)
        start.append((tuple(sorted(cops)), gas))
    seen = set(start)
    q = deque(start)
    while q:
        cops, gas = q.popleft()
        balls = [sorted(ball(g, c, 1)) for c in cops]
        for dest in itertools.product(*balls):
            nxt = tuple(sorted(dest))
            sight = seen_by(g, nxt, l)
            gas1 = gas - sight
            gas2 = spread(g, gas1, sight)
            state = (nxt, gas2)
            # the after-clean snapshot (nxt, gas1) is what gets measured, but
            # the game continues from the respread gas
            if (nxt, gas1) not in seen:
                seen.add((nxt, gas1))
            if state not in seen:
                seen.add(state)
                q.append(state)
    return seen


def brute_clean(g: Graph, k: int, l: int):
    """(max_clean, min_gas) over every snapshot measured after a clean."""
    verts = frozenset(range(g.n))
    best_gas = g.n
    frontier = []
    visited = set()
    for cops in itertools.combinations_with_replacement(range(g.n), k):
        cops = tuple(sorted(cops))
        gas = verts - seen_by(g, cops, l)
        best_gas = min(best_gas, len(gas))
        if (cops, gas) not in visited:
            visited.add((cops, gas))
            frontier.append((cops, gas))
    q = deque(frontier)
    while q:
        cops, gas = q.popleft()
        balls = [sorted(ball(g, c, 1)) for c in cops]
        for dest in itertools.product(*balls):
            nxt = tuple(sorted(dest))
            sight = seen_by(g, nxt, l)
            gas1 = gas - sight
            best_gas = min(best_gas, len(gas1))
            gas2 = spread(g, gas1, sight)
            state = (nxt, gas2)
            if state not in visited:
                visited.add(state)
                q.append(state)
    return g.n - best_gas, best_gas


def brute_seeing_number(g: Graph, l: int) -> int:
    for k in range(1, g.n + 1):
        if brute_clean(g, k, l)[1] == 0:
            return k
    raise AssertionError("unreachable")


def brute_inference_number(g: Graph, l: int, r: int) -> int:
    for k in range(1, g.n + 1):
        if brute_clean(g, k, l)[1] <= r:
            return k
    raise AssertionError("unreachable")


# -- perfect information pursuit ---------------------------------------------------


def brute_pursuit_time(g: Graph, k: int, rho: int, cap: int | None = None):
    """Optimal capture time with perfect information, or None if the evader
    escapes forever.  Capture is checked right after the pursuers move."""
    if cap is None:
        cap = 2 * g.n * g.n
    dist = [g.bfs_dist(v) for v in range(g.n)]

    def zone(cfg):
        return {r for r in range(g.n) if any(0 <= dist[c][r] <= rho for c in cfg)}

    cfgs = [tuple(sorted(c)) for c in
            itertools.combinations_with_replacement(range(g.n), k)]
    moves = {}
    for cfg in cfgs:
        balls = [sorted(ball(g, c, 1)) for c in cfg]
        moves[cfg] = sorted({tuple(sorted(d)) for d in itertools.product(*balls)})
    zones = {cfg: zone(cfg) for cfg in cfgs}

    # win[(cfg, r)] = optimal rounds to capture from a robber-to-move state
    # where the robber at r has already survived the capture check
    win = {}
    changed = True
    rounds = 0
    while changed and rounds <= cap:
        changed = False
        rounds += 1
        for cfg in cfgs:
            for r in range(g.n):
                if r in zones[cfg]:
                    continue
                best = None
                for nxt in moves[cfg]:
                    if r in zones[nxt]:
                        cand = 1
                    else:
                        worst = 0
                        ok = True
                        for r2 in sorted({r} | set(g.neighbors(r))):
                            if r2 in zones[nxt]:
                                continue
                            v = win.get((nxt, r2))
                            if v is None:
                                ok = False
                                break
                            worst = max(worst, v)
                        cand = 1 + worst if ok else None
                    if cand is not None and (best is None or cand < best):
                        best = cand
                if best is not None and win.get((cfg, r)) != best:
                    if win.get((cfg, r), 1 << 30) > best:
                        win[(cfg, r)] = best
                        changed = True
    result = None
    for cfg in cfgs:
        safe = [r for r in range(g.n) if r not in zones[cfg]]
        if not safe:
            cand = 0
        else:
            vals = [win.get((cfg, r)) for r in safe]
            if any(v is None for v in vals):
                continue
            cand = max(vals)
        if result is None or cand < result:
            result = cand
    return result


def brute_sure_capture(g: Graph, k: int, rho: int):
    """Where random searchers capture almost surely, by plain set fixpoints.

    First the adversarial win sets: searcher-to-move states from which some
    move captures or leads to a won evader-to-move state, and evader-to-move
    states all of whose replies lead to won searcher-to-move states.  Then
    the sure-capture region: the greatest set of won states closed under
    every searcher move that does not capture and every evader reply.
    Returns {(cfg, r): (in region, evader survives every searcher)} over
    the searcher-to-move states with r outside the zone of cfg.
    """
    cfgs = [tuple(sorted(c)) for c in
            itertools.combinations_with_replacement(range(g.n), k)]
    zones = {cfg: seen_by(g, cfg, rho) for cfg in cfgs}
    moves = {}
    for cfg in cfgs:
        balls = [sorted(ball(g, c, 1)) for c in cfg]
        moves[cfg] = {tuple(sorted(d)) for d in itertools.product(*balls)}
    alive = [(cfg, r) for cfg in cfgs for r in range(g.n) if r not in zones[cfg]]

    def searcher_next(cfg, r):
        """Evader-to-move states after a non-capturing searcher move, and
        whether some move captures."""
        nxt = {(m, r) for m in moves[cfg] if r not in zones[m]}
        return nxt, any(r in zones[m] for m in moves[cfg])

    def evader_next(cfg, r):
        return {(cfg, r2) for r2 in ball(g, r, 1) if r2 not in zones[cfg]}

    won_c, won_r = set(), set()
    changed = True
    while changed:
        changed = False
        for st in alive:
            nxt, captures = searcher_next(*st)
            if st not in won_c and (captures or nxt & won_r):
                won_c.add(st)
                changed = True
            if st not in won_r and evader_next(*st) <= won_c:
                won_r.add(st)
                changed = True

    sure_c, sure_r = set(won_c), set(won_r)
    changed = True
    while changed:
        changed = False
        for st in list(sure_c):
            if not searcher_next(*st)[0] <= sure_r:
                sure_c.discard(st)
                changed = True
        for st in list(sure_r):
            if not evader_next(*st) <= sure_c:
                sure_r.discard(st)
                changed = True
    return {st: (st in sure_c, st not in won_c) for st in alive}


def brute_expected_time(g: Graph, k: int, rho: int, move_model: str = "per_cop") -> dict:
    """Expected searcher rounds to capture by random searchers against an
    optimal evader, under "optimal" and "uniform" placement: ``math.inf``
    when capture is not almost sure.

    The chain is rebuilt from the model: each round the searchers move (each
    uniformly over its closed neighborhood for "per_cop", or uniformly over
    the distinct joint moves for "joint_multiset"), capture happens when the
    evader ends up in the new zone, otherwise the evader steps within its
    closed neighborhood to the reply of largest value.  ``brute_sure_capture``
    decides where the values are finite; inside that region plain
    Gauss-Seidel value iteration from zero runs until a sweep changes no
    value at all.  Every operation is monotone, so the float iterates rise
    to a fixed point.  "optimal" is the least worst-case value over searcher
    placements; "uniform" averages over ordered placements.
    """
    cfgs = [tuple(sorted(c)) for c in
            itertools.combinations_with_replacement(range(g.n), k)]
    zones = {cfg: seen_by(g, cfg, rho) for cfg in cfgs}
    moves = {}
    for cfg in cfgs:
        dests = [tuple(sorted(d)) for d in
                 itertools.product(*(sorted(ball(g, c, 1)) for c in cfg))]
        if move_model == "joint_multiset":
            dests = sorted(set(dests))
        dist = {}
        for d in dests:
            dist[d] = dist.get(d, 0.0) + 1.0 / len(dests)
        moves[cfg] = dist
    finite = sorted(st for st, (ok, _) in brute_sure_capture(g, k, rho).items() if ok)
    index = {st: i for i, st in enumerate(finite)}
    plan = [
        [(p, [index[(d, r2)] for r2 in sorted(ball(g, r, 1)) if r2 not in zones[d]])
         for d, p in moves[cfg].items() if r not in zones[d]]
        for cfg, r in finite
    ]
    value = [0.0] * len(finite)
    changed = True
    while changed:
        changed = False
        for i, outcomes in enumerate(plan):
            v = 1.0
            for p, replies in outcomes:
                v += p * max(map(value.__getitem__, replies))
            if v != value[i]:
                value[i] = v
                changed = True

    def start(cfg):
        safe = [r for r in range(g.n) if r not in zones[cfg]]
        return max((value[index[(cfg, r)]] if (cfg, r) in index else math.inf
                    for r in safe), default=0.0)

    starts = [start(tuple(sorted(p))) for p in itertools.product(range(g.n), repeat=k)]
    return {"optimal": min(start(cfg) for cfg in cfgs),
            "uniform": sum(starts) / len(starts)}


def brute_cop_number(g: Graph) -> int:
    for k in range(1, g.n + 1):
        if brute_pursuit_time(g, k, 0) is not None:
            return k
    raise AssertionError("unreachable")


# -- knowledge-set capture ----------------------------------------------------------


def brute_limited_capture(g: Graph, k: int, l: int, observe_after_cop_move: bool = True):
    """Can the pursuers guarantee co-location when they only see within
    distance l?"""
    return brute_limited_capture_rounds(g, k, l, observe_after_cop_move)[0]


def brute_limited_capture_rounds(g: Graph, k: int, l: int, observe_after_cop_move: bool = True):
    """``(capture, capture_time, placement)`` for pursuers that only see
    within distance l, over (cops, candidate set) states.

    The won set grows in synchronous rounds: a state joins in round t if
    some move has every branch won before round t, so a move with no
    branches wins at once.  A placement takes the most rounds of its pieces
    (0 with none), and the placement is the first config, in
    ``combinations_with_replacement`` order, with the least time."""
    verts = frozenset(range(g.n))
    cfgs = [tuple(sorted(c)) for c in
            itertools.combinations_with_replacement(range(g.n), k)]

    def split(cops, cand):
        sight = seen_by(g, cops, l)
        vis = cand & sight
        hid = cand - sight
        pieces = [frozenset([v]) for v in sorted(vis)]
        if hid:
            pieces.append(hid)
        return pieces

    def succ(cops, cand):
        """All (new_cops, [branch pieces]) after one joint move."""
        balls = [sorted(ball(g, c, 1)) for c in cops]
        out = []
        for dest in itertools.product(*balls):
            nxt = tuple(sorted(dest))
            occ = set(nxt)
            left = cand - frozenset(occ)
            if not left:
                out.append((nxt, []))
                continue
            mids = [left]
            if observe_after_cop_move:
                sight = seen_by(g, nxt, l)
                vis = left & sight
                hid = left - sight
                mids = [frozenset([v]) for v in sorted(vis)]
                if hid:
                    mids.append(hid)
            branches = []
            for piece in mids:
                grown = set()
                for v in piece:
                    grown.add(v)
                    grown.update(g.neighbors(v))
                grown -= occ
                if not grown:
                    continue
                branches.extend(split(nxt, frozenset(grown)))
            out.append((nxt, branches))
        return out

    # every reachable state with its moves
    reach = {}
    q = deque()
    for cfg in cfgs:
        for piece in split(cfg, verts - frozenset(cfg)):
            key = (cfg, piece)
            if key not in reach:
                reach[key] = None
                q.append(key)
    while q:
        cops, cand = key = q.popleft()
        reach[key] = succ(cops, cand)
        for nxt, branches in reach[key]:
            for b in branches:
                k2 = (nxt, b)
                if k2 not in reach:
                    reach[k2] = None
                    q.append(k2)

    won = {}   # state -> the round it joins the won set
    t = 1
    while True:
        new = [key for key, options in reach.items() if key not in won
               and any(all((nxt, b) in won for b in branches) for nxt, branches in options)]
        if not new:
            break
        for key in new:
            won[key] = t
        t += 1

    best = None
    for cfg in cfgs:
        pieces = [(cfg, p) for p in split(cfg, verts - frozenset(cfg))]
        if all(p in won for p in pieces):
            time = max((won[p] for p in pieces), default=0)
            if best is None or time < best[0]:
                best = (time, cfg)
    if best is None:
        return False, None, None
    return True, best[0], best[1]


def brute_capture_number_limited(g: Graph, l: int) -> int:
    for k in range(1, g.n + 1):
        if brute_limited_capture(g, k, l):
            return k
    raise AssertionError("unreachable")
